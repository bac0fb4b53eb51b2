"""Smoke tests: the runnable scripts still work against the library API."""

import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent


def test_bound_scan_runs_on_a_tiny_sample():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "bound_scan.py"), "2", "7"],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "BOUND VIOLATION" not in proc.stdout
    rows = [line for line in proc.stdout.splitlines() if " n=" in line]
    assert len(rows) == 7  # four two-radical and three confluent configs
