"""Smoke tests: the runnable scripts still work against the library API."""

import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *args],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_bound_scan_runs_on_a_tiny_sample():
    proc = run_script("bound_scan.py", "2", "7")
    assert proc.returncode == 0, proc.stderr
    assert "BOUND VIOLATION" not in proc.stdout
    assert "UNDECIDED" not in proc.stdout
    rows = [line for line in proc.stdout.splitlines() if " n=" in line]
    assert len(rows) == 9  # six two-radical and three confluent configs


def test_bound_scan_rejects_an_empty_sample():
    proc = run_script("bound_scan.py", "0")
    assert proc.returncode == 1
    assert proc.stderr.startswith("usage: python scripts/bound_scan.py")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_two_zero_demo_confirms_both_cycles():
    proc = run_script("two_zero_demo.py")
    assert proc.returncode == 0, proc.stderr
    assert "certified count: [2, 2]" in proc.stdout
    assert "zero/cycle correspondence: confirmed" in proc.stdout
