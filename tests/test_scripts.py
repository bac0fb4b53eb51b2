"""Smoke tests: the runnable scripts and the README's library quick start
still work against the library API."""

import ast
import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent


def run_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    return run_python(str(REPO / "scripts" / name), *args)


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


def test_readme_quick_start_runs_as_documented():
    section = (REPO / "README.md").read_text().split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    counts, labels = proc.stdout.splitlines()
    assert counts == "2 2"
    # two cycles at the prescribed zeros h = 1 and h = 2 (h_max = 4)
    labels = sorted(ast.literal_eval(labels))
    assert len(labels) == 2
    assert all(abs(label - h) <= 5e-3 * 4 for label, h in zip(labels, (1, 2)))
