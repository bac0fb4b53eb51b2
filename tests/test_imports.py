"""Import budget: numpy and scipy load only where floats are computed.

Each test runs a fresh interpreter, because the pytest process itself has
long since imported the numeric stack.
"""

import json
import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
SPEC = "instances/n2_basic.spec"

PRELUDE = """
import contextlib, io, json, sys

def numeric():
    return sorted({m.split(".")[0] for m in sys.modules} & {"numpy", "scipy"})

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))
"""


def _child(body: str):
    """Run PRELUDE + body in a new interpreter; body prints one JSON line last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + body],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


def test_exact_commands_never_load_the_numeric_stack():
    seen, _ = _child(
        f"""
import melcert, melcert.cli
from melcert import cli
seen = {{"import": [0, numeric()]}}
for command in ("normal-form", "zeros", "sample-curve"):
    seen[command] = [run(command, "--spec", "{SPEC}"), numeric()]
seen["scan"] = [run("scan", "--spec", "{SPEC}", "--samples", "2"), numeric()]
print(json.dumps(seen))
"""
    )
    assert seen == {
        step: [0, []] for step in ("import", "normal-form", "zeros", "sample-curve", "scan")
    }


def test_verify_loads_the_numeric_stack():
    seen, _ = _child(
        f"""
from melcert import cli
before = numeric()
print(json.dumps([before, run("verify", "--spec", "{SPEC}"), numeric()]))
"""
    )
    assert seen == [[], 0, ["numpy", "scipy"]]


def test_missing_scipy_ends_in_a_clear_error():
    seen, stderr = _child(
        f"""
sys.modules["scipy"] = None  # as if scipy were not installed
from melcert import cli
print(json.dumps([run("verify", "--spec", "{SPEC}"), run("zeros", "--spec", "{SPEC}")]))
"""
    )
    assert seen == [1, 0]
    assert stderr.startswith("error: verify needs scipy (")
    assert "Traceback" not in stderr
