"""Every CLI command pinned to recorded outputs on the instance files.

For each case the golden file holds the exit status and the sha256 of
stdout, and of the ``--out`` file where one is written.  ``verify`` keeps
only its status, verdict, counts and number of detected cycles, because its
cycle labels are libm floats.  To re-record the file after a change that is
meant to alter the outputs, run ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import hashlib
import io
import json
import pathlib
import tempfile
from contextlib import redirect_stdout

import pytest

from melcert.cli import main

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "cli_outputs.json"
INSTANCES = HERE.parent / "instances"
NAMES = ("n2_basic", "two_zeros", "confluent_n3")
OUT = "{out}"


def _cases() -> dict:
    """case name -> (instance, argv after --spec); OUT marks the --out path."""
    table = {}
    for inst in NAMES:
        for fmt in ("text", "json"):
            table[f"normal-form {fmt} {inst}"] = (inst, ["normal-form", "--format", fmt])
            table[f"zeros {fmt} {inst}"] = (inst, ["zeros", "--format", fmt])
        for fmt in ("csv", "text", "json"):
            table[f"scan {fmt} {inst}"] = (inst, ["scan", "--format", fmt])
            table[f"scan {fmt} --out {inst}"] = (
                inst, ["scan", "--format", fmt, "--samples", "4", "--seed", "2", "--out", OUT]
            )
        table[f"zeros json --out {inst}"] = (inst, ["zeros", "--format", "json", "--out", OUT])
        table[f"sample-curve {inst}"] = (inst, ["sample-curve"])
        table[f"sample-curve --out {inst}"] = (
            inst, ["sample-curve", "--points", "7", "--precision", "12", "--out", OUT]
        )
        table[f"sample-curve --precision 1000 {inst}"] = (
            inst, ["sample-curve", "--precision", "1000", "--points", "12"]
        )
        table[f"verify json {inst}"] = (inst, ["verify", "--format", "json", "--eps", "1/1000"])
    return table


CASES = _cases()


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def run_case(name: str, out_dir: pathlib.Path) -> dict:
    """Run one case in-process, writing any --out file into out_dir."""
    inst, args = CASES[name]
    out_path = out_dir / "out.txt"
    argv = [args[0], "--spec", str(INSTANCES / f"{inst}.spec")]
    argv += [str(out_path) if a == OUT else a for a in args[1:]]
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = main(argv)
    if args[0] == "verify":
        report = json.loads(stdout.getvalue())
        keys = ("status", "verdict", "count_lo", "count_hi", "detected_cycles")
        return {"exit": code, **{k: report.get(k) for k in keys}}
    result = {"exit": code, "stdout": _sha(stdout.getvalue())}
    if OUT in args:
        result["out"] = _sha(out_path.read_text())
    return result


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert run_case(name, tmp_path) == golden[name]


if __name__ == "__main__":
    table = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            table[case] = run_case(case, pathlib.Path(tmp))
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
