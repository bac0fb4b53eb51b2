"""Import budget: no melcert code loads numpy or scipy, and the
section-return integrator loads only where a return is integrated.  The
quadrature oracle and zero prescription are pure Python.

Each test runs a fresh interpreter, because the pytest process itself has
long since imported the numeric stack.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
SPEC = "instances/n2_basic.spec"
# the assembly's rows, lifts and sums, its point kernels, and the sign tree
# with its walk and its eliminant
ASSEMBLY_INTERNALS = {
    "_integrals",
    "_integrate",
    "_first_row",
    "_next_row",
    "_lift",
    "_point_rungs",
    "_confluent_rungs",
    "sign_tree",
    "tree_sign",
    "_sign_rule",
    "eliminant",
}

PRELUDE = """
import contextlib, io, json, sys

def numeric():
    tops = {m.split(".")[0] for m in sys.modules} & {"numpy", "scipy"}
    return sorted(tops | ({"melcert.dop853"} & set(sys.modules)))

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


def test_verify_loads_no_numeric_stack():
    # section returns run on the pure-Python integrator, loaded on first
    # use, so even the float command stays off numpy and scipy
    seen, _ = _child(
        f"""
from melcert import cli
before = numeric()
print(json.dumps([before, run("verify", "--spec", "{SPEC}"), numeric()]))
"""
    )
    assert seen == [[], 0, ["melcert.dop853"]]


VERIFY_JSON = f"""
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["verify", "--spec", "{SPEC}", "--format", "json"])
print(json.dumps([code, out.getvalue()]))
"""


def test_verify_runs_without_numpy_or_scipy():
    blocked, stderr = _child(
        """
sys.modules["scipy"] = sys.modules["numpy"] = None  # as if neither were installed
from melcert import cli
"""
        + VERIFY_JSON
    )
    unblocked, _ = _child("from melcert import cli\n" + VERIFY_JSON)
    assert blocked[0] == 0, stderr
    assert blocked == unblocked
    assert json.loads(blocked[1])["verdict"] == "match"


QUADRATURE = f"""
import pathlib
from melcert.cli import parse_spec
from melcert.flow import numeric_melnikov
spec = parse_spec(pathlib.Path("{SPEC}").read_text())
h_max = float(spec.family.h_max)
values = [numeric_melnikov(spec.family, spec.coeffs, f * h_max) for f in (0.1, 0.5, 0.9)]
print(json.dumps([values, numeric()]))
"""


def test_quadrature_runs_without_numpy():
    blocked, stderr = _child('sys.modules["numpy"] = None\n' + QUADRATURE)
    unblocked, _ = _child(QUADRATURE)
    # the blocked child lists numpy only for its None entry in sys.modules
    assert blocked[0] == unblocked[0], stderr
    assert unblocked[1] == []


PRESCRIBE = """
from fractions import Fraction
from melcert.melnikov import SystemFamily, assemble
from melcert.zeros import count_zeros, prescribe_zeros
fam = SystemFamily(Fraction(1, 2), Fraction(-1, 3), 1, 1)
coeffs = prescribe_zeros(fam, 2, [fam.h_max / 4, fam.h_max / 2])
report = count_zeros(assemble(fam, coeffs), n=2)
print(json.dumps([[report.count_lo, report.count_hi], repr(coeffs), numeric()]))
"""


def test_prescription_runs_without_numpy():
    blocked, stderr = _child('sys.modules["numpy"] = None\n' + PRESCRIBE)
    unblocked, _ = _child(PRESCRIBE)
    # the blocked child lists numpy only for its None entry in sys.modules
    assert blocked[:2] == unblocked[:2], stderr
    assert unblocked[0] == [2, 2]
    assert unblocked[2] == []


def test_public_api_resolves():
    # every exported name exists and is listed once; the root core's
    # intervals are RatInterval, so no second interval type is exported
    import melcert

    assert len(set(melcert.__all__)) == len(melcert.__all__)
    for name in melcert.__all__:
        assert getattr(melcert, name) is not None, name
    assert "Interval" not in melcert.__all__ and not hasattr(melcert, "Interval")
    # `assemble` is the one assembly: no second entry point is kept
    for name in ("assemble_melnikov", "assemble_confluent", "monomial_integral"):
        assert not hasattr(melcert, name) and not hasattr(melcert.melnikov, name), name


def test_oracles_share_no_assembly_internals():
    # a reference built on the assembly's own rows, lifts or sums, or on
    # the point kernels and sign tree it checks, would agree with them by
    # construction: tests/oracles.py neither imports such a name nor
    # reaches one as a module attribute
    tree = ast.parse((REPO / "tests" / "oracles.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert "_u_poly" in names  # the walk sees the melnikov import
    assert not names & ASSEMBLY_INTERNALS, sorted(names & ASSEMBLY_INTERNALS)


def test_assembly_internals_all_exist():
    # a name that no longer exists blocks nothing: every blocked name
    # resolves in melnikov or zeros, as a module or a form attribute
    from melcert import melnikov, zeros

    places = (melnikov, zeros, melnikov.MelnikovNormalForm)
    missing = [name for name in ASSEMBLY_INTERNALS if not any(hasattr(p, name) for p in places)]
    assert not missing, sorted(missing)
