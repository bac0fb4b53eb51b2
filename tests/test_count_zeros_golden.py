"""count_zeros pinned to recorded reports: counts, flags and exact endpoints.

Seeded two-radical draws (n = 2..4), mirror draws and confluent draws,
draws without a tail (m1 + m2 > n + 1, a mirror pair among them), a drawn
form with each of its three parts set to zero in turn, the two-zero
instance file, and two hand-built touching zeros that exercise the exact
rational hit and the exact sign at an irrational eliminant root.  The
golden file holds every endpoint as an exact rational string.  To
re-record it after a change that is meant to alter the reports, run
``PYTHONPATH=src python tests/test_count_zeros_golden.py``.
"""

import dataclasses
import json
import pathlib
from fractions import Fraction as F

import pytest

from melcert.cli import parse_spec
from melcert.melnikov import MelnikovNormalForm, SystemFamily, assemble
from melcert.polynomials import Polynomial
from melcert.sampling import draw_alpha, draw_coeffs, draw_family, rng_for
from melcert.zeros import count_zeros

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "count_zeros.json"
TWO_ZEROS = HERE.parent / "instances" / "two_zeros.spec"
SEED = 97
TOUCH = SystemFamily(F(1, 2), F(-1, 3), 1, 1)


def _draws():
    """(name, n, family, coeffs) for every seeded draw."""
    for k in range(20):
        rng = rng_for(SEED, k)
        n = 2 + k % 3
        fam = draw_family(rng, 1 + k % 2, 1 + (k // 2) % 2 if n < 4 else 1)
        yield f"two_radical_{k}", n, fam, draw_coeffs(rng, n)
    for k in range(2):
        rng = rng_for(SEED, 100 + k)
        alpha = draw_alpha(rng)
        fam = SystemFamily(alpha, -alpha, 1 + k, 1)
        yield f"mirror_{k}", 2 + k, fam, draw_coeffs(rng, 2 + k)
    for k in range(5):
        rng = rng_for(SEED, 200 + k)
        fam = draw_family(rng, 1 + k % 2, 1 + (k // 2) % 2, confluent=True)
        yield f"confluent_{k}", 2 + k % 2, fam, draw_coeffs(rng, 2 + k % 2)
    # m1 + m2 > n + 1: the tail vanishes; these draws, like the one whose
    # parts are zeroed in `cases`, have certified zeros
    for k, (n, m, index) in enumerate([(2, 2, 306), (4, 3, 302)]):
        rng = rng_for(SEED, index)
        yield f"no_tail_{k}", n, draw_family(rng, m, m), draw_coeffs(rng, n)
    rng = rng_for(SEED, 313)
    alpha = draw_alpha(rng)
    yield "no_tail_mirror", 2, SystemFamily(alpha, -alpha, 2, 2), draw_coeffs(rng, 2)


NO_TAIL = ["no_tail_0", "no_tail_1", "no_tail_mirror"]
PARTS = ["rad1", "rad2", "tail"]


def cases() -> dict:
    """name -> (normal form, n) for the draws, the two-zero instance and
    the touching zeros."""
    out = {name: (assemble(fam, co), n) for name, n, fam, co in _draws()}
    rng = rng_for(SEED, 329)
    base = assemble(draw_family(rng, 1, 2), draw_coeffs(rng, 3))
    for part in PARTS:
        out[f"{part}_zero"] = (dataclasses.replace(base, **{part: Polynomial.zero()}), 3)
    spec = parse_spec(TWO_ZEROS.read_text())
    out["two_zeros_spec"] = (assemble(spec.family, spec.coeffs), spec.coeffs.n)
    zero = Polynomial.zero()
    out["touch_rational"] = (
        MelnikovNormalForm(TOUCH, Polynomial.from_roots([F(1), F(1)]), zero, zero),
        None,
    )
    out["touch_irrational"] = (
        MelnikovNormalForm(TOUCH, Polynomial((-2, 0, 1)) ** 2, zero, zero),
        None,
    )
    return out


def summary(report) -> dict:
    return {
        "status": report.status,
        "count_lo": report.count_lo,
        "count_hi": report.count_hi,
        "multiplicity_suspected": report.multiplicity_suspected,
        "certified": [
            [str(z.interval.lo), str(z.interval.hi), z.sign_verified]
            for z in report.certified
        ],
        "undecided": [[str(iv.lo), str(iv.hi)] for iv in report.undecided],
    }


CASES = cases()


def test_degenerate_cases_have_their_vanishing_part():
    for name in NO_TAIL:
        assert CASES[name][0].tail.is_zero, name
    assert CASES["no_tail_mirror"][0].merged
    for part in PARTS:
        nf = CASES[f"{part}_zero"][0]
        assert [getattr(nf, p).is_zero for p in PARTS] == [p == part for p in PARTS]


@pytest.mark.parametrize("name", sorted(CASES))
def test_count_zeros_matches_golden(name):
    nf, n = CASES[name]
    golden = json.loads(GOLDEN.read_text())
    assert summary(count_zeros(nf, n=n)) == golden[name]


if __name__ == "__main__":
    table = {name: summary(count_zeros(nf, n=n)) for name, (nf, n) in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
