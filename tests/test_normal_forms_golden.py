"""Assembled normal forms pinned to recorded exact polynomials.

Seeded two-radical, mirror and confluent draws with (m1, m2) up to (4, 3)
and n up to 6, so rows with a polynomial tail (k >= m1 + m2) are included,
plus the three instance files.  The golden file holds every coefficient of
rad1/rad2/tail (or pr) as an exact rational string.  To re-record it after
a change that is meant to alter the forms, run
``PYTHONPATH=src python tests/test_normal_forms_golden.py``.
"""

import json
import pathlib

import pytest

from melcert.cli import parse_spec
from melcert.melnikov import ConfluentNormalForm, SystemFamily, assemble
from melcert.sampling import draw_alpha, draw_coeffs, draw_family, rng_for

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "normal_forms.json"
INSTANCES = HERE.parent / "instances"
# the instance files pinned here; instances/limits_seed1.spec, an n = 32
# form for the zero count at the spec limits, is left out
NAMES = ("confluent_n3", "n2_basic", "two_zeros")
SEED = 313


def _draws():
    """(name, family, coeffs) for every seeded draw."""
    for k in range(14):
        rng = rng_for(SEED, k)
        fam = draw_family(rng, 1 + k % 4, 1 + (k // 4) % 3)
        yield f"two_radical_{k}", fam, draw_coeffs(rng, 2 + k % 3 if k < 12 else 6)
    for k in range(4):
        rng = rng_for(SEED, 100 + k)
        alpha = draw_alpha(rng)
        fam = SystemFamily(alpha, -alpha, 1 + k, 1 + k % 3)
        yield f"mirror_{k}", fam, draw_coeffs(rng, 2 + k % 3)
    for k in range(6):
        rng = rng_for(SEED, 200 + k)
        fam = draw_family(rng, 1 + k % 4, 1 + k % 3, confluent=True)
        yield f"confluent_{k}", fam, draw_coeffs(rng, 2 + k % 3)


def cases() -> dict:
    """name -> assembled normal form for the draws and the instance files."""
    out = {name: assemble(fam, co) for name, fam, co in _draws()}
    for name in NAMES:
        spec = parse_spec((INSTANCES / f"{name}.spec").read_text())
        out[name + "_spec"] = assemble(spec.family, spec.coeffs)
    return out


def _coeffs(p) -> list:
    return [str(c) for c in p.coeffs]


def summary(nf) -> dict:
    if isinstance(nf, ConfluentNormalForm):
        return {"m": nf.m, "pr": _coeffs(nf.pr)}
    return {
        "merged": nf.merged,
        "rad1": _coeffs(nf.rad1),
        "rad2": _coeffs(nf.rad2),
        "tail": _coeffs(nf.tail),
    }


CASES = cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_normal_form_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())
    assert summary(CASES[name]) == golden[name]


if __name__ == "__main__":
    table = {name: summary(nf) for name, nf in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
