"""Metamorphic properties of count_zeros under coefficient symmetries.

The zero set of the averaged integral is unchanged when every perturbation
coefficient is multiplied by the same nonzero rational, because the normal
form is linear in them.  So the certified counts must not move, and for a
positive factor neither may the isolating intervals.

On a mirror family (alpha2 == -alpha1) both radicals are the same, so the
certified counts must also agree between the merged single-squaring
eliminant and the generic two-squaring one, reached by building the same
parts while the family does not report itself a mirror pair.
"""

import pathlib
from fractions import Fraction as F
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from melcert.cli import parse_spec
from melcert.melnikov import MelnikovNormalForm, PerturbCoeffs, SystemFamily, assemble
from melcert.sampling import draw_alpha, draw_coeffs, draw_family, rng_for
from melcert.zeros import count_zeros

INSTANCES = pathlib.Path(__file__).resolve().parent.parent / "instances"
SETTINGS = settings(derandomize=True, max_examples=15, deadline=None)


def _drawn(seed: int):
    rng = rng_for(4711, seed)
    n = rng.randint(1, 3)
    confluent = rng.random() < 0.25
    family = draw_family(rng, rng.randint(1, 2), rng.randint(1, 2), confluent)
    return family, draw_coeffs(rng, n)


def _spec(name: str):
    spec = parse_spec((INSTANCES / name).read_text())
    return spec.family, spec.coeffs


def _scaled(coeffs: PerturbCoeffs, c: F) -> PerturbCoeffs:
    return PerturbCoeffs(
        n=coeffs.n,
        a={k: c * v for k, v in coeffs.a.items()},
        b={k: c * v for k, v in coeffs.b.items()},
        box=abs(c) * coeffs.box,
    )


def _counts(family, coeffs):
    report = count_zeros(assemble(family, coeffs), n=coeffs.n)
    assert report.decided and report.undecided == []
    return report, (report.status, report.count_lo, report.count_hi)


def _intervals(report):
    certified = [(z.interval.lo, z.interval.hi, z.sign_verified) for z in report.certified]
    return certified, [(u.lo, u.hi) for u in report.undecided]


instances = st.integers(0, 2**32).map(_drawn)
factors = st.fractions(min_value=F(1, 10**9), max_value=F(10**9), max_denominator=10**9)


@SETTINGS
@given(instance=instances, c=factors)
@example(instance=_spec("two_zeros.spec"), c=F(3, 7))
@example(instance=_spec("confluent_n3.spec"), c=F(10**6, 3))
def test_positive_scaling_keeps_counts_and_intervals(instance, c):
    family, coeffs = instance
    report, counts = _counts(family, coeffs)
    scaled, scaled_counts = _counts(family, _scaled(coeffs, c))
    assert scaled_counts == counts
    assert _intervals(scaled) == _intervals(report)


@SETTINGS
@given(instance=instances)
@example(instance=_spec("two_zeros.spec"))
@example(instance=_spec("confluent_n3.spec"))
def test_global_sign_flip_keeps_counts(instance):
    family, coeffs = instance
    assert _counts(family, _scaled(coeffs, F(-1)))[1] == _counts(family, coeffs)[1]


def _mirror(seed: int):
    rng = rng_for(5150, seed)
    alpha = draw_alpha(rng)
    family = SystemFamily(alpha, -alpha, rng.randint(1, 3), rng.randint(1, 3))
    return family, draw_coeffs(rng, rng.randint(1, 4))


@SETTINGS
@given(instance=st.integers(0, 2**32).map(_mirror))
@example(instance=_mirror(21))  # two certified zeros, m = (3, 3)
def test_mirror_merged_and_generic_elimination_agree(instance):
    family, coeffs = instance
    nf = assemble(family, coeffs)
    assert nf.merged
    merged = count_zeros(nf, n=coeffs.n)
    # a function-scoped fixture would not reset between Hypothesis examples
    with mock.patch.object(SystemFamily, "is_mirror", False):
        split = MelnikovNormalForm(family, nf.rad1, nf.rad2, nf.tail)
        assert not split.merged
        generic = count_zeros(split, n=coeffs.n)
    assert merged.decided and generic.decided
    assert generic.eliminant_degree > merged.eliminant_degree
    assert (generic.count_lo, generic.count_hi) == (merged.count_lo, merged.count_hi)
