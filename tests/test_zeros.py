"""Radical elimination, certified counting, and zero prescription."""

import dataclasses
import hashlib
import importlib.util
import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from melcert.intervals import RatInterval
from melcert.melnikov import (
    ConfluentNormalForm,
    MelnikovNormalForm,
    PerturbCoeffs,
    SystemFamily,
    _point_rungs,
    assemble,
    evaluate_normal_form,
)
from melcert import polynomials, zeros
from melcert.polynomials import (
    DescartesIsolator,
    Polynomial,
    count_real_roots,
)
from melcert.sampling import draw_alpha, draw_coeffs, draw_family, rng_for
from melcert.zeros import (
    PrescribeError,
    count_zeros,
    eliminate_radicals,
    point_sign,
    prescribe_zeros,
    theorem_bound,
)

from oracles import (
    OracleSturm,
    descartes_bound,
    oracle_eliminant,
    oracle_point_sign,
    oracle_row_reduce,
    oracle_shrink_inside,
    oracle_yun,
    primitive_ints,
    _sign_sqrt,
)
from test_polynomials import near_end_cases

FAM = SystemFamily(F(1, 2), F(-1, 3), 1, 1)


def float_value(nf, h):
    fam = nf.family
    u1 = 1.0 - float(fam.alpha1) ** 2 * h
    u2 = 1.0 - float(fam.alpha2) ** 2 * h
    q = F(h).limit_denominator(10**12)
    return (
        float(nf.rad1.eval(q)) / u1 ** ((2 * fam.m1 - 1) / 2)
        + float(nf.rad2.eval(q)) / u2 ** ((2 * fam.m2 - 1) / 2)
        + float(nf.tail.eval(q))
    )


class TestTheoremBound:
    def test_reference_values(self):
        assert theorem_bound(SystemFamily(F(1), F(2), 1, 1), 3) == 9
        assert theorem_bound(SystemFamily(F(1), F(2), 1, 1), 2) == 5
        assert theorem_bound(SystemFamily(F(1), F(2), 1, 2), 2) == 9
        assert theorem_bound(SystemFamily(F(1), F(2), 2, 1), 4) == 13

    def test_confluent_bound_is_degree(self):
        fam = SystemFamily(F(1, 2), F(1, 2), 3, 1)
        assert theorem_bound(fam, 4) == 4
        assert theorem_bound(fam, 3) == 3
        assert theorem_bound(fam, 0) == 0


class TestEliminant:
    def test_single_radical_constant_has_no_annulus_root(self):
        # rad2 = tail = 0 and constant rad1: the function never vanishes
        nf = MelnikovNormalForm(FAM, Polynomial.constant(3), Polynomial.zero(), Polynomial.zero())
        elim = eliminate_radicals(nf)
        assert count_real_roots(elim, RatInterval(F(0), FAM.h_max)) == 0

    def test_degree_bound_from_double_squaring(self):
        for seed in range(25):
            rng = rng_for(12, seed)
            n = rng.randint(1, 4)
            m1, m2 = rng.randint(1, 3), rng.randint(1, 3)
            fam = draw_family(rng, m1, m2)
            nf = assemble(fam, draw_coeffs(rng, n))
            if nf.is_zero:
                continue
            s = (n + 1) // 2
            assert eliminate_radicals(nf).degree <= 4 * s + 4 * (m1 + m2) - 6

    def test_every_float_sign_change_cell_holds_a_root(self):
        rng = rng_for(13)
        fam = draw_family(rng, 1, 2)
        nf = assemble(fam, draw_coeffs(rng, 3))
        elim = eliminate_radicals(nf)
        h_max = float(fam.h_max)
        steps = 10**4
        prev = float_value(nf, h_max / steps)
        for k in range(2, steps):
            h = k * h_max / steps
            cur = float_value(nf, h)
            if prev * cur < 0:
                cell = RatInterval(
                    F((k - 1) * fam.h_max, steps), F(k * fam.h_max, steps)
                )
                assert count_real_roots(elim, cell) >= 1
            prev = cur

    @pytest.mark.parametrize("part", ["rad1", "rad2", "tail"])
    def test_single_part_form_eliminates_to_that_part(self, part):
        # a form with one nonzero part vanishes exactly where that part
        # does: the eliminant is the part itself, not its square times a
        # radicand, so its simple roots are not suspected multiple
        parts = dict.fromkeys(["rad1", "rad2", "tail"], Polynomial.zero())
        parts[part] = Polynomial.from_roots([F(1), F(2)])
        nf = MelnikovNormalForm(FAM, **parts)
        assert eliminate_radicals(nf) == parts[part]
        report = count_zeros(nf)
        assert report.count_lo == report.count_hi == 2
        assert not report.multiplicity_suspected
        assert all(z.sign_verified for z in report.certified)

    def test_zero_form_rejected(self):
        with pytest.raises(ValueError):
            eliminate_radicals(assemble(FAM, PerturbCoeffs(n=1)))

    def test_merged_family_uses_single_squaring(self):
        fam = SystemFamily(F(1, 2), F(-1, 2), 1, 1)
        rng = rng_for(14)
        nf = assemble(fam, draw_coeffs(rng, 2))
        assert nf.merged
        # single squaring keeps the degree at most 2*max(deg) + ~1, far
        # below the double-squaring bound of 10 for n=2, m1=m2=1
        assert eliminate_radicals(nf).degree <= 5


_ALPHAS = st.fractions(-3, 3, max_denominator=12).filter(bool)


@st.composite
def _eliminant_cases(draw):
    """Two-radical and mirror normal forms with random rational parts, any
    of which may be zero; alpha denominators are often coprime."""
    alpha1 = draw(_ALPHAS)
    mirror = draw(st.booleans())
    alpha2 = -alpha1 if mirror else draw(_ALPHAS.filter(lambda a: a != alpha1))
    fam = SystemFamily(alpha1, alpha2, draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    coeffs = st.lists(st.fractions(-4, 4, max_denominator=9), max_size=4)
    rad1, rad2, tail = (Polynomial(draw(coeffs)) for _ in range(3))
    return MelnikovNormalForm(fam, rad1, rad2, tail)


def test_integer_eliminant_equals_fraction_oracle():
    seen = dict.fromkeys(
        ["two_radical", "mirror_unequal_m", "coprime_denominators",
         "rad1_zero", "rad2_zero", "tail_zero"], 0)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_eliminant_cases())
    def check(nf):
        if nf.is_zero:
            return
        assert eliminate_radicals(nf) == oracle_eliminant(nf)
        fam = nf.family
        dens = fam.alpha1.denominator, fam.alpha2.denominator
        seen["two_radical"] += not nf.merged
        seen["mirror_unequal_m"] += nf.merged and fam.m1 != fam.m2
        seen["coprime_denominators"] += min(dens) > 1 and math.gcd(*dens) == 1
        for name in ("rad1", "rad2", "tail"):
            seen[name + "_zero"] += getattr(nf, name).is_zero

    check()
    assert min(seen.values()) >= 20, seen


def _rational_sqrt(q):
    num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
    return F(num, den) if F(num * num, den * den) == q else None


def _planted(fam, rad1, rad2, h0):
    """rad1/r1**(2m1-1) + rad2/r2**(2m2-1) + tail with the constant tail
    that makes it vanish at h0; each rad must vanish at h0 unless its
    radical is rational there."""
    total = F(0)
    for rad, alpha, m in ((rad1, fam.alpha1, fam.m1), (rad2, fam.alpha2, fam.m2)):
        if rad.eval(h0):
            total += rad.eval(h0) / _rational_sqrt(1 - alpha**2 * h0) ** (2 * m - 1)
    return MelnikovNormalForm(fam, rad1, rad2, Polynomial.constant(-total))


def _point_sign_cases():
    """(normal form, h): random draws at generic points, and exact zeros
    planted at perfect-square and irrational radicands, with points just
    beside them."""
    for seed in range(15):
        rng = rng_for(71, seed)
        fam = draw_family(rng, rng.randint(1, 2), rng.randint(1, 2))
        for f in (fam, SystemFamily(fam.alpha1, -fam.alpha1, fam.m1, fam.m2)):
            nf = assemble(f, draw_coeffs(rng, 2))
            yield from ((nf, f.h_max * num / 8) for num in (1, 3, 7))
    P, near = (lambda *c: Polynomial(c)), F(1, 2**40)
    # alphas (1, 1/2): r1 = 1/4 and r2 = 7/8 at 15/16, r1 = 1/2 at 3/4,
    # r2 = 15/16 at 31/64, neither rational at 1/3
    square = SystemFamily(F(1), F(1, 2), 1, 2)
    planted = [
        (_planted(square, P(1, 1), P(2, -1), F(15, 16)), F(15, 16)),
        (_planted(square, P(1, 1), P(F(-3, 4), 1), F(3, 4)), F(3, 4)),
        (_planted(square, P(F(-31, 64), 1), P(0, 0, 1), F(31, 64)), F(31, 64)),
        (_planted(square, P(F(-1, 3), 1), P(-1, 3), F(1, 3)), F(1, 3)),
        # r2 = 2*r1 at 27/8: 1/r1 - 2/r2 vanishes with both irrational
        (MelnikovNormalForm(FAM, P(1), P(-2), P()), F(27, 8)),
        # the touching zero (h - 1)**2 / r1
        (MelnikovNormalForm(FAM, P(1, -2, 1), P(), P()), F(1)),
    ]
    mirror = SystemFamily(F(1, 2), F(-1, 2), 1, 2)
    planted += [
        (_planted(mirror, P(-1, 1), P(2, 1), F(3)), F(3)),  # r1 = 1/2
        (MelnikovNormalForm(mirror, P(-1, 1), P(), P(-5, 5)), F(1)),
    ]
    for nf, h0 in planted:
        yield from ((nf, h0 + dh) for dh in (-near, 0, near))


class TestExactZeroDecision:
    def test_confluent_rational_zero(self):
        fam = SystemFamily(F(1, 2), F(1, 2), 1, 1)
        # pr(r) = (r - 1/2)(r - 1): zero at r=1/2 means h = 3/alpha^2/4 = 3
        pr = Polynomial.from_roots([F(1, 2), F(1)])
        report = count_zeros(ConfluentNormalForm(fam, pr))
        assert report.count_lo == report.count_hi == 1
        [zero] = report.certified
        assert zero.interval == RatInterval(F(3), F(3))
        assert zero.sign_verified

    def test_generic_no_false_zero(self):
        rng = rng_for(21)
        nf = assemble(FAM, draw_coeffs(rng, 2))
        for h in (F(1, 7), F(1, 2), F(3, 2), F(7, 2)):
            v = float_value(nf, float(h))
            if abs(v) > 1e-9:
                assert point_sign(nf, h) != 0

    def test_agrees_with_certified_sign_on_random_points(self):
        # point_sign against an independent enclosure of the value at
        # rising precision: it never contradicts a nonzero sign, settles
        # on it by 4096 bits, and keeps an exact zero inside
        exact_zeros = 0
        for nf, h in _point_sign_cases():
            s = point_sign(nf, h)
            exact_zeros += s == 0
            rung = _point_rungs(nf, h)
            encs = [RatInterval(F(*lo), F(*hi)) for lo, hi in (rung(64 << k) for k in range(7))]
            if s == 0:
                assert all(enc.lo <= 0 <= enc.hi for enc in encs)
            else:
                assert {enc.sign() for enc in encs} <= {s, None}
                assert encs[-1].sign() == s
        assert exact_zeros == 8

    def test_two_radical_balanced_pair(self):
        # at h = 27/8: u1 = 5/32 and u2 = 5/8, so r2 = 2*r1 exactly and
        # 1/r1 - 2/r2 vanishes there despite both radicals being irrational
        fam = SystemFamily(F(1, 2), F(-1, 3), 1, 1)
        nf = MelnikovNormalForm(
            fam, Polynomial.constant(1), Polynomial.constant(-2), Polynomial.zero()
        )
        h0 = F(27, 8)
        assert point_sign(nf, h0) == 0
        assert point_sign(nf, F(3)) != 0
        # the certified count sees this zero too
        report = count_zeros(nf)
        assert report.count_lo >= 1
        assert any(z.interval.contains(h0) for z in report.certified)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    kind=st.sampled_from(["two_radical", "mirror"]),
    n=st.integers(0, 4),
    t=st.fractions(0, 1, max_denominator=2**40).filter(lambda t: t < 1),
)
def test_tree_point_sign_matches_the_value_oracle(seed, kind, n, t):
    # the sign tree walked at h against value algebra on the parts at h
    rng = rng_for(73, seed)
    m = (rng.randint(1, 3), rng.randint(1, 3))
    fam = draw_family(rng, *m)
    if kind == "mirror":
        fam = SystemFamily(fam.alpha1, -fam.alpha1, *m)
    nf = assemble(fam, draw_coeffs(rng, n))
    h = fam.h_max * t
    assert point_sign(nf, h) == oracle_point_sign(nf, h)


class TestCountZeros:
    def test_constant_sign_instance(self):
        co = PerturbCoeffs(n=2, a={(0, 0): F(1), (2, 0): F(1, 4)}, b={(0, 1): F(1, 3)})
        report = count_zeros(assemble(FAM, co), n=2)
        assert report.status == "ok"
        assert report.count_lo == report.count_hi == 0

    def test_identically_zero_status(self):
        report = count_zeros(assemble(FAM, PerturbCoeffs(n=2)), n=2)
        assert report.status == "identically_zero"

    def test_prescribed_two_zeros(self):
        targets = [FAM.h_max / 4, FAM.h_max / 2]
        coeffs = prescribe_zeros(FAM, 2, targets)
        report = count_zeros(assemble(FAM, coeffs), n=2)
        assert report.count_lo == report.count_hi == 2
        for t in targets:
            assert any(z.interval.contains(t) for z in report.certified)

    def test_confluent_random_draws_respect_bound(self):
        for seed in range(30):
            rng = rng_for(33, seed)
            alpha = draw_alpha(rng)
            fam = SystemFamily(alpha, alpha, 1, 1)
            nf = assemble(fam, draw_coeffs(rng, 2))
            if nf.is_zero:
                continue
            report = count_zeros(nf, n=2)
            assert report.count_lo == report.count_hi
            assert report.count_hi <= 2

    def test_count_hi_bounded_by_eliminant_roots(self):
        for seed in range(20):
            rng = rng_for(44, seed)
            fam = draw_family(rng, rng.randint(1, 2), rng.randint(1, 2))
            nf = assemble(fam, draw_coeffs(rng, rng.randint(1, 3)))
            if nf.is_zero:
                continue
            report = count_zeros(nf)
            roots = count_real_roots(
                report.eliminant, RatInterval(F(0), fam.h_max)
            )
            assert report.count_hi <= roots

    def test_certified_intervals_strictly_inside(self):
        targets = [FAM.h_max / 4, FAM.h_max / 2]
        coeffs = prescribe_zeros(FAM, 2, targets)
        report = count_zeros(assemble(FAM, coeffs), n=2)
        for z in report.certified:
            assert 0 < z.interval.lo and z.interval.hi < FAM.h_max

    def test_certified_intervals_isolate_eliminant_roots(self):
        # every verified zero of the function is a root of the eliminant,
        # and its reported interval isolates exactly one such root
        targets = [FAM.h_max / 4, FAM.h_max / 2]
        coeffs = prescribe_zeros(FAM, 2, targets)
        report = count_zeros(assemble(FAM, coeffs), n=2)
        for z in report.certified:
            assert count_real_roots(report.eliminant, z.interval) == 1

    def test_merged_instance_counts(self):
        fam = SystemFamily(F(1, 2), F(-1, 2), 1, 1)
        rng = rng_for(50)
        nf = assemble(fam, draw_coeffs(rng, 2))
        report = count_zeros(nf, n=2)
        assert report.status == "ok"
        assert report.count_hi <= theorem_bound(fam, 2)
        # cross-check against a float scan
        h_max = float(fam.h_max)
        changes = 0
        prev = float_value(nf, h_max / 4000)
        for k in range(2, 4000):
            cur = float_value(nf, k * h_max / 4000)
            if prev * cur < 0:
                changes += 1
            prev = cur
        assert report.count_lo >= changes or report.count_hi >= changes

    @pytest.mark.parametrize(
        "roots, sign_verified",
        [
            ([F(1)], True),
            ([F(1)] * 3, True),
            ([F(1)] * 2, False),
            ([F(3, 2)] * 2, False),
        ],
        ids=["h-1", "(h-1)^3", "(h-1)^2", "(h-3/2)^2"],
    )
    def test_touching_zero_at_rational_point_is_decided_exactly(self, roots, sign_verified):
        # rad1 / r1 vanishes at the exact rational eliminant root h0, which
        # bisection hits; the form changes sign there iff the order is odd,
        # and an even order grazes zero: counted once, not sign-verified.
        # The eliminant is rad1 itself, not its square: a simple root is
        # not suspected multiple
        rad1 = Polynomial.from_roots(roots)
        nf = MelnikovNormalForm(FAM, rad1, Polynomial.zero(), Polynomial.zero())
        report = count_zeros(nf)
        assert report.count_lo == report.count_hi == 1
        assert report.multiplicity_suspected is (len(roots) > 1)
        [zero] = report.certified
        assert zero.interval == RatInterval(roots[0], roots[0])
        assert zero.sign_verified is sign_verified

    def test_touching_zero_at_irrational_point_is_decided_algebraically(self):
        # (h^2-2)^2 / r1 grazes zero at sqrt(2): no sign change and no
        # rational witness, but the form's exact sign at the eliminant
        # root is 0, so the zero is counted without a sign change
        rad1 = Polynomial((-2, 0, 1)) ** 2
        nf = MelnikovNormalForm(FAM, rad1, Polynomial.zero(), Polynomial.zero())
        report = count_zeros(nf)
        assert (report.count_lo, report.count_hi) == (1, 1)
        assert report.multiplicity_suspected
        assert report.undecided == []
        [zero] = report.certified
        assert zero.interval.lo**2 < 2 < zero.interval.hi**2
        assert not zero.sign_verified

    def test_confluent_form_without_its_root_at_r_one_is_refused(self):
        # the form vanishes at the center (r = 1); pr = r + 1 does not
        fam = SystemFamily(F(1, 2), F(1, 2), 1, 1)
        with pytest.raises(ValueError, match="root at r = 1"):
            count_zeros(ConfluentNormalForm(fam, Polynomial((1, 1))))

    def test_confluent_touching_zero_is_not_sign_verified(self):
        # pr(r) = (r - 1/3)**2 (r - 1): a double root at r = 1/3 where
        # pr(r)/r keeps its sign on both sides
        fam = SystemFamily(F(1, 2), F(1, 2), 1, 1)
        nf = ConfluentNormalForm(fam, Polynomial.from_roots([F(1, 3), F(1, 3), F(1)]))
        report = count_zeros(nf)
        assert (report.count_lo, report.count_hi) == (1, 1)
        assert report.multiplicity_suspected
        [zero] = report.certified
        assert not zero.sign_verified
        # h = (1 - r**2)/alpha**2 = 32/9 at r = 1/3
        assert zero.interval.contains(F(32, 9))

    def test_squared_factor_adds_one_touching_zero(self):
        # q**2 F with q = h**2 - 2 and F = s/r1**3 + t/r2 + u keeps its sign
        # across the multiple eliminant root sqrt(2); wherever F(sqrt(2))
        # != 0 it has exactly the zeros of F plus a touching one there
        fam = SystemFamily(F(1, 2), F(-1, 3), 2, 1)
        q2 = Polynomial((-2, 0, 1)) ** 2
        root2 = math.sqrt(2)
        touching = 0
        for k in range(12):
            rng = rng_for(2718, k)
            s, t, u = (F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
            value = s / (1 - root2 / 4) ** 1.5 + t / (1 - 2 * root2 / 9) ** 0.5 + u
            if abs(value) < 1e-6:
                continue
            parts = [Polynomial((x,)) for x in (s, t, u)]
            base = count_zeros(MelnikovNormalForm(fam, *parts))
            report = count_zeros(MelnikovNormalForm(fam, *(q2 * p for p in parts)))
            assert base.decided and report.decided and report.undecided == []
            assert report.count_lo == base.count_lo + 1
            [zero] = [z for z in report.certified if not z.sign_verified]
            assert zero.interval.lo**2 < 2 < zero.interval.hi**2
            touching += 1
        assert touching >= 10

    def test_touching_zero_of_a_mirror_pair_is_decided(self):
        # q**2 (1/(2 r1) - 1) on a mirror pair, merged by its family: a
        # touching zero at sqrt(2) and a simple one at h = 3, where r1 = 1/2
        fam = SystemFamily(F(1, 2), F(-1, 2), 1, 1)
        q2 = Polynomial((-2, 0, 1)) ** 2
        nf = MelnikovNormalForm(fam, q2.scale(F(1, 2)), Polynomial.zero(), -q2)
        assert nf.merged
        report = count_zeros(nf)
        assert (report.count_lo, report.count_hi) == (2, 2)
        touching, simple = report.certified
        assert touching.interval.lo**2 < 2 < touching.interval.hi**2
        assert not touching.sign_verified
        assert simple.interval.contains(3) and simple.sign_verified

    def test_exact_sign_at_multiple_root_artifacts_matches_the_ends(self, monkeypatch):
        # planted multiple eliminant roots across which the form keeps its
        # sign: with rad2 = 0, tail = 2*s*e and rad1 = e*(r1**2 + s**2), the
        # form is e*(r1 + s)**2 and its conjugate e*(r1 - s)**2 touches 0
        # where r1 = s, so the eliminant is (r1**2 - s**2)**2 in h.  The
        # exact sign at that root is the nonzero sign e at both ends, on
        # the mirror pair's tree and on a two-radical family's, and no
        # zero is counted
        calls = []
        real = zeros._root_sign

        def recording(nf, core, iv):
            calls.append((real(nf, core, iv), point_sign(nf, iv.lo), point_sign(nf, iv.hi)))
            return calls[-1][0]

        monkeypatch.setattr(zeros, "_root_sign", recording)
        cases = [(F(1, 2), 1), (F(3, 4), -1), (F(1, 3), 1)]  # r1 = s at h = 3, 7/4, 32/9
        for fam in (SystemFamily(F(1, 2), F(-1, 2), 1, 1), FAM):
            for s, e in cases:
                rad1 = Polynomial((1 + s * s, -fam.alpha1**2)).scale(e)
                tail = Polynomial.constant(2 * s * e)
                nf = MelnikovNormalForm(fam, rad1, Polynomial.zero(), tail)
                report = count_zeros(nf)
                assert report.decided and report.count_lo == 0
                assert report.multiplicity_suspected
        assert len(calls) == 2 * len(cases)
        assert all(s == lo == hi != 0 for s, lo, hi in calls)
        assert {s for s, _lo, _hi in calls} == {1, -1}

    def test_sign_at_an_algebraic_root_reads_the_polynomial_itself(self):
        # at sqrt(2), a root of g isolated in (5/4, 3/2)
        g = Polynomial((-2, 0, 1)) * Polynomial((-1, 1))
        core = DescartesIsolator(primitive_ints(g))
        [iv] = core.isolate(F(5, 4), F(3, 2))

        def sign(s):
            return core.sign_at_root(iv, s)

        assert sign([-2, 0, 1]) == sign([]) == 0
        assert sign([-1, 1]) == 1
        # (h - 3)**2 is positive where its squarefree part h - 3 is not
        assert sign([9, -6, 1]) == 1
        # 70 h - 99 has its root 99/70 inside the interval, 7e-5 past sqrt(2)
        assert sign([-99, 70]) == -1
        assert sign([-7, 5]) == 1

    def test_sign_at_root_trims_zero_top_entries(self):
        # the sign tree's sums can cancel their top coefficients, and a
        # node's y can vanish: each s reads as the polynomial it is, and its
        # sign at sqrt(2) is that of x + y*sqrt(2), s = x + y*h mod h**2 - 2
        g = Polynomial((-2, 0, 1)) * Polynomial((-1, 1))
        core = DescartesIsolator(primitive_ints(g))
        [iv] = core.isolate(F(5, 4), F(3, 2))
        cases = [[-1, 1, 0, 0], [6, -3, 0], [9, -6, 1, 0, 0], [-4, 0, 2, 0], [-7, 5, 0], [0, 0, 0]]
        for s in cases + [[]]:
            x, y = [*(Polynomial(s) % Polynomial((-2, 0, 1))).coeffs, 0, 0][:2]
            kept = list(s)
            assert core.sign_at_root(iv, s) == _sign_sqrt(x, y, 2), s
            assert s == kept  # the tree's own lists stay as they are
        assert core.sign_at_root(iv, [0, 0, 0]) == 0

    def test_sign_at_root_next_to_a_root_of_s(self):
        # s with a root within 10**-k of h*, k = 1..40, simple or double,
        # and s that vanishes at h*.  At the irrational h* = sqrt(2) the
        # sign is that of x + y*sqrt(2), s = x + y*h mod h**2 - 2; at the
        # rational h* = 1/3, which the first halving hits, it is s(1/3)
        q = Polynomial((-2, 0, 1))
        g = q * Polynomial((-1, 3))
        core = DescartesIsolator(primitive_ints(g))
        [sqrt2] = core.isolate(F(5, 4), F(3, 2))
        third = core.widen(F(1, 3), F(1, 8))

        def oracle_sqrt2(s):
            return _sign_sqrt(*[*(s % q).coeffs, 0, 0][:2], 2)

        def oracle_third(s):
            v = s.eval(F(1, 3))
            return (v > 0) - (v < 0)

        signs = set()
        for k in range(1, 41):
            near, ten = math.isqrt(2 * 10 ** (2 * k)), 10**k  # near: ten*sqrt(2) rounded down
            cases = [
                (sqrt2, oracle_sqrt2, q, [(near, ten), (near + 1, ten)]),
                (third, oracle_third, Polynomial((-1, 3)), [(ten - 1, 3 * ten), (ten + 1, 3 * ten)]),
            ]
            for iv, oracle, vanishing, roots in cases:
                for num, den in roots:
                    t = Polynomial((-num, den))
                    for s in (t, t * Polynomial((3, 1)), t * t, -t * t * vanishing):
                        ints = [c.numerator for c in s.coeffs]
                        got = core.sign_at_root(iv, ints)
                        assert got == oracle(s), (k, num, den, ints)
                        signs.add(got)
        assert signs == {-1, 0, 1}

    @staticmethod
    def _artifact_forms():
        """The six forms of the artifact test above: e*(r1 + s)**2 on a
        mirror pair's family and on FAM, each with a multiple eliminant
        root where r1 = s and the nonzero sign e there."""
        for fam in (SystemFamily(F(1, 2), F(-1, 2), 1, 1), FAM):
            for s, e in [(F(1, 2), 1), (F(3, 4), -1), (F(1, 3), 1)]:
                rad1 = Polynomial((1 + s * s, -fam.alpha1**2)).scale(e)
                yield MelnikovNormalForm(fam, rad1, Polynomial.zero(), Polynomial.constant(2 * s * e))

    def test_root_sign_needs_no_second_squarefree_decision(self, monkeypatch):
        # one squarefree decision per count, the eliminant's, and no root
        # count: each sign-tree polynomial's sign at the multiple root is
        # read from its Bernstein coefficients on the root's cell
        calls = {"squarefree": 0, "count": 0}
        real_factors, real_count = polynomials.squarefree_factors, DescartesIsolator.count

        def counting_factors(ic):
            calls["squarefree"] += 1
            return real_factors(ic)

        def counting_count(core, lo, hi):
            calls["count"] += 1
            return real_count(core, lo, hi)

        monkeypatch.setattr(polynomials, "squarefree_factors", counting_factors)
        monkeypatch.setattr(zeros, "squarefree_factors", counting_factors)
        monkeypatch.setattr(DescartesIsolator, "count", counting_count)
        for nf in self._artifact_forms():
            calls.update(squarefree=0, count=0)
            report = count_zeros(nf)
            assert report.multiplicity_suspected and report.count_lo == 0
            assert calls == {"squarefree": 1, "count": 0}

    @staticmethod
    def _count_root_core_calls(monkeypatch):
        """Record the prime of every gcd mod q, every gcd over Z (one per
        squarefree decision and per root sign, looked up in `polynomials`)
        and every root isolator."""
        calls = {"primes": [], "gcd": 0, "isolators": []}
        real_mod, real_gcd = polynomials._gcd_mod, polynomials._int_gcd
        real_init = DescartesIsolator.__init__

        def counting_mod(a, b, q):
            calls["primes"].append(q)
            return real_mod(a, b, q)

        def counting_gcd(a, b):
            calls["gcd"] += 1
            return real_gcd(a, b)

        def counting_init(core, p):
            calls["isolators"].append(p)
            real_init(core, p)

        monkeypatch.setattr(polynomials, "_gcd_mod", counting_mod)
        monkeypatch.setattr(polynomials, "_int_gcd", counting_gcd)
        monkeypatch.setattr(DescartesIsolator, "__init__", counting_init)
        return calls

    def test_one_clearing_per_count(self, monkeypatch):
        # a squarefree two-radical form: the eliminant's content gcd is the
        # only one, and its Polynomial, kept for the report, the only one
        # built; the root core takes its numerators as they are
        fam, coeffs = _pool("high_degree")[0]
        nf = assemble(fam, coeffs)
        assert nf.sign_tree  # the form's own clearing, before the count
        calls = {"content_free": 0, "polynomials": 0}
        real_free, real_init = polynomials._content_free, Polynomial.__init__

        def counting_free(ic):
            calls["content_free"] += 1
            return real_free(ic)

        def counting_init(p, coeffs=()):
            calls["polynomials"] += 1
            real_init(p, coeffs)

        monkeypatch.setattr(polynomials, "_content_free", counting_free)
        monkeypatch.setattr(zeros, "_content_free", counting_free)
        monkeypatch.setattr(Polynomial, "__init__", counting_init)
        report = count_zeros(nf)
        assert report.status == "ok" and not report.multiplicity_suspected
        assert calls == {"content_free": 1, "polynomials": 1}

    @staticmethod
    def _squarefree_eliminant():
        nf = assemble(FAM, draw_coeffs(rng_for(88, 5), 2))
        reduced = Polynomial(eliminate_radicals(nf).coeffs[1:])  # one forced root at h = 0
        assert reduced.eval(0) != 0
        assert [m for _f, m in oracle_yun(reduced)] == [1]
        return nf, reduced

    def test_no_gcd_and_one_certificate_per_squarefree_eliminant(self, monkeypatch):
        # one gcd(p, p') mod the first prime, constant, certifies the
        # eliminant squarefree: no second prime, no CRT and no gcd for the
        # multiple roots; isolation, refinement and multiplicities all use
        # one isolator built on the eliminant itself
        nf, reduced = self._squarefree_eliminant()
        calls = self._count_root_core_calls(monkeypatch)
        report = count_zeros(nf)
        assert report.count_lo == report.count_hi == 2
        assert not report.multiplicity_suspected
        assert calls["primes"] == [polynomials._PRIMES[0]]
        assert calls["gcd"] == 1
        assert calls["isolators"] == [primitive_ints(reduced)]

    def test_tailless_forms_get_a_squarefree_eliminant(self, monkeypatch):
        # m1 + m2 > n + 1 leaves no tail (C = 0), so the last node's y is 0
        # and the eliminant is its x, not that squared: one certificate, one
        # prime, per form and no further gcd
        forms = []
        for k in range(5):
            rng = rng_for(1212, k)
            forms.append(assemble(draw_family(rng, 6, 6), draw_coeffs(rng, 8)))
        assert all(nf.tail.is_zero and not nf.is_zero for nf in forms)
        calls = self._count_root_core_calls(monkeypatch)
        for nf in forms:
            assert not count_zeros(nf, n=8).multiplicity_suspected
        assert calls["primes"] == [polynomials._PRIMES[0]] * 5
        assert calls["gcd"] == 5

    def test_certificate_moves_past_a_prime_dividing_the_leading_coefficient(self, monkeypatch):
        # a factor q1*h + 1 puts the first prime into lc(p) and its root
        # -1/q1 outside the annulus: the second prime certifies, and the
        # candidates are those of the eliminant alone
        _nf, reduced = self._squarefree_eliminant()
        q1 = polynomials._PRIMES[0]
        scaled = reduced * Polynomial((1, q1))
        expected = zeros._candidates(primitive_ints(reduced), F(0), FAM.h_max)[1]
        calls = self._count_root_core_calls(monkeypatch)
        assert zeros._candidates(primitive_ints(scaled), F(0), FAM.h_max)[1] == expected
        assert len(expected) == 3  # two zeros and one squaring artifact
        assert calls["primes"] == [polynomials._PRIMES[1]]
        assert calls["gcd"] == 1

    @pytest.mark.parametrize(
        "rad1",
        [Polynomial.from_roots([F(1), F(1)]), Polynomial((-2, 0, 1)) ** 2],
        ids=["touch_rational", "touch_irrational"],
    )
    def test_multiple_roots_run_no_yun_decomposition(self, monkeypatch, rad1):
        # a touching zero makes the eliminant non-squarefree: gcd(p, p')
        # is not constant, and one more gcd gives the polynomial of the
        # multiple roots; the squarefree part gets the one isolator that
        # is kept, with no decomposition by multiplicity
        nf = MelnikovNormalForm(FAM, rad1, Polynomial.zero(), Polynomial.zero())
        elim = eliminate_radicals(nf).coeffs
        reduced = Polynomial(elim[next(k for k, c in enumerate(elim) if c) :])
        calls = self._count_root_core_calls(monkeypatch)
        report = count_zeros(nf)
        # gcd(p, p'), gcd(p/g, g) and the root sign's gcd, each confirmed
        # by a second prime before its trial division
        assert calls["gcd"] == 3
        assert calls["primes"] == polynomials._PRIMES[:2] * 3
        eliminant, core_ints = calls["isolators"][:2]
        assert eliminant == primitive_ints(reduced) != core_ints
        assert [m for _f, m in oracle_yun(Polynomial(core_ints))] == [1]
        assert report.multiplicity_suspected
        assert (report.count_lo, report.count_hi, report.undecided) == (1, 1, [])
        [zero] = report.certified
        assert not zero.sign_verified

    def test_multiple_root_sign_change_matches_yun_multiplicity(self):
        # planted multiple roots: dyadic exact hits (1, 3/2), irrational
        # ones (sqrt 2) and pairs 2**-40 apart; on every candidate interval
        # the multiple-root polynomial changes sign iff the one Yun factor
        # of the oracle with a root there has multiplicity > 1
        P, near = (lambda *c: Polynomial(c)), F(1, 2**40)
        pool = [
            P(-1, 1),
            P(F(-3, 2), 1),
            P(-2, 0, 1),
            P(F(-1, 3), 1),
            P(-F(1, 3) - near, 1),
            P(F(-5, 7), 1),
            P(F(-5, 7) + near, 1),
            P(1, 1, 1),  # no real root
        ]
        seen = {True: 0, False: 0}
        for k in range(40):
            rng = rng_for(1840, k)
            p = Polynomial((rng.randint(1, 9),))
            for f in rng.sample(pool, rng.randint(1, 5)):
                p = p * f ** rng.randint(1, 3)
            core, found = zeros._candidates(primitive_ints(p), F(-3), F(3))
            assert len(found) == core.count(F(-3), F(3)) - (core.sign_at(F(3)) == 0)
            yun = oracle_yun(p)
            for iv, multiple in found:
                assert F(-3) < iv.lo < iv.hi < F(3)
                [mult] = [m for f, m in yun if f.eval(iv.lo) * f.eval(iv.hi) < 0]
                assert multiple is (mult > 1)
                seen[multiple] += 1
        assert min(seen.values()) >= 20

    def test_eliminant_root_at_annulus_edge(self):
        # rad1 vanishes at h_max = 4, so the eliminant does too; the zero
        # inside the annulus sits in the isolating interval that ends at
        # that root and must still be found
        rad1 = Polynomial.from_roots([FAM.h_max])
        nf = MelnikovNormalForm(FAM, rad1, Polynomial.constant(1), Polynomial.zero())
        assert eliminate_radicals(nf).eval(FAM.h_max) == 0
        report = count_zeros(nf)
        assert report.count_lo == report.count_hi == 1
        iv = report.certified[0].interval
        assert 0 < iv.lo < iv.hi < FAM.h_max
        assert float_value(nf, float(iv.lo)) * float_value(nf, float(iv.hi)) < 0

    def test_confluent_descartes_sparsity(self):
        # the cleared polynomial keeps at most 2s+1 terms after dividing
        # out r=1, so its positive-root bound is at most 2s
        for seed in range(25):
            rng = rng_for(66, seed)
            s = rng.randint(1, 2)
            alpha = draw_alpha(rng)
            fam = SystemFamily(alpha, alpha, rng.randint(1, 2), 1)
            nf = assemble(fam, draw_coeffs(rng, 2 * s))
            if nf.is_zero:
                continue
            quotient = nf.pr.exact_div(Polynomial((1, -1)))
            assert descartes_bound(quotient) <= 2 * s


# drawn alpha at the spec limits, n = 32 and m = (16, 16): seed -> the
# certified intervals with sign_verified; seed 1, whose Descartes tree is
# the deepest, also runs as a CI step on instances/limits_seed1.spec
LIMITS = {
    0: [("202555/1552516", "50639/388129", True)],
    1: [],
    2: [],
    3: [("41387/651605", "206936/3258025", True)],
}


@pytest.mark.parametrize("seed", sorted(LIMITS))
def test_count_zeros_at_the_spec_limits(seed):
    # degree-156 eliminants, the deepest trees the root core meets: the
    # counts and exact interval ends are pinned
    rng = rng_for(seed, 32)
    nf = assemble(draw_family(rng, 16, 16), draw_coeffs(rng, 32))
    report = count_zeros(nf, n=32)
    count = len(LIMITS[seed])
    assert (report.status, report.count_lo, report.count_hi) == ("ok", count, count)
    assert report.eliminant_degree == 156
    got = [(str(z.interval.lo), str(z.interval.hi), z.sign_verified) for z in report.certified]
    assert got == LIMITS[seed]


def test_tiny_coefficient_at_the_window_end():
    # b_0_1 = 10**-20000 puts an eliminant root about 10**-20000 above
    # h = 0, some 66000 bisection levels below the window; counted in a
    # subprocess under a time limit, so that a walk that pays per level
    # fails here instead of stalling the suite
    here = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(here.parent / "src"), env.get("PYTHONPATH")])
    )
    code = (
        "from fractions import Fraction as F\n"
        "from melcert.melnikov import PerturbCoeffs, SystemFamily, assemble\n"
        "from melcert.zeros import count_zeros\n"
        "coeffs = PerturbCoeffs(n=2, a={(0, 0): F(1)}, b={(0, 1): F(1, 10**20000)})\n"
        "r = count_zeros(assemble(SystemFamily(F(1, 2), F(-1, 3), 1, 1), coeffs), n=2)\n"
        "print((r.status, r.count_lo, r.count_hi))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=30
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "('ok', 0, 0)"


def test_shrink_inside_next_to_the_window_ends():
    # every isolating interval of the near-end roots, and the whole window
    hits = 0
    for p, lo, hi, _depth in near_end_cases():
        core, oracle = DescartesIsolator(primitive_ints(p)), OracleSturm(p)
        for iv in zeros._isolate_open(core, lo, hi) + [RatInterval(lo, hi)]:
            got = core.inside(iv, lo, hi)
            assert got == oracle_shrink_inside(oracle, iv, lo, hi)
            assert lo < got.lo < got.hi < hi
            hits += core.sign_at(got.mid) == 0
    assert hits >= 3


def _pool(name):
    """The sweep or high_degree instance pool of perfbench/workloads.py."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.make(name, None, None).pool()


@pytest.mark.parametrize("name, count", [("sweep", 185), ("high_degree", 13)])
def test_shrink_inside_on_the_benchmark_pools(name, count):
    # every candidate of count_zeros on the pool's reduced eliminants (97
    # and 4 of them touch 0 or h_max)
    candidates = 0
    for fam, coeffs in _pool(name):
        elim = eliminate_radicals(assemble(fam, coeffs))
        first = next(k for k, c in enumerate(elim.coeffs) if c != 0)
        reduced = Polynomial(elim.coeffs[first:])
        core, _multiple = polynomials.squarefree_factors(primitive_ints(reduced))
        oracle = OracleSturm(reduced)
        for iv in zeros._isolate_open(core, F(0), fam.h_max):
            got = core.inside(iv, F(0), fam.h_max)
            assert got == oracle_shrink_inside(oracle, iv, F(0), fam.h_max)
            candidates += 1
    assert candidates == count


def _planted_touching(seed, n):
    """Drawn alpha, seed, at n and m = (n/2, n/2), with rad1, rad2 and tail
    each times (h - h_max/3)**2: a touching zero at h_max/3, so the
    eliminant is not squarefree."""
    rng = rng_for(seed, n)
    nf = assemble(draw_family(rng, n // 2, n // 2), draw_coeffs(rng, n))
    q2 = Polynomial((-nf.family.h_max / 3, 1)) ** 2
    return MelnikovNormalForm(nf.family, q2 * nf.rad1, q2 * nf.rad2, q2 * nf.tail)


# sha256 of the reprs, every field, of count_zeros on the planted forms at
# n = 4, 6, 8 and 12, recorded when gcd(p, p') ran an integer remainder
# sequence (0.03 to 6.7 s per form)
PLANTED_DIGEST = "454f51dee95ae6eb8faa1294c96acd592e33b5a43f9dd5bc3b912d7f663392d9"


def test_planted_touching_zeros_keep_their_reports():
    reports = [repr(count_zeros(_planted_touching(0, n), n=n)) for n in (4, 6, 8, 12)]
    assert hashlib.sha256("\n".join(reports).encode()).hexdigest() == PLANTED_DIGEST


def test_planted_touching_zero_at_the_spec_limits():
    # n = 32, m = (16, 16): gcd(p, p') of a reduced eliminant of degree 163
    # with 3400-bit coefficients, which an integer remainder sequence did
    # not finish in 150 s; counted in a subprocess under a time limit, so
    # that a runaway gcd fails here instead of stalling the suite
    here = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(here.parent / "src"), str(here), env.get("PYTHONPATH")])
    )
    code = (
        "from test_zeros import _planted_touching, count_zeros\n"
        "r = count_zeros(_planted_touching(0, 32), n=32)\n"
        "print(r.count_lo, r.count_hi, [z.sign_verified for z in r.certified])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "2 2 [True, False]"


def test_planted_touching_zero_takes_few_primes(monkeypatch):
    # gcd(p, p') at n = 32 has degree 7 and 142-bit coefficients under an l
    # of 3155 bits: rebuilt as rationals, the count's five gcds take 23
    # images mod a prime in all, where scaling each image by l took 106
    primes = []
    real = polynomials._gcd_mod
    monkeypatch.setattr(polynomials, "_gcd_mod", lambda a, b, q: primes.append(q) or real(a, b, q))
    r = count_zeros(_planted_touching(0, 32), n=32)
    assert (r.count_lo, r.count_hi, [z.sign_verified for z in r.certified]) == (2, 2, [True, False])
    assert len(primes) <= 30


def _count_view_builds(monkeypatch, cls) -> list:
    """Record every build of the `ints` view of a form class."""
    prop = cls.__dict__["ints"]
    build, builds = prop.func, []
    monkeypatch.setattr(prop, "func", lambda nf: builds.append(nf) or build(nf))
    return builds


# the two_zeros instance: two simple zeros, at h = 1 and h = 2
TWO_ZEROS = PerturbCoeffs(
    n=2,
    a={
        (0, 0): F(-1),
        (0, 2): F(-24226198282601, 119925997380752),
        (1, 0): F(-72955774489478, 106593650090385),
        (2, 0): F(142131818482208, 184935196651963),
    },
    b={(0, 1): F(163931328830747, 188165032490220), (1, 1): F(-24226198282601, 119925997380752)},
)


class TestIntView:
    """Each form is cleared to ints once, into the view that it keeps."""

    def test_one_build_for_a_whole_count(self, monkeypatch):
        nf = assemble(FAM, TWO_ZEROS)
        builds = _count_view_builds(monkeypatch, MelnikovNormalForm)
        signs = []
        sign = zeros.point_sign
        monkeypatch.setattr(zeros, "point_sign", lambda *a: signs.append(a) or sign(*a))
        report = count_zeros(nf, n=2)
        assert report.count_lo == report.count_hi == 2
        assert signs  # the exact signs ran, on the same view
        assert builds == [nf]

    @pytest.mark.parametrize("family", [FAM, SystemFamily(F(1, 2), F(1, 2), 2, 1)])
    def test_one_build_across_evaluations(self, monkeypatch, family):
        nf = assemble(family, draw_coeffs(rng_for(61), 3))
        builds = _count_view_builds(monkeypatch, type(nf))
        for k in range(1, 11):
            evaluate_normal_form(nf, family.h_max * k / 11, precision=20)
        assert builds == [nf]

    def test_replaced_form_gets_a_fresh_view(self, monkeypatch):
        mirror = SystemFamily(F(1, 2), F(-1, 2), 1, 2)
        nf = assemble(mirror, draw_coeffs(rng_for(62), 2))
        assert nf.merged and nf.ints.b == []
        builds = _count_view_builds(monkeypatch, MelnikovNormalForm)
        flipped = dataclasses.replace(nf, tail=-nf.tail)
        assert flipped.ints is not nf.ints
        assert flipped.ints.den == nf.ints.den
        assert flipped.ints.c == [-x for x in nf.ints.c] != []
        assert len(builds) == 1 and builds[0] is flipped


def _digest(coeffs):
    """sha256 of a prescription's exact a and b items, in key order."""
    items = repr((sorted(coeffs.a.items()), sorted(coeffs.b.items())))
    return hashlib.sha256(items.encode()).hexdigest()


class TestPrescribe:
    def test_empty_targets_yield_zero_free_instance(self):
        coeffs = prescribe_zeros(FAM, 2, [])
        report = count_zeros(assemble(FAM, coeffs), n=2)
        assert report.count_lo == report.count_hi == 0

    def test_single_target(self):
        coeffs = prescribe_zeros(FAM, 2, [FAM.h_max / 2])
        report = count_zeros(assemble(FAM, coeffs), n=2)
        assert report.count_lo == report.count_hi == 1
        assert report.certified[0].interval.contains(FAM.h_max / 2)

    def test_coefficients_stay_inside_box(self):
        coeffs = prescribe_zeros(FAM, 2, [FAM.h_max / 4, FAM.h_max / 2])
        for grid in (coeffs.a, coeffs.b):
            for v in grid.values():
                assert abs(v) <= coeffs.box
        # the exact coefficients are pinned: the same null vector at the
        # same rung
        assert _digest(coeffs) == "1f306f1605b0996e2dcb5b298b8f0ad9bc43707ee2e58addc180d05763947b07"

    def test_rejects_target_outside_annulus(self):
        with pytest.raises(ValueError):
            prescribe_zeros(FAM, 2, [FAM.h_max * 2])

    def test_rejects_duplicate_targets(self):
        with pytest.raises(ValueError):
            prescribe_zeros(FAM, 2, [F(1), F(1)])

    def test_rejects_too_many_targets(self):
        with pytest.raises(ValueError):
            prescribe_zeros(FAM, 2, [F(k, 2) for k in range(1, 8)])

    def test_targets_past_the_rank_fail_before_any_evaluation(self, monkeypatch):
        # n=2, m=(1,1) has rank 4, below its theorem bound 5, so four
        # targets are no ValueError; no target value is ever computed
        def unreachable(*args):
            raise AssertionError("evaluated a basis form past the rank")

        monkeypatch.setattr(zeros, "_point_rungs", unreachable)
        with pytest.raises(PrescribeError, match="rank 4: .* at most 3 zeros"):
            prescribe_zeros(FAM, 2, [FAM.h_max * i / 5 for i in range(1, 5)])

    @pytest.mark.parametrize(
        "m, digest",
        [
            ((2, 2), "06810bde11ad05555675fbff8e9026a49a927ed720e335880a1f293b645aead9"),
            ((1, 1), "6fbec9e4b08c8d8f9033e36ee5ed4ab9634ae0d002aa29c74efb542ce090f5c8"),
        ],
        ids=["m0", "m1"],
    )
    def test_rank_limit_at_degree_eight(self, m, digest):
        # rank 13 at n=8, so 12 targets is the most a linear prescription
        # can place; m=(1,1) needs the second rung of the bits ladder
        fam = SystemFamily(F(1, 2), F(-1, 3), *m)
        targets = [fam.h_max * i / 13 for i in range(1, 13)]
        coeffs = prescribe_zeros(fam, 8, targets)
        assert _digest(coeffs) == digest
        report = count_zeros(assemble(fam, coeffs), n=8)
        assert [report.count_lo, report.count_hi] == [12, 12]
        for t in targets:
            assert any(z.interval.contains(t) for z in report.certified)


@pytest.mark.parametrize("alpha", [(F(1, 2), F(-1, 3)), (F(2, 3), F(1, 5)), (F(3, 4), F(-1, 7))])
@pytest.mark.parametrize("m", [(1, 1), (2, 1), (3, 2)])
def test_basis_rank_law(alpha, m):
    # the Melnikov functions of degree n span floor(3(n+1)/2) dimensions,
    # whatever m and the (non-mirror) alphas
    fam = SystemFamily(*alpha, *m)
    for n in range(1, 8):
        basis = zeros._independent(zeros._basis_forms(fam, zeros._effective_slots(n)))
        assert len(basis) == 3 * (n + 1) // 2, n


def test_rank_law_at_the_spec_limits():
    # n = 32, m = (16, 16): 305 basis forms, one per integrand monomial, of
    # rank 49 = 3*33//2 (about 4 s on 2 vCPUs); in a subprocess under a
    # time limit, so that a runaway elimination fails here instead of
    # stalling the suite
    here = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(here.parent / "src"), env.get("PYTHONPATH")])
    )
    code = (
        "from fractions import Fraction as F\n"
        "from melcert.melnikov import SystemFamily\n"
        "from melcert import zeros\n"
        "slots = zeros._effective_slots(32)\n"
        "forms = zeros._basis_forms(SystemFamily(F(1, 2), F(-1, 3), 16, 16), slots)\n"
        "print(len(slots), len(zeros._independent(forms)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "305 49"


def _assert_elimination_matches_oracle(rows):
    reduced, pivots = zeros._row_reduce(rows)
    oracle_rows, oracle_pivots = oracle_row_reduce(rows)
    assert pivots == oracle_pivots
    # each int row is a positive multiple of the echelon row
    for row, p, oracle_row in zip(reduced, pivots, oracle_rows):
        assert row[p] > 0 and [F(x, row[p]) for x in row] == oracle_row
    width = len(rows[0]) if rows else 0
    assert list(zeros._null_vectors(reduced, pivots, width)) == list(
        zeros._null_vectors(oracle_rows, oracle_pivots, width)
    )


@pytest.mark.parametrize("alpha", [(F(1, 2), F(-1, 3)), (F(2, 3), F(1, 5)), (F(3, 4), F(-1, 7))])
@pytest.mark.parametrize("m", [(1, 1), (2, 1), (3, 2)])
def test_int_elimination_matches_the_fraction_oracle_on_the_rank_law_grid(monkeypatch, alpha, m):
    # the coordinate matrices of the rank law, eliminated on ints and on
    # Fractions: the same pivots, echelon rows and null vectors
    matrices, real = [], zeros._row_reduce

    def recording(rows):
        matrices.append([list(row) for row in rows])
        return real(matrices[-1])

    monkeypatch.setattr(zeros, "_row_reduce", recording)
    fam = SystemFamily(*alpha, *m)
    for n in range(1, 8):
        zeros._independent(zeros._basis_forms(fam, zeros._effective_slots(n)))
    monkeypatch.undo()
    assert len(matrices) == 7
    for rows in matrices:
        _assert_elimination_matches_oracle(rows)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda width: st.lists(
            st.lists(st.integers(-4, 4), min_size=width, max_size=width), max_size=6
        )
    )
)
def test_int_elimination_matches_the_fraction_oracle_on_small_matrices(rows):
    # zero rows, repeated rows and columns without a pivot included
    _assert_elimination_matches_oracle(rows)


@st.composite
def _rung_ends(draw):
    """(ends, bits): int-pair ends of a rung around a midpoint that is an
    exact half at the scale 2**bits, or any rational, each end over a
    positive denominator that need not be reduced."""
    bits = draw(st.integers(0, 96))
    if draw(st.booleans()):
        mid = F(2 * draw(st.integers(-(10**6), 10**6)) + 1, 2 << bits)
    else:
        mid = F(draw(st.integers(-(10**40), 10**40)), draw(st.integers(1, 10**40)))
    half = F(draw(st.integers(0, 10**12)), draw(st.integers(1, 10**12)))
    ends = []
    for end in (mid - half, mid + half):
        f = draw(st.integers(1, 10**6))
        ends.append((end.numerator * f, end.denominator * f))
    return tuple(ends), bits


@settings(max_examples=500, derandomize=True, deadline=None)
@given(_rung_ends())
def test_scaled_mid_rounds_like_fraction(case):
    # half to even, exact halves of either parity and negative ones included
    ((ln, ld), (hn, hd)), bits = case
    want = round(F((ln * hd + hn * ld) * 2**bits, 2 * ld * hd))
    assert zeros._scaled_mid(((ln, ld), (hn, hd)), bits) == want
