"""Exact normal-form assembly against an independent quadrature oracle.

The oracle here is a plain trapezoidal loop integral over the circle
parametrization, written directly on numpy arrays; it shares no code with
the exact pipeline it validates.  Smooth periodic integrands make the
trapezoid rule spectrally accurate, so 2**14 nodes give ~1e-13 relative
error everywhere these tests evaluate.  The partial-fraction rows of the
recurrence in k are also checked member for member against the
linear-system and binomial references in `oracles` (up to the spec limits
m = 16, k = 2n + 2 at n = 32), their int lifts against `Fraction` lifts,
and the int-numerator sum of the assembly against the `Fraction`
polynomial sum of `oracles.oracle_integrate`, whose integrals of x**k come
from those references and not from melcert.
"""

import math
import sys
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from melcert import flow, melnikov
from melcert.intervals import RatInterval
from melcert.melnikov import (
    CACHED_FAMILIES,
    AssemblyError,
    ConfluentNormalForm,
    MelnikovNormalForm,
    PerturbCoeffs,
    SystemFamily,
    _integrals,
    _integrate,
    _next_row,
    _point_rungs,
    _poles,
    _radial_numerator,
    _terms,
    assemble,
    circle_moment,
    evaluate_normal_form,
)
from melcert.polynomials import Polynomial
from melcert.sampling import draw_alpha, draw_coeffs, draw_family, rng_for
from melcert.zeros import (
    _basis_forms,
    _effective_slots,
    count_zeros,
    point_sign,
    theorem_bound,
)
from oracles import (
    oracle_circle_moments,
    oracle_integrate,
    oracle_lift,
    oracle_monomial_parts,
    oracle_partial_fractions,
    oracle_point_enclosure,
    oracle_point_scaled,
    oracle_point_split,
    oracle_power_moment,
    oracle_radial_numerator,
    oracle_single_factor,
)

FAM = SystemFamily(F(1, 2), F(-1, 3), 1, 1)
FAM_12 = SystemFamily(F(1, 2), F(-1, 3), 1, 2)


def monomial_form(i, j, fam):
    """The two-radical form of the loop integral of x**i * y**j / W dt: one
    `_integrate` term, which also reaches x**0 * y**0, a monomial that no
    coefficient slot weights."""
    return melnikov.MelnikovNormalForm(fam, *_integrate([(i, j, 1)], _poles(fam)))


def single_pole(k, m, alpha):
    """(rad, tail): the loop integral of x**k / (1 - alpha*x)**m dt."""
    return _integrate([(k, 0, 1)], ((alpha, m),))


def pf_row(k, fam):
    """Row k of the family's partial fractions as `Fraction`s: the weights
    at each pole, then the polynomial part.  The cached rows are extended
    as `_integrate` extends them."""
    poles = _poles(fam)
    rows, _lifts = _integrals(poles)
    while len(rows) <= k:
        rows.append(_next_row(rows[-1], poles))
    den, weights, quotient = rows[k]
    return tuple(tuple(F(c, den) for c in part) for part in (*weights, quotient))


def _is_power_of_two(q: int) -> bool:
    return q & (q - 1) == 0


def loop_integral(f, nodes=1 << 14):
    t = np.arange(nodes) * (2.0 * math.pi / nodes)
    return float(np.mean(f(t))) * 2.0 * math.pi


def orbit(h, t):
    rh = math.sqrt(h)
    return rh * np.sin(t), rh * np.cos(t)


def eval_two_radical(nf, h):
    """Float evaluation of a two-radical form, pi included."""
    fam = nf.family
    u1 = 1.0 - float(fam.alpha1) ** 2 * h
    u2 = 1.0 - float(fam.alpha2) ** 2 * h
    return math.pi * (
        float(nf.rad1.eval(F(h).limit_denominator(10**12))) / u1 ** ((2 * fam.m1 - 1) / 2)
        + float(nf.rad2.eval(F(h).limit_denominator(10**12))) / u2 ** ((2 * fam.m2 - 1) / 2)
        + float(nf.tail.eval(F(h).limit_denominator(10**12)))
    )


class TestCircleMoment:
    def test_period(self):
        assert circle_moment(0, 0) == Polynomial.constant(2)  # 2*pi

    def test_odd_power_vanishes(self):
        assert circle_moment(1, 0).is_zero
        assert circle_moment(3, 2).is_zero
        assert circle_moment(2, 5).is_zero

    def test_sin_squared(self):
        # integral of x**2 dt = pi*h
        assert circle_moment(2, 0) == Polynomial.monomial(1, 1)

    @pytest.mark.parametrize("i,j", [(0, 0), (2, 0), (0, 2), (2, 2), (4, 0), (4, 2)])
    def test_against_quadrature(self, i, j):
        h = 0.73
        oracle = loop_integral(lambda t: orbit(h, t)[0] ** i * orbit(h, t)[1] ** j)
        exact = math.pi * float(circle_moment(i, j).eval(F(73, 100)))
        assert abs(oracle - exact) <= 1e-10 * max(1.0, abs(oracle))


class TestPurePowerIntegral:
    def test_m1_closed_form(self):
        # 2*pi / r
        rad, tail = single_pole(0, 1, F(1, 2))
        assert rad == Polynomial.constant(2)
        assert tail.is_zero

    def test_m2_closed_form(self):
        # 2*pi / r**3
        rad, tail = single_pole(0, 2, F(1, 2))
        assert rad == Polynomial.constant(2)
        assert tail.is_zero

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
    def test_against_quadrature(self, m):
        alpha, h = 0.5, 0.5
        oracle = loop_integral(lambda t: (1.0 - alpha * orbit(h, t)[0]) ** (-m))
        rad, _tail = single_pole(0, m, F(1, 2))
        w = 1.0 - alpha * alpha * h
        exact = math.pi * float(rad.eval(F(1, 2))) / w ** ((2 * m - 1) / 2)
        assert abs(oracle - exact) <= 1e-10 * abs(oracle)

    def test_m3_at_h_one(self):
        alpha, h = 1.0 / 2.0, 1.0
        oracle = loop_integral(lambda t: (1.0 - alpha * orbit(h, t)[0]) ** (-3))
        rad, _tail = single_pole(0, 3, F(1, 2))
        w = 1.0 - 0.25
        exact = math.pi * float(rad.eval(F(1))) / w**2.5
        assert abs(oracle - exact) <= 1e-10 * abs(oracle)

    def test_radial_numerators_have_no_vanishing_coefficient(self):
        # observed fact up to m = 12; not assumed anywhere in the pipeline
        for m in range(1, 13):
            u = _radial_numerator(m)
            assert u.degree == (m - 1) // 2
            assert all(c != 0 for c in u.coeffs)

    def test_radial_numerator_closed_form_equals_recurrence(self):
        for m in range(1, 61):
            assert _radial_numerator(m) == oracle_radial_numerator(m), m

    def test_radial_numerator_needs_no_recursion(self):
        # a recursive recurrence would need about m stack frames; large m
        # must not raise RecursionError
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        _radial_numerator.cache_clear()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 60)
        try:
            u = _radial_numerator(150)
        finally:
            sys.setrecursionlimit(limit)
        assert u.degree == 74


class TestMonomialPowerIntegral:
    def test_k1_m1_closed_form(self):
        # (1/alpha) * (2*pi/r - 2*pi)
        rad, tail = single_pole(1, 1, F(1, 2))
        assert rad == Polynomial.constant(4)
        assert tail == Polynomial.constant(-4)

    @pytest.mark.parametrize("k,m", [(1, 1), (2, 1), (3, 2), (5, 2), (4, 4)])
    def test_against_quadrature(self, k, m):
        alpha, h = 1.0 / 3.0, 1.0
        oracle = loop_integral(
            lambda t: orbit(h, t)[0] ** k * (1.0 - alpha * orbit(h, t)[0]) ** (-m)
        )
        rad, tail = single_pole(k, m, F(1, 3))
        w = 1.0 - h / 9.0
        exact = math.pi * (float(rad.eval(F(1))) / w ** ((2 * m - 1) / 2) + float(tail.eval(F(1))))
        assert abs(oracle - exact) <= 1e-10 * max(abs(oracle), 1e-6)

    def test_power_moment_small_cases(self):
        alpha = F(1, 2)
        assert oracle_power_moment(0, alpha) == Polynomial.constant(2)
        assert oracle_power_moment(1, alpha) == Polynomial.constant(2)
        # (1 - a sin)^2 integrates to 2*pi + pi*a**2: stored as 2 + alpha^2 h
        assert oracle_power_moment(2, alpha) == Polynomial((2, F(1, 4)))


def _lift_basis(m, alpha):
    """U_j(u) * u**(m-j), j = 1..m, u = 1 - alpha**2 h, in `Fraction`
    polynomials from `oracles.oracle_lift`."""
    return [oracle_lift(j, m, alpha) for j in range(1, m + 1)]


def _lifted(weights, basis):
    """sum_j weights[j-1] * basis[j-1]."""
    rad = Polynomial.zero()
    for c, lift in zip(weights, basis):
        rad = rad + lift.scale(c)
    return rad


class TestPoleKernelAgainstOracles:
    """The pole weights against the dense linear system and the binomial
    substitution, over seeded families with k <= 20 and m <= 5."""

    @pytest.mark.parametrize("seed", range(6))
    def test_two_radical_rows_equal_linear_system(self, seed):
        rng = rng_for(2024, seed)
        fam = draw_family(rng, rng.randint(1, 5), rng.randint(1, 5))
        tails = 0
        for k in range(21):
            row = pf_row(k, fam)
            assert row == oracle_partial_fractions(k, fam.alpha1, fam.m1, fam.alpha2, fam.m2), k
            tails += any(row[2])
        assert tails  # rows with a nonzero polynomial part were compared

    @pytest.mark.parametrize("m", range(1, 6))
    def test_single_factor_equals_binomial_expansion(self, m):
        rng = rng_for(2025, m)
        for alpha in (draw_alpha(rng), draw_alpha(rng), F(-3, 7)):
            basis = _lift_basis(m, alpha)
            for k in range(21):
                weights, tail = oracle_single_factor(k, m, alpha)
                rad, got_tail = single_pole(k, m, alpha)
                assert got_tail == tail, f"k={k}"
                assert rad == _lifted(weights, basis), f"k={k}"


# cli.parse_spec caps n <= 32 and m1, m2 <= 16; the rows run to 2n + 2 here
LIMIT_M, LIMIT_K = 16, 2 * 32 + 2
dyadic_alphas = st.integers(-32, 32).filter(bool).map(lambda v: F(v, 16))
non_dyadic_alphas = st.fractions(min_value=-2, max_value=2, max_denominator=99).filter(
    lambda a: a and not _is_power_of_two(a.denominator)
)


def _check_rows_to_the_limit(fam, compared):
    """Every row k <= LIMIT_K satisfies q*D + sum w_ij * D/(1-alpha_i x)**j
    = x**k, and its integral is the `Fraction` lift of its weights; the rows
    at k in compared equal the dense linear system."""
    f1, f2 = Polynomial((1, -fam.alpha1)), Polynomial((1, -fam.alpha2))
    full = f1**fam.m1 * f2**fam.m2
    basis_a = [f1 ** (fam.m1 - j) * f2**fam.m2 for j in range(1, fam.m1 + 1)]
    basis_b = [f1**fam.m1 * f2 ** (fam.m2 - j) for j in range(1, fam.m2 + 1)]
    lifts = _lift_basis(fam.m1, fam.alpha1), _lift_basis(fam.m2, fam.alpha2)
    for k in range(LIMIT_K + 1):
        row = tilde_a, tilde_b, tail = pf_row(k, fam)
        rebuilt = _lifted(tilde_a, basis_a) + _lifted(tilde_b, basis_b)
        assert rebuilt + Polynomial(tail) * full == Polynomial.monomial(k), f"k={k}"
        nf = monomial_form(k, 0, fam)
        assert nf.rad1 == _lifted(tilde_a, lifts[0]), f"k={k}"
        assert nf.rad2 == _lifted(tilde_b, lifts[1]), f"k={k}"
        assert nf.tail == oracle_circle_moments(tail), f"k={k}"
        if k in compared:
            ref = oracle_partial_fractions(k, fam.alpha1, fam.m1, fam.alpha2, fam.m2)
            assert row == ref, f"k={k}"


class TestRowsAtTheSpecLimits:
    """The recurrence in k against the reconstruction identity on every row
    up to k = 2n + 2 at n = 32, and against the dense linear system on the
    first row with a polynomial part and on the last one."""

    @settings(max_examples=2, derandomize=True, deadline=None)
    @given(dyadic_alphas, non_dyadic_alphas)
    def test_two_poles_at_m_16(self, alpha1, alpha2):
        fam = SystemFamily(alpha1, alpha2, LIMIT_M, LIMIT_M)
        _check_rows_to_the_limit(fam, (2 * LIMIT_M, LIMIT_K))

    @settings(max_examples=2, derandomize=True, deadline=None)
    @given(st.one_of(dyadic_alphas, non_dyadic_alphas), st.integers(1, LIMIT_M))
    def test_mirror_pair(self, alpha, m2):
        fam = SystemFamily(alpha, -alpha, LIMIT_M, m2)
        _check_rows_to_the_limit(fam, (LIMIT_M + m2, LIMIT_K))

    @settings(max_examples=3, derandomize=True, deadline=None)
    @given(st.one_of(dyadic_alphas, non_dyadic_alphas))
    def test_single_pole_at_m_16(self, alpha):
        basis = _lift_basis(LIMIT_M, alpha)
        for k in range(LIMIT_K + 1):
            weights, tail = oracle_single_factor(k, LIMIT_M, alpha)
            rad, got_tail = single_pole(k, LIMIT_M, alpha)
            assert got_tail == tail, f"k={k}"
            assert rad == _lifted(weights, basis), f"k={k}"


class TestPartialFractions:
    def test_symmetric_split(self):
        fam = SystemFamily(F(1), F(-1), 1, 1)
        assert pf_row(0, fam) == ((F(1, 2),), (F(1, 2),), ())

    def test_tail_appears_at_threshold(self):
        assert len(pf_row(FAM_12.m1 + FAM_12.m2, FAM_12)[2]) == 1
        assert pf_row(FAM_12.m1 + FAM_12.m2 - 1, FAM_12)[2] == ()

    @pytest.mark.parametrize("m1,m2", [(1, 1), (2, 1), (3, 3)])
    def test_reconstruction_identity(self, m1, m2):
        fam = SystemFamily(F(2, 3), F(-1, 4), m1, m2)
        f1 = Polynomial((1, -fam.alpha1))
        f2 = Polynomial((1, -fam.alpha2))
        for k in range(0, 11):
            tilde_a, tilde_b, tail = pf_row(k, fam)
            rebuilt = Polynomial.zero()
            for j, c in enumerate(tilde_a, start=1):
                rebuilt = rebuilt + (f1 ** (m1 - j) * f2**m2).scale(c)
            for j, c in enumerate(tilde_b, start=1):
                rebuilt = rebuilt + (f1**m1 * f2 ** (m2 - j)).scale(c)
            tail_poly = Polynomial(tail)
            rebuilt = rebuilt + tail_poly * f1**m1 * f2**m2
            assert rebuilt == Polynomial.monomial(k), f"k={k} failed"


class TestMonomialIntegral:
    def test_odd_y_power_is_zero(self):
        for i, j in [(0, 1), (2, 3), (1, 1), (5, 5)]:
            assert monomial_form(i, j, FAM).is_zero

    def test_simplest_case_shape(self):
        nf = monomial_form(0, 0, FAM)
        assert nf.rad1.degree == 0 and nf.rad2.degree == 0
        assert nf.tail.is_zero
        # exact split constants: alpha1/(alpha1-alpha2) and its mirror
        assert nf.rad1 == Polynomial.constant(2 * F(1, 2) / (F(1, 2) + F(1, 3)))

    def test_simplest_case_against_quadrature(self):
        nf = monomial_form(0, 0, FAM)
        for h in (0.3, 0.9, 1.7, 2.6, 3.4):
            oracle = loop_integral(
                lambda t: 1.0
                / ((1 - 0.5 * orbit(h, t)[0]) * (1 + orbit(h, t)[0] / 3.0))
            )
            assert abs(eval_two_radical(nf, h) - oracle) <= 1e-10 * abs(oracle)

    def test_tail_degree_bookkeeping(self):
        # x**4 y**2 with m1=1, m2=2: highest pure-power index is 4+2=6,
        # so the polynomial part has degree at most (6 - 3)//2 = 1
        nf = monomial_form(4, 2, FAM_12)
        assert nf.tail.degree <= 1
        h = 0.8
        oracle = loop_integral(
            lambda t: orbit(h, t)[0] ** 4
            * orbit(h, t)[1] ** 2
            / ((1 - 0.5 * orbit(h, t)[0]) * (1 + orbit(h, t)[0] / 3.0) ** 2)
        )
        assert abs(eval_two_radical(nf, h) - oracle) <= 1e-9 * abs(oracle)


class TestAssembly:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: SystemFamily(F(1, 2), F(-1, 3), 1.5, 1), "positive integers"),
            (lambda: SystemFamily(F(1, 2), F(-1, 3), 1, F(3, 2)), "positive integers"),
            (lambda: PerturbCoeffs(n=2.5), "degree"),
            (lambda: PerturbCoeffs(n=2, a={(0.5, 0): 1}), r"a entry \(0\.5, 0\): index"),
            (lambda: PerturbCoeffs(n=2, b={(0, F(1, 2)): 1}), r"b entry \(0, Fraction\(1, 2\)\)"),
            (lambda: PerturbCoeffs(n=2, a={(0, 0, 0): 1}), "not a pair of integers"),
            (lambda: theorem_bound(FAM, 2.5), "degree"),
            (lambda: SystemFamily(0, F(1, 2), 1, 1), "nonzero"),
        ],
        ids=["m1=1.5", "m2=3/2", "n=2.5", "a key 0.5", "b key 1/2", "key of 3", "bound n=2.5", "alpha1=0"],
    )
    def test_invalid_family_or_degree_raises_value_error(self, build, message):
        # exponents, degrees and coefficient indices are integers (an
        # integral float or Fraction would reach the assembly's ranges as a
        # raw TypeError); the rows divide by alpha
        with pytest.raises(ValueError, match=message):
            build()

    def test_zero_coefficients_give_zero_form(self):
        nf = assemble(FAM, PerturbCoeffs(n=3))
        assert nf.is_zero

    def test_coefficient_box_check_follows_the_fraction_rule(self):
        # PerturbCoeffs tests |p/q| <= box and p != 0 on ints; the rule is
        # abs(value) > box and value != 0 on Fractions: the same entries
        # kept, the same stored values and the same first error, with
        # values at |v| == box, box plus or minus 3/2**1074 or 10**-400 and
        # those tiny values alone, under boxes other than 1
        def fraction_rule(grids, box):
            out = {}
            for name, grid in grids.items():
                out[name] = {}
                for (i, j), value in grid.items():
                    value = F(value)
                    if abs(value) > box:
                        raise ValueError(f"|{name}[{i},{j}]| exceeds the box bound {box}")
                    if value != 0:
                        out[name][(i, j)] = value
            return out

        tiny = [F(3, 2**1074), F(1, 10**400)]
        seen = dict.fromkeys(["kept", "rejected", "at_box", "tiny", "dropped"], 0)

        @settings(max_examples=200, derandomize=True, deadline=None)
        @given(st.data())
        def check(data):
            box = data.draw(
                st.one_of(
                    st.sampled_from([F(2), F(1, 3), F(10**400), *tiny]),
                    st.fractions(min_value=F(1, 10**9), max_value=10**9).filter(bool),
                )
            )
            values = st.one_of(
                st.sampled_from([box, -box, 0, box + tiny[0], -box - tiny[1]]),
                st.sampled_from(tiny).flatmap(lambda t: st.sampled_from([t, -t, box - t])),
                st.fractions(-2, 2, max_denominator=64).map(lambda f: f * box),
                st.integers(-2, 2),
            )
            keys = st.sampled_from([(i, j) for i in range(4) for j in range(4 - i)])
            grids = {name: data.draw(st.dictionaries(keys, values, max_size=6)) for name in "ab"}
            try:
                expected = fraction_rule(grids, box)
            except ValueError as error:
                with pytest.raises(ValueError) as got:
                    PerturbCoeffs(n=3, box=box, **grids)
                assert str(got.value) == str(error)
                seen["rejected"] += 1
                return
            co = PerturbCoeffs(n=3, box=box, **grids)
            assert {"a": co.a, "b": co.b} == expected
            kept = [*co.a.values(), *co.b.values()]
            seen["kept"] += 1
            seen["at_box"] += any(abs(v) == box for v in kept)
            seen["tiny"] += any(abs(v) in tiny for v in kept)
            seen["dropped"] += sum(map(len, grids.values())) > len(kept)

        check()
        assert min(seen.values()) >= 10, seen

    def test_parity_only_coefficients_vanish(self):
        for seed in range(50):
            rng = rng_for(31, seed)
            fam = draw_family(rng, rng.randint(1, 2), rng.randint(1, 2))
            full = draw_coeffs(rng, 3)
            a = {key: v for key, v in full.a.items() if key[1] % 2 == 1}
            b = {key: v for key, v in full.b.items() if key[1] % 2 == 0}
            nf = assemble(fam, PerturbCoeffs(n=3, a=a, b=b))
            assert nf.is_zero

    def test_mirror_parts_cancel_over_the_shared_radical(self):
        # alpha2 = -alpha1: r1 = r2 = r, so the parts are compared over
        # r**(2*max(m1, m2)-1) with r**2 = 1 - h/4
        odd = PerturbCoeffs(n=2, a={(0, 0): F(1)})
        assert assemble(SystemFamily(F(1, 2), F(-1, 2), 1, 1), odd).is_zero
        fam = SystemFamily(F(1, 2), F(-1, 2), 2, 1)
        u = Polynomial((1, F(-1, 4)))
        nf = melnikov.MelnikovNormalForm(fam, u.scale(3), Polynomial.constant(-3), Polynomial())
        assert nf.merged and nf.is_zero
        assert count_zeros(nf).status == "identically_zero"

    def test_single_coefficient_matches_monomial(self):
        co = PerturbCoeffs(n=2, a={(0, 0): F(1)})
        assert assemble(FAM, co) == monomial_form(1, 0, FAM)

    def test_linearity_exact(self):
        rng = rng_for(77)
        c1 = draw_coeffs(rng, 3)
        c2 = draw_coeffs(rng, 3)
        lam = F(3, 7)
        combo = PerturbCoeffs(
            n=3,
            a={k: c1.a.get(k, F(0)) + lam * c2.a.get(k, F(0)) for k in set(c1.a) | set(c2.a)},
            b={k: c1.b.get(k, F(0)) + lam * c2.b.get(k, F(0)) for k in set(c1.b) | set(c2.b)},
            box=F(2),
        )
        lhs = assemble(FAM, combo)
        f1, f2 = assemble(FAM, c1), assemble(FAM, c2)
        for part in ("rad1", "rad2", "tail"):
            expected = getattr(f1, part) + getattr(f2, part).scale(lam)
            assert getattr(lhs, part) == expected, part

    def test_center_value_is_zero(self):
        for seed in range(20):
            rng = rng_for(42, seed)
            fam = draw_family(rng, rng.randint(1, 3), rng.randint(1, 3))
            nf = assemble(fam, draw_coeffs(rng, rng.randint(0, 4)))
            assert nf.center_value() == 0

    def test_degree_bounds(self):
        for seed in range(30):
            rng = rng_for(88, seed)
            n = rng.randint(0, 4)
            m1, m2 = rng.randint(1, 3), rng.randint(1, 3)
            fam = draw_family(rng, m1, m2)
            nf = assemble(fam, draw_coeffs(rng, n))
            s = (n + 1) // 2
            assert nf.rad1.degree <= m1 - 1 + s
            assert nf.rad2.degree <= m2 - 1 + s
            assert nf.tail.degree <= (2 * s + 1 - m1 - m2) // 2 or nf.tail.is_zero

    def test_dispatch(self):
        conf = SystemFamily(F(1, 2), F(1, 2), 1, 1)
        assert isinstance(assemble(conf, PerturbCoeffs(n=1)), ConfluentNormalForm)
        assert isinstance(assemble(FAM, PerturbCoeffs(n=1)), melnikov.MelnikovNormalForm)

    def test_form_of_the_other_kind_rejected(self):
        # the family decides the kind of form, so a constructor refuses a
        # family of the other kind instead of certifying a wrong count
        conf = SystemFamily(F(1, 2), F(1, 2), 1, 1)
        with pytest.raises(AssemblyError, match="confluent family"):
            melnikov.MelnikovNormalForm(conf, Polynomial((1,)), Polynomial(), Polynomial())
        with pytest.raises(AssemblyError, match="two distinct alphas"):
            ConfluentNormalForm(FAM, Polynomial((-1, 1)))

    def test_power_and_merging_are_read_from_the_family(self):
        conf = SystemFamily(F(1, 2), F(1, 2), 3, 2)
        assert ConfluentNormalForm(conf, Polynomial((-1, 1))).m == 5
        mirror = SystemFamily(F(1, 2), F(-1, 2), 2, 1)
        zero = Polynomial()
        assert melnikov.MelnikovNormalForm(mirror, zero, zero, zero).merged
        assert not melnikov.MelnikovNormalForm(FAM, zero, zero, zero).merged


# ------------------------------------------- int sum vs Fraction oracle


@st.composite
def _assembly_cases(draw, kinds=("two_radical", "mirror", "confluent")):
    """(kind, coeffs, poles) as the assembly sums them: two distinct
    poles, a mirror pair alpha2 = -alpha1, or the confluent single pole of
    power m1 + m2, one of `kinds`.  m1 and m2 are drawn apart, so a mirror
    pair has m1 == m2 or not.  Coefficient denominators run over 1..12, a
    grid is full or sparse, and a quarter of the draws hold only pairs
    a[i,j], b[i+1,j-1] = v, -v on the same monomial, which cancel."""
    rational = st.builds(F, st.integers(-40, 40), st.integers(1, 12))
    alpha = rational.filter(bool)
    kind = draw(st.sampled_from(kinds))
    alpha1, m1, m2 = draw(alpha), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if kind == "two_radical":
        alpha2 = draw(alpha.filter(lambda a: a not in (alpha1, -alpha1)))
        poles = ((alpha1, m1), (alpha2, m2))
    elif kind == "mirror":
        poles = ((alpha1, m1), (-alpha1, m2))
    else:
        poles = ((alpha1, m1 + m2),)
    cancel = draw(st.integers(0, 3)) == 0
    n = draw(st.integers(2 if cancel else 0, 5))
    a, b = {}, {}
    if cancel:
        for i in range(n - 1):
            for j in range(2, n - i + 1, 2):
                if draw(st.booleans()):
                    a[(i, j)] = draw(rational.filter(bool))
                    b[(i + 1, j - 1)] = -a[(i, j)]
    else:
        sparse = draw(st.booleans())
        for grid in (a, b):
            for i in range(n + 1):
                for j in range(n + 1 - i):
                    if not sparse or draw(st.integers(0, 3)) == 0:
                        grid[(i, j)] = draw(rational)
    return kind, PerturbCoeffs(n=n, a=a, b=b, box=40), poles


def test_integrate_matches_fraction_oracle():
    seen = dict.fromkeys(
        ["two_radical", "mirror", "confluent", "non_dyadic", "sparse", "cancelled"], 0
    )

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_assembly_cases())
    def check(case):
        kind, coeffs, poles = case
        got, want = _integrate(_terms(coeffs), poles), oracle_integrate(coeffs, poles)
        assert got == want
        assert [p.degree for p in got] == [p.degree for p in want]
        seen[kind] += 1
        values = [*coeffs.a.values(), *coeffs.b.values()]
        seen["non_dyadic"] += any(not _is_power_of_two(v.denominator) for v in values)
        slots = (coeffs.n + 1) * (coeffs.n + 2)  # both grids
        seen["sparse"] += 0 < len(values) < slots / 2
        # a part that some term feeds yet sums to zero
        terms = [oracle_monomial_parts(i + 1, j, poles) for i, j in coeffs.a]
        terms += [oracle_monomial_parts(i, j + 1, poles) for i, j in coeffs.b]
        fed = [any(not parts[k].is_zero for parts in terms) for k in range(len(want))]
        seen["cancelled"] += any(f and w.is_zero for f, w in zip(fed, want))

    check()
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("kind", ["two_radical", "mirror"])
def test_integrate_matches_fraction_oracle_at_the_spec_limits(kind):
    # a sparse draw at n = 32, m = (16, 16): every power x**k up to k = 33
    # goes through the rows and all sixteen lifts at each pole
    rng = rng_for(63, 32)
    fam = draw_family(rng, LIMIT_M, LIMIT_M)
    alpha2 = fam.alpha2 if kind == "two_radical" else -fam.alpha1
    poles = ((fam.alpha1, LIMIT_M), (alpha2, LIMIT_M))
    full = draw_coeffs(rng, 32)
    coeffs = PerturbCoeffs(
        n=32,
        a={key: v for key, v in full.a.items() if rng.randint(0, 5) == 0},
        b={key: v for key, v in full.b.items() if rng.randint(0, 5) == 0},
    )
    assert coeffs.a and coeffs.b and len(coeffs.a) < len(full.a) / 2
    got = _integrate(_terms(coeffs), poles)
    assert got == oracle_integrate(coeffs, poles)
    assert all(not part.is_zero for part in got)


def test_every_basis_form_matches_fraction_oracle():
    # every parity-filtered slot at n = 8, m = (3, 3), against the monomial
    # of each slot as mapped here: a[i,j] weights x**(i+1)*y**j, b[i,j]
    # x**i*y**(j+1); zeros' basis keeps the first slot of each monomial
    fam = SystemFamily(F(3, 5), F(-2, 7), 3, 3)
    poles = ((fam.alpha1, fam.m1), (fam.alpha2, fam.m2))
    slots = [("b" if j % 2 else "a", i, j) for i in range(9) for j in range(9 - i)]
    first = {}
    for (kind, i, j), nf in zip(slots, _basis_forms(fam, slots), strict=True):
        mono = (i + 1, j) if kind == "a" else (i, j + 1)
        first.setdefault(mono, (kind, i, j))
        assert [nf.rad1, nf.rad2, nf.tail] == oracle_monomial_parts(*mono, poles), mono
    assert _effective_slots(8) == list(first.values())


# ------------------------------------ int point kernel vs RatInterval oracle


@st.composite
def _point_cases(draw, kinds=("two_radical", "mirror", "confluent")):
    """(kind, where, nf, h, precision, bits): a form of `_assembly_cases`,
    and h at the center, 1e-8 below h_max, inside, or where the radicand
    of the pole nearest the center is a rational square s**2."""
    kind, coeffs, poles = draw(_assembly_cases(kinds))
    if kind == "confluent":
        (alpha, m), = poles
        family = SystemFamily(alpha, alpha, 1, m - 1)
    else:
        (alpha1, m1), (alpha2, m2) = poles
        family = SystemFamily(alpha1, alpha2, m1, m2)
    h_max = family.h_max
    where = draw(st.sampled_from(["center", "edge", "inside", "square"]))
    if where == "center":
        h = F(0)
    elif where == "edge":
        h = h_max * (1 - F(1, 10**8))
    elif where == "inside":
        h = h_max * F(draw(st.integers(1, 999)), 1000)
    else:
        s = F(draw(st.integers(1, 11)), 12)
        h = h_max * (1 - s * s)
    return kind, where, assemble(family, coeffs), h, draw(st.integers(1, 60)), draw(
        st.integers(1, 1024)
    )


def test_point_evaluation_matches_interval_oracle():
    seen = dict.fromkeys(
        ["two_radical", "mirror", "confluent", "center", "edge", "inside", "square"], 0
    )

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_point_cases())
    def check(case):
        kind, where, nf, h, precision, bits = case
        got, want = evaluate_normal_form(nf, h, precision), oracle_point_enclosure(nf, h, precision)
        assert (got.lo, got.hi) == (want.lo, want.hi)
        (ln, ld), (hn, hd) = _point_rungs(nf, h)(bits)
        want = oracle_point_scaled(nf, h, bits)
        assert (F(ln, ld), F(hn, hd)) == (want.lo, want.hi)
        seen[kind] += 1
        seen[where] += 1

    check()
    assert min(seen.values()) >= 20, seen


def test_mirror_enclosure_is_never_wider_than_the_split_one():
    # a mirror pair is summed exactly at h into one part: at the same bits
    # its enclosure lies inside the one that encloses the two parts one by
    # one, it holds the exact value (it holds the split enclosure at
    # 4*bits + 256, or is a point inside it), wherever it excludes 0 it has
    # the exact sign of the form, and a zero form is the exact point 0
    seen = dict.fromkeys(["equal_m", "unequal_m", "narrower", "signed", "zero_form"], 0)

    @settings(max_examples=250, derandomize=True, deadline=None)
    @given(_point_cases(kinds=("mirror",)))
    def check(case):
        _kind, _where, nf, h, _precision, bits = case
        (ln, ld), (hn, hd) = _point_rungs(nf, h)(bits)
        lo, hi = F(ln, ld), F(hn, hd)
        split = oracle_point_split(nf, h, bits)
        assert split.lo <= lo <= hi <= split.hi
        fine = oracle_point_split(nf, h, 4 * bits + 256)
        assert lo <= fine.lo <= fine.hi <= hi or fine.lo <= lo == hi <= fine.hi
        sign = point_sign(nf, h)
        if lo > 0 or hi < 0:
            assert sign == (1 if lo > 0 else -1)
        if lo == hi == 0 or nf.is_zero:
            assert lo == hi == sign == 0
        seen["equal_m" if nf.family.m1 == nf.family.m2 else "unequal_m"] += 1
        seen["narrower"] += hi - lo < split.width
        seen["signed"] += lo > 0 or hi < 0
        seen["zero_form"] += nf.is_zero

    check()
    assert seen["equal_m"] + seen["unequal_m"] >= 200, seen
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("m1, m2", [(1, 2), (3, 1)])
def test_cancelling_mirror_pair_with_unequal_powers_is_exactly_zero(m1, m2):
    # rad_hi = -rad_lo*u**delta over r**(2m_lo - 1 + 2delta), u = r**2 =
    # 1 - alpha**2 h, is -rad_lo over r**(2m_lo - 1): the two parts cancel
    # at every h, every rung of the kernel is the exact point 0 with no
    # zero test, and the split enclosure keeps a false width
    fam = SystemFamily(F(2, 3), F(-2, 3), m1, m2)
    rad = Polynomial((F(1, 2), F(-3), F(5, 7)))
    rest = -rad * Polynomial((1, -fam.alpha1**2)) ** abs(m1 - m2)
    parts = (rad, rest) if m1 < m2 else (rest, rad)
    nf = MelnikovNormalForm(fam, *parts, Polynomial())
    assert nf.is_zero
    for h in (F(0), F(1, 3), F(3, 2), fam.h_max * (1 - F(1, 10**7))):
        (ln, _), (hn, _) = _point_rungs(nf, h)(64)
        assert ln == hn == 0
        for precision in (1, 30):
            assert evaluate_normal_form(nf, h, precision) == RatInterval.point(0)
        assert oracle_point_enclosure(nf, h, 30) == RatInterval.point(0)
        assert h == 0 or oracle_point_split(nf, h, 64).width > 0


def test_perfect_square_radicand_gives_the_exact_root():
    # alpha = 1/2 at h = 7/4: 1 - h/4 = 9/16, so r = 3/4 at every rung
    two = assemble(FAM, PerturbCoeffs(n=2, a={(0, 0): F(1)}, b={(1, 1): F(1, 2)}))
    one = assemble(SystemFamily(F(1, 2), F(1, 2), 1, 1), PerturbCoeffs(n=1, a={(0, 0): F(1)}))
    for nf in (two, one):
        for precision in (1, 30):
            got = evaluate_normal_form(nf, F(7, 4), precision)
            assert got == oracle_point_enclosure(nf, F(7, 4), precision)
    # the confluent value is exact before pi: a point enclosure
    (ln, ld), (hn, hd) = _point_rungs(one, F(7, 4))(64)
    assert F(ln, ld) == F(hn, hd) == one.pr.eval(F(3, 4)) / F(3, 4) ** 3


# ------------------------------------------------- per-family cache bound


class TestFamilyCache:
    def test_many_families_stay_within_the_bound(self):
        per_degree = (circle_moment, _radial_numerator)
        before = [cache.cache_info().currsize for cache in per_degree]
        for k in range(2000):
            rng = rng_for(61, k)
            fam = draw_family(rng, rng.randint(1, 2), rng.randint(1, 2))
            assemble(fam, draw_coeffs(rng, rng.randint(0, 1)))
        info = _integrals.cache_info()
        assert info.maxsize == CACHED_FAMILIES
        assert info.currsize <= CACHED_FAMILIES
        # the per-degree caches grow with the exponents (here x**k, k <= 2,
        # over at most 4 poles' powers), not with the number of families
        for cache, size in zip(per_degree, before):
            assert cache.cache_info().currsize - size <= 8

    def test_second_pass_over_a_pool_misses_nothing(self, monkeypatch):
        # the size of the benchmark's sweep pool, at its n and m
        rngs = [rng_for(62, k) for k in range(96)]
        pool = [(draw_family(rng, 2, 1), draw_coeffs(rng, 4)) for rng in rngs]
        first = [assemble(fam, co) for fam, co in pool]
        misses = _integrals.cache_info().misses

        def recomputed(*_args):
            raise AssertionError("a cached family recomputed a row or a lift")

        # every partial-fraction row and lift is still held
        for name in ("_first_row", "_next_row", "_lift"):
            monkeypatch.setattr(melnikov, name, recomputed)
        assert [assemble(fam, co) for fam, co in pool] == first
        assert _integrals.cache_info().misses == misses


class TestConfluent:
    def test_zero_coefficients(self):
        fam = SystemFamily(F(1, 2), F(1, 2), 2, 1)
        assert assemble(fam, PerturbCoeffs(n=2)).is_zero

    def test_forced_root_at_one(self):
        for seed in range(50):
            rng = rng_for(5, seed)
            alpha = draw_alpha(rng)
            fam = SystemFamily(alpha, alpha, rng.randint(1, 2), rng.randint(1, 2))
            nf = assemble(fam, draw_coeffs(rng, rng.randint(1, 4)))
            assert nf.pr.eval(1) == 0

    def test_term_count_bound(self):
        for seed in range(50):
            rng = rng_for(6, seed)
            s = rng.randint(1, 2)
            n = 2 * s
            alpha = draw_alpha(rng)
            fam = SystemFamily(alpha, alpha, 1, rng.randint(1, 2))
            nf = assemble(fam, draw_coeffs(rng, n))
            terms = sum(1 for c in nf.pr.coeffs if c != 0)
            assert terms <= 2 * s + 2

    def test_against_quadrature(self):
        fam = SystemFamily(F(1, 2), F(1, 2), 2, 1)
        rng = rng_for(9)
        co = draw_coeffs(rng, 3)
        nf = assemble(fam, co)
        h = 1.3
        terms_a = [(i, j, float(v)) for (i, j), v in co.a.items()]
        terms_b = [(i, j, float(v)) for (i, j), v in co.b.items()]

        def integrand(t):
            x, y = orbit(h, t)
            w = (1 - 0.5 * x) ** 3
            sa = sum(c * x**i * y**j for i, j, c in terms_a)
            sb = sum(c * x**i * y**j for i, j, c in terms_b)
            return (x * sa + y * sb) / w

        oracle = loop_integral(integrand)
        r = math.sqrt(1 - 0.25 * h)
        value = math.pi * sum(float(c) * r**k for k, c in enumerate(nf.pr.coeffs)) / r**5
        assert abs(oracle - value) <= 1e-9 * max(1.0, abs(oracle))


class TestEvaluation:
    def test_center_is_exact_zero(self):
        nf = assemble(FAM, PerturbCoeffs(n=2, a={(0, 0): F(1)}))
        enc = evaluate_normal_form(nf, F(0), precision=25)
        assert enc.contains(0)
        assert enc.width <= F(1, 10**25)

    def test_zero_form_evaluates_to_exact_zero(self):
        nf = assemble(FAM, PerturbCoeffs(n=1))
        enc = evaluate_normal_form(nf, F(1, 3), precision=10)
        assert enc.lo == enc.hi == 0

    def test_requested_width_reached(self):
        nf = assemble(FAM, PerturbCoeffs(n=2, a={(0, 0): F(1), (2, 0): F(1, 4)}))
        for precision in (10, 30, 60):
            enc = evaluate_normal_form(nf, F(7, 2), precision=precision)
            assert enc.width <= F(1, 10**precision)

    def test_rejects_out_of_range(self):
        nf = assemble(FAM, PerturbCoeffs(n=1, a={(0, 0): F(1)}))
        with pytest.raises(ValueError):
            evaluate_normal_form(nf, FAM.h_max, precision=10)
        with pytest.raises(ValueError):
            evaluate_normal_form(nf, F(-1, 10), precision=10)

    @pytest.mark.parametrize("precision", [2.5, F(7, 2), 0, -3], ids=["2.5", "7/2", "0", "-3"])
    def test_precision_is_a_positive_integer(self, precision):
        # a non-integer digit count made 10**precision a float, and the
        # width test of this form ended in a raw OverflowError
        fam = SystemFamily(F(1, 2), F(-1, 3), 6, 6)
        nf = assemble(fam, draw_coeffs(rng_for(17, 6), 6))
        assert not nf.is_zero
        with pytest.raises(ValueError, match="positive digit count"):
            evaluate_normal_form(nf, 1, precision=precision)

    def test_merged_family_evaluation_matches_quadrature(self):
        fam = SystemFamily(F(1, 2), F(-1, 2), 1, 2)
        rng = rng_for(91)
        co = draw_coeffs(rng, 2)
        nf = assemble(fam, co)
        assert nf.merged
        terms_a = [(i, j, float(v)) for (i, j), v in co.a.items()]
        terms_b = [(i, j, float(v)) for (i, j), v in co.b.items()]
        for h in (F(1, 2), F(2), F(7, 2)):
            enc = evaluate_normal_form(nf, h, precision=20)
            hf = float(h)

            def integrand(t):
                x, y = orbit(hf, t)
                w = (1 - 0.5 * x) * (1 + 0.5 * x) ** 2
                sa = sum(c * x**i * y**j for i, j, c in terms_a)
                sb = sum(c * x**i * y**j for i, j, c in terms_b)
                return (x * sa + y * sb) / w

            oracle = loop_integral(integrand)
            assert abs(float(enc.mid) - oracle) <= 1e-10 * max(1.0, abs(oracle))

    def test_confluent_certified_evaluation_matches_quadrature(self):
        fam = SystemFamily(F(1, 2), F(1, 2), 2, 1)
        co = PerturbCoeffs(n=2, a={(0, 0): F(1, 2), (1, 0): F(-1, 4)}, b={(0, 1): F(1, 3)})
        nf = assemble(fam, co)
        for h in (F(1, 2), F(3, 2), F(5, 2)):
            enc = evaluate_normal_form(nf, h, precision=20)
            hf = float(h)

            def integrand(t):
                x, y = orbit(hf, t)
                w = (1 - 0.5 * x) ** 3
                sa = 0.5 - 0.25 * x
                sb = y / 3.0
                return (x * sa + y * sb) / w

            oracle = loop_integral(integrand)
            assert abs(float(enc.mid) - oracle) <= 1e-10 * max(1.0, abs(oracle))


class TestQuadratureOracle:
    """`flow.numeric_melnikov` past its node floor, up to 0.99*h_max."""

    @staticmethod
    def integrand(fam, co, h):
        a1, a2 = float(fam.alpha1), float(fam.alpha2)
        terms_a = [(i, j, float(v)) for (i, j), v in co.a.items()]
        terms_b = [(i, j, float(v)) for (i, j), v in co.b.items()]

        def f(t):
            x, y = orbit(h, t)
            w = (1 - a1 * x) ** fam.m1 * (1 - a2 * x) ** fam.m2
            sa = sum(c * x**i * y**j for i, j, c in terms_a)
            sb = sum(c * x**i * y**j for i, j, c in terms_b)
            return (x * sa + y * sb) / w

        return f

    def test_against_loop_integral_and_certified_value(self, monkeypatch):
        # count the nodes each call evaluates, from the nodes handed to its
        # level kernel: toward h_max the pole nears the circle, and the
        # ladder has to go well past the floor
        nodes = []
        level_kernel = flow._level_kernel

        def counted(*field):
            level = level_kernel(*field)
            nodes.append(0)

            def evaluate(r, pairs):
                nodes[-1] += len(pairs)
                return level(r, pairs)

            return evaluate

        monkeypatch.setattr(flow, "_level_kernel", counted)
        for confluent in (False, True):
            for k in range(3):
                rng = rng_for(71, k)
                fam = draw_family(rng, rng.randint(1, 2), rng.randint(1, 2), confluent)
                co = draw_coeffs(rng, rng.randint(1, 3))
                nf = assemble(fam, co)
                grid = [float(fam.h_max * f) for f in (F(1, 4), F(1, 2), F(9, 10), F(99, 100))]
                numeric = [flow.numeric_melnikov(fam, co, h) for h in grid]
                # acceptance 1's rule: relative 1e-9, or 1e-12 at the scale
                scale = max(abs(v) for v in numeric)
                for h, num in zip(grid, numeric):
                    certified = float(evaluate_normal_form(nf, F(h), precision=18).mid)
                    for ref in (loop_integral(self.integrand(fam, co, h)), certified):
                        err = abs(num - ref)
                        assert err <= 1e-9 * max(abs(num), abs(ref)) or err <= 1e-12 * scale, (
                            f"h={h}: numeric {num!r} vs {ref!r}"
                        )
        assert min(nodes) >= flow.MIN_NODES
        assert max(nodes) > 1000


class TestSignTree:
    @staticmethod
    def _squares(monkeypatch, nf):
        """The `_square` calls of nf's tree build, after its clearing."""
        calls = []
        real = melnikov._square

        def counting(p):
            calls.append(p)
            return real(p)

        nf.ints
        monkeypatch.setattr(melnikov, "_square", counting)
        nf.sign_tree
        return len(calls)

    def test_tree_builds_no_unread_square(self, monkeypatch):
        # a tail-less form (C = 0) squares A, C and B for P, and its last
        # node (P, 0) keeps P, not d*P**2; the X = 0 form keeps B, not d*B**2
        rng = rng_for(1, 0)
        tailless = assemble(draw_family(rng, 2, 2), draw_coeffs(rng, 2))
        assert tailless.tail.is_zero and tailless.ints.a and tailless.ints.b
        assert self._squares(monkeypatch, tailless) == 3
        assert tailless.eliminant == tailless.sign_tree[2][0]
        zero = Polynomial.zero()
        only_rad2 = MelnikovNormalForm(FAM, zero, Polynomial((1, 2)), zero)
        assert self._squares(monkeypatch, only_rad2) == 0
        assert only_rad2.sign_tree == ((only_rad2.ints.b, [], only_rad2.ints.b),)
