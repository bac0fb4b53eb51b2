"""Exact polynomial algebra and certified root counting.

The root-counting oracles are a brute-force sign-change scan on a fine grid
with exact integer arithmetic and a Sturm-chain isolator on rational
remainders, both independent of the Descartes core they check.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from melcert import polynomials
from melcert.intervals import RatInterval
from melcert.polynomials import (
    DescartesIsolator,
    Polynomial,
    cauchy_root_bound,
    count_positive_roots_with_multiplicity,
    count_real_roots,
    count_real_roots_with_multiplicity,
    descartes_bound,
    format_poly,
    isolate_roots,
    modular_squarefree,
    poly_gcd,
    refine_root,
    squarefree_decomposition,
    squarefree_part,
)

from oracles import OracleSturm, grid_scan_count, oracle_gcd, oracle_sturm_chain, oracle_yun

X = Polynomial.x()
ONE = Polynomial.one()


def poly(*coeffs):
    return Polynomial([F(c) if not isinstance(c, F) else c for c in coeffs])


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=16)


# ---------------------------------------------------------------- arithmetic


class TestArithmetic:
    def test_difference_of_squares(self):
        assert (X + ONE) * (X - ONE) == poly(-1, 0, 1)

    def test_derivative_of_constant_is_zero(self):
        assert Polynomial.constant(F(7, 3)).derivative().is_zero

    def test_compose_square_with_shift(self):
        assert (X * X).compose(X + ONE) == poly(1, 2, 1)

    def test_divmod_inverts_multiplication(self):
        p = poly(1, -2, 0, 3)
        q = poly(-1, 1)
        quot, rem = divmod(p, q)
        assert quot * q + rem == p
        assert rem.degree < q.degree

    @given(
        st.lists(rationals, max_size=6),
        st.lists(rationals, max_size=6),
        st.lists(rationals, max_size=6),
    )
    def test_ring_distributivity(self, a, b, c):
        p, q, r = Polynomial(a), Polynomial(b), Polynomial(c)
        assert (p + q) * r == p * r + q * r

    @given(st.lists(rationals, min_size=1, max_size=6), st.lists(rationals, min_size=1, max_size=6))
    def test_product_degree(self, a, b):
        p, q = Polynomial(a), Polynomial(b)
        if p.is_zero or q.is_zero:
            assert (p * q).is_zero
        else:
            assert (p * q).degree == p.degree + q.degree

    @given(st.lists(rationals, max_size=5), st.lists(rationals, max_size=5))
    def test_derivative_product_rule(self, a, b):
        p, q = Polynomial(a), Polynomial(b)
        assert (p * q).derivative() == p.derivative() * q + p * q.derivative()

    @given(st.lists(rationals, max_size=5), st.lists(rationals, max_size=4), rationals)
    def test_eval_is_ring_morphism(self, a, b, x):
        p, q = Polynomial(a), Polynomial(b)
        assert (p * q).eval(x) == p.eval(x) * q.eval(x)
        assert (p + q).eval(x) == p.eval(x) + q.eval(x)


# ---------------------------------------------------------------- squarefree


class TestSquarefree:
    def test_double_root_drops_to_simple(self):
        p = (X - ONE) * (X - ONE)
        assert squarefree_part(p) == X - ONE

    def test_already_squarefree_unchanged(self):
        p = poly(1, 0, 1)  # x^2 + 1
        assert squarefree_part(p) == p

    def test_cubic_with_double_root_at_zero(self):
        # x^3 - x^2: gcd with the derivative is x, so the quotient is x^2 - x
        p = poly(0, 0, -1, 1)
        g = poly_gcd(p, p.derivative())
        assert g == X  # verified by direct division below
        assert p.exact_div(g) == poly(0, -1, 1)
        assert squarefree_part(p) == poly(0, -1, 1)

    @given(st.lists(rationals, min_size=2, max_size=7))
    def test_squarefree_divides_exactly(self, coeffs):
        p = Polynomial(coeffs)
        if p.is_zero:
            return
        sf = squarefree_part(p)
        assert (p % sf).is_zero

    def test_yun_decomposition_reassembles(self):
        p = (X - ONE) ** 3 * (X + ONE) * poly(-2, 0, 1) ** 2
        parts = squarefree_decomposition(p)
        rebuilt = Polynomial.one()
        for factor, mult in parts:
            rebuilt = rebuilt * factor**mult
        # equal up to the leading constant
        assert rebuilt.monic() == p.monic()
        assert sorted(m for _, m in parts) == [1, 2, 3]


# ------------------------------------------------ integer remainder sequence


def _random_poly(rng, max_degree, sparse=False):
    """Random nonzero rational polynomial; either leading sign, optionally
    with most middle coefficients zero so remainder degrees drop by >= 2."""
    degree = rng.randint(0, max_degree)
    coeffs = []
    for k in range(degree + 1):
        if sparse and 0 < k < degree and rng.random() < 0.7:
            coeffs.append(F(0))
        else:
            coeffs.append(F(rng.randint(-12, 12), rng.randint(1, 9)))
    if coeffs[-1] == 0:
        coeffs[-1] = F(rng.choice([-5, -1, 1, 3]), rng.randint(1, 4))
    return Polynomial(coeffs)


def _prs_cases(count, seed):
    """Seeded polynomials: dense, sparse, and products with repeated factors."""
    import random

    rng = random.Random(seed)
    cases = []
    for k in range(count):
        kind = k % 3
        if kind == 0:
            p = _random_poly(rng, 10)
        elif kind == 1:
            p = _random_poly(rng, 12, sparse=True)
        else:
            p = _random_poly(rng, 3) ** rng.randint(1, 3) * _random_poly(rng, 4)
            p = p * Polynomial.constant(rng.choice([-1, 1]))
        cases.append(p)
    return cases


def _prs_of(p):
    """The integer remainder sequence of (p, p') that poly_gcd builds."""
    ic = polynomials._primitive_ints(p)
    if len(ic) == 1:
        return [ic]
    d = polynomials._content_free([k * c for k, c in enumerate(ic)][1:])
    return polynomials._primitive_prs(ic, d)


class TestIntegerRemainderSequence:
    """The integer pseudo-remainder sequence and the modular squarefree
    certificate against the Fraction oracles."""

    CASES = _prs_cases(360, seed=20240)

    def test_chain_equals_fraction_chain(self):
        drops = 0
        for p in self.CASES:
            chain = _prs_of(p)
            assert chain == oracle_sturm_chain(p), p
            # r(k-1) mod r(k) is taken for every non-constant r(k)
            degrees = [len(ic) - 1 for ic in chain]
            drops += any(a - b >= 2 for a, b in zip(degrees[1:], degrees[2:-1]))
        assert drops >= 30  # pseudo-remainders with deg a - deg b >= 2 occur
        assert sum(p.leading < 0 for p in self.CASES) >= 100
        assert sum(p.degree <= 1 for p in self.CASES) >= 20

    def test_squarefree_flag_matches_yun(self):
        # a multiple root always denies the certificate; for these squarefree
        # cases the first prime divides neither lc(p) nor the discriminant
        repeated = 0
        for p in self.CASES:
            expected = all(m == 1 for _f, m in oracle_yun(p))
            assert modular_squarefree(p) == expected, p
            repeated += not expected
        assert repeated >= 60

    def test_certificate_skips_a_prime_dividing_the_leading_coefficient(self):
        q1 = polynomials._CERT_PRIMES[0]
        # (q1 x + 1)**2 reduces to the constant 1 mod q1, which would pass
        # for squarefree; the next prime sees the double root
        double = Polynomial((1, q1)) ** 2 * poly(-2, 1)
        assert not modular_squarefree(double)
        assert count_real_roots(double, RatInterval(-1, 3)) == 2
        assert modular_squarefree(Polynomial((1, q1)) * poly(-2, 1))

    def test_gcd_equals_fraction_gcd(self):
        import random

        rng = random.Random(7)
        wide = 0
        for p in self.CASES:
            common = _random_poly(rng, 3)
            a, b = p * common, _random_poly(rng, 5, sparse=True) * common
            if rng.random() < 0.5:
                a, b = b, a
            assert poly_gcd(a, b) == oracle_gcd(a, b), (a, b)
            wide += abs(a.degree - b.degree) >= 2
        assert wide >= 60

    def test_gcd_with_zero_and_constant_arguments(self):
        zero, p = Polynomial.zero(), poly(F(-2, 3), 0, -4)
        assert poly_gcd(zero, zero).is_zero
        assert poly_gcd(p, zero) == poly_gcd(zero, p) == p.monic()
        assert poly_gcd(p, Polynomial.constant(-3)) == ONE
        assert poly_gcd(X, X.scale(-2)) == X

    def test_low_degree_chains(self):
        for p in (Polynomial.constant(F(-7, 2)), poly(3, -6), poly(F(1, 2), F(-1, 3))):
            assert _prs_of(p) == oracle_sturm_chain(p)
            assert modular_squarefree(p)
        assert _prs_of(Polynomial.constant(-5)) == [[-1]]
        assert _prs_of(poly(3, -6)) == [[1, -2], [-1]]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            DescartesIsolator(Polynomial.zero())
        with pytest.raises(ValueError):
            modular_squarefree(Polynomial.zero())


# ---------------------------------------------------------------- counting


class TestCounting:
    def test_single_root_in_window(self):
        assert count_real_roots(poly(-1, 0, 1), RatInterval(0, 2)) == 1

    def test_no_real_roots(self):
        assert count_real_roots(poly(1, 0, 1), RatInterval(-10, 10)) == 0

    def test_half_open_convention(self):
        p = Polynomial.from_roots([F(0), F(1)])
        assert count_real_roots(p, RatInterval(0, 1)) == 1  # root at lo excluded
        assert count_real_roots(p, RatInterval(-1, 0)) == 1  # root at hi included

    def test_degree_eight_matches_grid_oracle(self):
        roots = [F(k, 10) for k in (-7, -3, -1, 1, 2, 5, 8, 9)]
        p = Polynomial.from_roots(roots).scale(F(3, 7))
        iv = RatInterval(F(-2), F(1, 2))  # six planted roots, one exactly at hi
        oracle = grid_scan_count(p, iv.lo, iv.hi, 25000)  # step 1e-4
        assert count_real_roots(p, iv) == oracle == 6

    def test_planted_roots_hundred_seeds(self):
        import random

        for seed in range(100):
            rng = random.Random(seed)
            degree = rng.randint(2, 12)
            pool = [F(num, 64) for num in range(-128, 129)]
            roots = rng.sample(pool, degree)
            p = Polynomial.from_roots(roots)
            window = RatInterval(F(-3), F(3))
            inside = sum(1 for r in roots if -3 < r <= 3)
            assert count_real_roots(p, window) == inside

    def test_multiplicity_counting(self):
        p = (X - ONE) ** 2 * (X + ONE) * (X - Polynomial.constant(F(1, 2))) ** 3
        iv = RatInterval(F(0), F(2))
        assert count_real_roots(p, iv) == 2
        assert count_real_roots_with_multiplicity(p, iv) == 5


# ---------------------------------------------------------------- isolation


class TestIsolation:
    def test_single_interval(self):
        out = isolate_roots(poly(-1, 0, 1), RatInterval(0, 2))
        assert len(out) == 1
        assert out[0].lo < 1 <= out[0].hi or out[0].contains(1)

    def test_two_disjoint(self):
        p = Polynomial.from_roots([F(1, 4), F(1, 2)])
        out = isolate_roots(p, RatInterval(0, 1))
        assert len(out) == 2
        assert out[0].hi <= out[1].lo

    def test_roots_closer_than_the_recursion_limit(self):
        # the bisection tree is about 1200 levels deep before it parts them
        near = F(1, 3) + F(1, 2**1200)
        p = Polynomial.from_roots([F(1, 3), near])
        assert count_real_roots(p, RatInterval(0, 1)) == 2
        first, second = isolate_roots(p, RatInterval(0, 1))
        assert first.hi <= second.lo
        assert first.lo < F(1, 3) < first.hi
        assert second.lo < near < second.hi

    def test_five_tenth_spaced_roots(self):
        # bisection midpoints land exactly on 1/2, exercising exact hits
        roots = [F(k, 10) for k in range(1, 6)]
        p = Polynomial.from_roots(roots)
        out = isolate_roots(p, RatInterval(0, 1))
        assert len(out) == 5
        for iv, r in zip(out, roots):
            assert iv.lo <= r <= iv.hi

    def test_count_matches_interval_count(self):
        import random

        for seed in range(40):
            rng = random.Random(1000 + seed)
            roots = rng.sample([F(num, 32) for num in range(-64, 65)], rng.randint(1, 8))
            p = Polynomial.from_roots(roots)
            iv = RatInterval(F(-3), F(3))
            assert count_real_roots(p, iv) == len(isolate_roots(p, iv))

    def test_isolation_excludes_root_at_lo(self):
        p = Polynomial.from_roots([F(0), F(1, 2)])
        out = isolate_roots(p, RatInterval(0, 1))
        assert len(out) == 1
        assert out[0].contains(F(1, 2))

    def test_root_at_hi_is_degenerate_and_root_at_lo_excluded(self):
        p = Polynomial.from_roots([F(0), F(1, 3), F(1)])
        out = isolate_roots(p, RatInterval(0, 1))
        assert len(out) == 2  # nothing reported for the root at lo = 0
        assert out[0].lo < F(1, 3) < out[0].hi
        assert out[1] == RatInterval(1, 1)


# ---------------------------------------------------------------- refinement


class TestRefinement:
    def test_sqrt_two_to_six_places(self):
        p = poly(-2, 0, 1)
        out = refine_root(p, RatInterval(1, 2), F(1, 10**6))
        assert out.width <= F(1, 10**6)
        # the interval must bracket sqrt(2): check exactly by squaring
        assert out.lo**2 <= 2 <= out.hi**2

    def test_rational_root_hit(self):
        out = refine_root(poly(F(-1, 3), 1), RatInterval(0, 1), F(1, 1000))
        assert out.contains(F(1, 3))
        assert out.width <= F(1, 1000)

    def test_degenerate_input_is_exact(self):
        iv = RatInterval(F(1, 2), F(1, 2))
        assert refine_root(poly(F(-1, 2), 1), iv, F(1, 10)) == iv

    def test_even_multiplicity_refines_via_counts(self):
        p = (X - ONE) ** 2
        out = refine_root(p, RatInterval(0, F(3, 2)), F(1, 1024))
        assert out.lo <= 1 <= out.hi
        assert out.width <= F(1, 1024)

    def test_rejects_two_roots(self):
        with pytest.raises(ValueError):
            refine_root(poly(-1, 0, 1), RatInterval(-2, 2), F(1, 10))
        # a sign change across the window does not excuse extra roots
        with pytest.raises(ValueError):
            refine_root(Polynomial.from_roots([1, 2, 3]), RatInterval(0, 4), F(1, 10))

    def test_root_at_hi_comes_back_degenerate(self):
        p = Polynomial.from_roots([F(0), F(1)])
        assert refine_root(p, RatInterval(0, 1), F(1, 10)) == RatInterval(1, 1)

    def test_rejects_rootless(self):
        with pytest.raises(ValueError):
            refine_root(poly(1, 0, 1), RatInterval(0, 1), F(1, 10))

    def test_refines_between_two_root_endpoints(self):
        # both ends are roots, so no endpoint sign tells the side: it counts
        p = Polynomial.from_roots([F(0), F(1, 3), F(1)])
        core = DescartesIsolator(p)
        iv, at_hi = core.isolate(F(0), F(1))
        assert (iv, at_hi) == (RatInterval(0, 1), RatInterval(1, 1))
        out = core.refine(iv, F(1, 1000))
        assert out == OracleSturm(p).refine(iv, F(1, 1000))
        assert out.lo < F(1, 3) < out.hi and out.width <= F(1, 1000)

    @pytest.mark.parametrize("width", [-1, 0, F(-1, 3)])
    def test_rejects_nonpositive_width(self, width):
        # bisection could never reach such a width
        with pytest.raises(ValueError, match="width must be positive"):
            refine_root(poly(-2, 0, 1), RatInterval(1, 2), width)
        with pytest.raises(ValueError, match="width must be positive"):
            refine_root(poly(-1, 1), RatInterval(1, 1), width)


def test_integer_refine_matches_sturm_on_non_dyadic_windows():
    # annulus windows (0, 1/alpha**2) whose width is no power of two, so the
    # bisection denominators mix the window's own with the powers of two
    reached = dict.fromkeys(["midpoint_hit", "both_ends_roots", "refined"], 0)
    for alpha in (F(2, 3), F(3, 5), F(5, 7)):
        h_max = 1 / alpha**2
        cases = [
            # 3/4 of the window is the midpoint of the right half: refining
            # the right half's root hits it exactly
            Polynomial.from_roots([h_max / 5, h_max * F(3, 4)]),
            # roots at both ends and one inside: only counts tell the side
            Polynomial.from_roots([0, h_max / 3, h_max]),
            # irrational roots: sqrt(2) and sqrt(3/2), with 1/3 beside them
            poly(-2, 0, 1) * poly(-3, 0, 2) * poly(-1, 3),
        ]
        widths = (F(1, 3), h_max / 2**20, h_max / 10**30)
        for p in cases:
            core, oracle = DescartesIsolator(p), OracleSturm(p)
            for iv in core.isolate(F(0), h_max):
                if iv.lo == iv.hi:
                    continue
                both_roots = core.sign_at(iv.lo) == 0 and core.sign_at(iv.hi) == 0
                reached["both_ends_roots"] += both_roots
                for width in widths:
                    out = core.refine(iv, width)
                    assert out == oracle.refine(iv, width)
                    assert out.lo == out.hi or out.width <= width
                    assert iv.lo <= out.lo <= out.hi <= iv.hi
                    reached["midpoint_hit"] += out.lo == out.hi
                    reached["refined"] += 1
    assert min(reached.values()) >= 3, reached


# ------------------------------------------ Descartes core vs Sturm oracle


@st.composite
def _isolation_cases(draw):
    """(p, lo, hi): planted roots with multiplicities 1..3 times a small
    random factor, and a window that is free, negative, ends at a root, or
    puts a root at a dyadic point k/2**j of itself (often its centre)."""
    roots = draw(st.lists(st.fractions(-4, 4, max_denominator=8), max_size=5))
    p = Polynomial.constant(draw(st.sampled_from([-3, -1, 1, 2, 5])))
    for r in roots:
        p = p * Polynomial.from_roots([r]) ** draw(st.integers(1, 3))
    extra = Polynomial(draw(st.lists(st.integers(-6, 6), max_size=4)))
    if not extra.is_zero:
        p = p * extra
    width = draw(st.fractions(F(1, 8), 8, max_denominator=8))
    kinds = ["free", "negative", "root_at_hi", "root_at_lo", "dyadic", "centred"]
    kind = draw(st.sampled_from(kinds))
    if kind != "free" and kind != "negative" and roots:
        r = draw(st.sampled_from(roots))
        if kind == "root_at_hi":
            return p, r - width, r
        if kind == "root_at_lo":
            return p, r, r + width
        if kind == "centred":
            return p, r - width, r + width
        j = draw(st.integers(1, 4))
        k = draw(st.integers(0, 2 ** (j - 1) - 1)) * 2 + 1
        return p, r - width * k / 2**j, r - width * k / 2**j + width
    if kind == "negative":
        hi = -draw(st.fractions(0, 4, max_denominator=8))
        return p, hi - width, hi
    lo = draw(st.fractions(-6, 4, max_denominator=8))
    return p, lo, lo + width


def _dyadic_root(p, lo, hi):
    """p has a root at lo + (hi - lo) * k / 2**j for some 0 < k < 2**j <= 16."""
    return any(p.eval(lo + (hi - lo) * F(k, 16)) == 0 for k in range(1, 16))


def test_descartes_core_agrees_with_sturm_oracle():
    seen = dict.fromkeys(
        ["dyadic_root", "exact_hit", "root_at_hi", "root_at_lo", "negative",
         "constant", "repeated", "refined"], 0)

    @settings(max_examples=600, derandomize=True, deadline=None)
    @given(_isolation_cases())
    def check(case):
        p, lo, hi = case
        oracle, iv = OracleSturm(p), RatInterval(lo, hi)
        assert count_real_roots(p, iv) == oracle.count(lo, hi)
        got = isolate_roots(p, iv)
        # the same dyadic tree gives the same intervals, exact endpoints
        assert got == oracle.isolate(lo, hi)
        core, _multiple = polynomials.squarefree_factors(p)
        for r in got:
            if r.lo == r.hi:
                assert p.eval(r.lo) == 0
                seen["exact_hit"] += r.lo != hi
                continue
            # exactly one oracle root strictly inside; a root at the end
            # only where the window's own end is one
            at_hi = oracle.sign_at(r.hi) == 0
            assert oracle.count(r.lo, r.hi) - at_hi == 1
            assert not at_hi or r.hi == hi
            width = r.width / 1000
            assert core.refine(r, width) == oracle.refine(r, width)
            seen["refined"] += 1
        seen["dyadic_root"] += _dyadic_root(p, lo, hi)
        seen["root_at_hi"] += p.eval(hi) == 0
        seen["root_at_lo"] += p.eval(lo) == 0
        seen["negative"] += hi < 0
        seen["constant"] += p.degree == 0
        seen["repeated"] += any(m > 1 for _f, m in oracle_yun(p))

    check()
    # midpoint hits inside a node with another root are the rarest draw
    assert seen.pop("exact_hit") >= 10
    assert min(seen.values()) >= 30, seen


# ---------------------------------------------------------------- descartes


class TestDescartes:
    def test_two_positive_roots(self):
        assert descartes_bound(poly(2, -3, 1)) == 2

    def test_no_positive_roots(self):
        assert descartes_bound(poly(1, 1, 1)) == 0

    @given(
        st.lists(
            st.tuples(st.integers(0, 12), st.fractions(min_value=F(1, 8), max_value=4, max_denominator=8)),
            min_size=1,
            max_size=5,
        ),
        st.data(),
    )
    def test_sparse_bound(self, terms, data):
        # t nonzero terms allow at most t-1 sign changes
        powers = sorted({p for p, _ in terms})
        coeffs = {}
        for p in powers:
            coeffs[p] = data.draw(st.sampled_from([-1, 1])) * dict(terms)[p]
        poly_sparse = Polynomial(
            [coeffs.get(k, 0) for k in range(max(powers) + 1)]
        )
        assert descartes_bound(poly_sparse) <= len(powers) - 1

    def test_bound_and_parity_on_planted_roots(self):
        import random

        for seed in range(60):
            rng = random.Random(2000 + seed)
            roots, mults = [], []
            for _ in range(rng.randint(1, 4)):
                roots.append(F(rng.randint(-40, 40), rng.randint(1, 8)))
                mults.append(rng.randint(1, 2))
            p = Polynomial.one()
            for r, m in zip(roots, mults):
                p = p * Polynomial.from_roots([r]) ** m
            positives = count_positive_roots_with_multiplicity(p)
            bound = descartes_bound(p)
            assert bound >= positives
            assert (bound - positives) % 2 == 0


class TestCauchyBound:
    @given(st.lists(rationals, min_size=1, max_size=6))
    def test_every_planted_root_is_inside(self, roots):
        p = Polynomial.from_roots(roots)
        bound = cauchy_root_bound(p)
        assert all(abs(r) <= bound for r in roots)


def test_format_poly_round_trips_visually():
    p = poly(1, F(-3, 2), 0, 2)
    assert format_poly(p, "h") == "2*h^3 - 3/2*h + 1"
    assert format_poly(Polynomial.zero()) == "0"
