"""Exact polynomial algebra and certified root counting.

The root-counting oracles are a brute-force sign-change scan on a fine grid
with exact integer arithmetic and a Sturm-chain isolator on rational
remainders, both independent of the Descartes core they check.
"""

import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from melcert import polynomials
from melcert.intervals import RatInterval
from melcert.polynomials import (
    DescartesIsolator,
    Polynomial,
    count_real_roots,
    format_poly,
    isolate_roots,
    poly_gcd,
    refine_root,
    squarefree_factors,
    squarefree_part,
)

from oracles import (
    OracleSturm,
    cauchy_root_bound,
    descartes_bound,
    grid_scan_count,
    oracle_gcd,
    oracle_taylor_shift,
    oracle_yun,
    primitive_ints,
    sign_changes,
)

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
        # the reference decomposition that the multiplicity tests rest on
        p = (X - ONE) ** 3 * (X + ONE) * poly(-2, 0, 1) ** 2
        parts = oracle_yun(p)
        rebuilt = Polynomial.one()
        for factor, mult in parts:
            rebuilt = rebuilt * factor**mult
        # equal up to the leading constant
        assert rebuilt.monic() == p.monic()
        assert sorted(m for _, m in parts) == [1, 2, 3]


# ---------------------------------------------------------------- gcd over Z


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


def _gcd_cases(count, seed):
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


class TestIntegerRemainderSequence:
    """The modular gcd over Z and the squarefree decision on it, against
    the Fraction oracles."""

    CASES = _gcd_cases(360, seed=20240)

    def test_squarefree_flag_matches_yun(self):
        # multiple is None exactly when the oracle finds no repeated factor,
        # and the isolator holds the primitive squarefree part
        repeated = 0
        for p in self.CASES:
            expected = all(m == 1 for _f, m in oracle_yun(p))
            core, multiple = squarefree_factors(primitive_ints(p))
            assert (multiple is None) == expected, p
            assert Polynomial(core._ic) == squarefree_part(p).primitive(), p
            repeated += not expected
        assert repeated >= 60
        assert sum(p.leading < 0 for p in self.CASES) >= 100
        assert sum(p.degree <= 1 for p in self.CASES) >= 20

    def test_certificate_skips_a_prime_dividing_the_leading_coefficient(self):
        q1 = polynomials._PRIMES[0]
        # (q1 x + 1)**2 reduces to the constant 1 mod q1, which would pass
        # for squarefree; the next prime sees the double root
        double = Polynomial((1, q1)) ** 2 * poly(-2, 1)
        assert squarefree_factors(primitive_ints(double))[1] is not None
        assert count_real_roots(double, RatInterval(-1, 3)) == 2
        assert squarefree_factors(primitive_ints(Polynomial((1, q1)) * poly(-2, 1)))[1] is None

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
        q1 = polynomials._PRIMES[0]
        common, big = poly(1, 0, 1), 2**4001 + 1
        edges = [
            # mod q1 the images share x + 3 besides the common factor
            (common * poly(3, 1), common * poly(3 + q1, 1)),
            # q1 divides l = gcd(lc a, lc b), so the gcd skips it
            (poly(1, q1) * poly(-5, 1), poly(1, q1) * poly(7, 2) * poly(1, 1)),
            # 4000-bit coefficients: the CRT spans more than 60 primes
            (poly(-(3**2600), big, 1) * poly(1, 1), poly(-(3**2600), big, 1) * poly(-5, 2)),
            (poly(big, 3**2600) * poly(2, 0, 1), poly(big, 3**2600) * poly(-1, 7)),
        ]
        for a, b in edges:
            assert poly_gcd(a, b) == oracle_gcd(a, b), (a, b)
        assert len(polynomials._PRIMES) > 60

    def test_gcd_with_one_input_not_primitive(self):
        # a primitive, b any nonzero int list: the gcd over Z is primitive,
        # and exact division certifies it, whether the multiplier k is
        # small, the first prime (b vanishes mod it), 2**61 - 1 or lc a
        import random

        rng = random.Random(61)
        for p in self.CASES:
            common = _random_poly(rng, 3)
            a = primitive_ints(p * common)
            b = primitive_ints(_random_poly(rng, 5, sparse=True) * common)
            expected = oracle_gcd(Polynomial(a), Polynomial(b))
            for k in (6, polynomials._PRIMES[0], 2**61 - 1, a[-1]):
                g = polynomials._int_gcd(a, [k * c for c in b])
                assert Polynomial(g).monic() == expected, (a, b, k)
                assert g[-1] > 0 and math.gcd(*g) == 1

    def test_gcd_with_zero_and_constant_arguments(self):
        zero, p = Polynomial.zero(), poly(F(-2, 3), 0, -4)
        assert poly_gcd(zero, zero).is_zero
        assert poly_gcd(p, zero) == poly_gcd(zero, p) == p.monic()
        assert poly_gcd(p, Polynomial.constant(-3)) == ONE
        assert poly_gcd(X, X.scale(-2)) == X
        # the first prime is unlucky: mod q1 both are x, over Z coprime
        q1 = polynomials._PRIMES[0]
        assert poly_gcd(X, poly(q1, 1)) == oracle_gcd(X, poly(q1, 1)) == ONE

    def test_gcd_primes_are_the_primes_below_the_first(self):
        # Miller-Rabin against trial division on small odd numbers, and a
        # strong pseudoprime to the first eleven prime bases
        for n in range(41, 20000, 2):
            assert polynomials._is_prime(n) == all(n % d for d in range(3, math.isqrt(n) + 1, 2))
        assert not polynomials._is_prime(3825123056546413051)
        assert polynomials._is_prime(2**61 - 1) and not polynomials._is_prime(2**61 + 1)
        primes = list(itertools.islice(polynomials._primes(), 5))
        # the first is the largest prime below 2**30, so every residue and
        # every reduced product is one 30-bit digit of a CPython int
        assert primes[0] == 2**30 - 35 < 2**30 and primes == sorted(primes, reverse=True)
        assert not any(polynomials._is_prime(n) for n in range(primes[0] + 2, 2**30, 2))
        for lo, hi in zip(primes[1:], primes):
            assert not any(polynomials._is_prime(n) for n in range(lo + 2, hi, 2))

    def test_gcd_of_planted_factors_that_need_many_primes(self, monkeypatch):
        # a small gcd under a 3000-bit l = gcd(lc a, lc b): l/lc(g) * g has
        # the bits of l, but g/lc(g) is rebuilt as rationals from two primes;
        # and degree-8 gcds with 500-bit coefficients, whose lift spans many
        import random

        rng = random.Random(3000)
        calls = []
        real = polynomials._gcd_mod

        def counting(a, b, q):
            calls.append(q)
            return real(a, b, q)

        monkeypatch.setattr(polynomials, "_gcd_mod", counting)
        lead = 3**1900 * 7  # 3015 bits
        small = [2, -3, 0, 1]
        for k in range(4):
            f1 = [rng.randint(-(2**40), 2**40) for _ in range(3 + k)] + [lead * rng.randint(1, 9)]
            f2 = [rng.randint(-(2**40), 2**40) for _ in range(2)] + [lead * rng.randint(1, 9)]
            a = primitive_ints(Polynomial(polynomials._prod(small, f1)))
            b = polynomials._prod(small, f2)
            expected = oracle_gcd(Polynomial(a), Polynomial(b))
            calls.clear()
            g = polynomials._int_gcd(a, b)
            assert Polynomial(g).monic() == expected and expected.degree >= 3
            assert g[-1] > 0 and math.gcd(*g) == 1
            assert len(calls) <= 3, calls  # 2 as a rule; about 50 by l's bits
        for k in range(4):
            # gcd(a, a') for a = common**2 * f[0], or gcd(common * f[0], common * f[1])
            common = [rng.randint(-(2**500), 2**500) for _ in range(8)] + [rng.randint(1, 2**500)]
            f = [[rng.randint(-(2**20), 2**20) for _ in range(4)] + [lc] for lc in (1 + k, 2**300)]
            if k % 2:
                a = primitive_ints(Polynomial(polynomials._prod(common, f[0])))
                b = polynomials._prod(common, f[1])
            else:
                a = primitive_ints(Polynomial(polynomials._prod(common, common, f[0])))
                b = [i * c for i, c in enumerate(a)][1:]
            expected = oracle_gcd(Polynomial(a), Polynomial(b))
            calls.clear()
            g = polynomials._int_gcd(a, b)
            assert Polynomial(g).monic() == expected and expected.degree == 8
            assert g[-1] > 0 and math.gcd(*g) == 1
            assert len(calls) >= 17  # at least the 500 bits of g

    def test_longer_image_at_an_unlucky_prime_is_dropped(self, monkeypatch):
        # a = (x+2)(x+1), b = (x+2)(x+1+q2): mod q2 the gcd is a itself, one
        # degree too high, so that image is dropped and the lift goes on
        # from the first prime's; combining it would make the CRT wrong
        q2 = list(itertools.islice(polynomials._primes(), 2))[1]
        a, b = [2, 3, 1], [2 * (1 + q2), 3 + q2, 1]
        lengths = []
        real = polynomials._gcd_mod

        def counting(a, b, q):
            g = real(a, b, q)
            lengths.append(len(g))
            assert len(lengths) <= 3, "the lift did not end at the third image"
            return g

        monkeypatch.setattr(polynomials, "_gcd_mod", counting)
        assert polynomials._int_gcd(a, b) == [2, 1]
        assert lengths == [2, 3, 2]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            DescartesIsolator(primitive_ints(Polynomial.zero()))
        with pytest.raises(ValueError):
            squarefree_factors(primitive_ints(Polynomial.zero()))
        # the root core's format: an int list with a nonzero last entry
        for ic in ([], [0], [1, 0], [3, -2, 0]):
            with pytest.raises(ValueError, match="nonzero last coefficient"):
                DescartesIsolator(ic)


def test_rational_reconstruction_round_trips_inside_the_bound():
    # m the product of the first k primes, n = isqrt(m/2): every num/den
    # with |num|, den <= n, coprime, comes back from num/den mod m; outside
    # the bound the result is None or the one pair inside it congruent to
    # c; and when (p*num, p*den) is the pair inside, p | m, there is none
    seen = dict.fromkeys(["inside", "outside", "outside_other", "shared"], 0)

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(st.data())
    def check(data):
        k = data.draw(st.integers(1, 5))
        primes = list(itertools.islice(polynomials._primes(), k))
        m = math.prod(primes)
        n = math.isqrt(m // 2)
        # (p*num, p*den) fits inside the bound once m has three primes
        case = data.draw(st.sampled_from(["inside", "outside", "shared"][: 2 + (k >= 3)]))
        if case == "shared":
            p = data.draw(st.sampled_from(primes))
            num, den = data.draw(st.integers(-(2**10), 2**10)), data.draw(st.integers(1, 2**10))
            e = data.draw(st.integers(0, p - 1))
            if math.gcd(num, den) != 1 or e * den % p == num % p:
                return
            rest = m // p
            x = num * pow(den, -1, rest) % rest  # c: num/den mod m/p, e mod p
            c = x + rest * ((e - x) * pow(rest, -1, p) % p)
            assert abs(p * num) <= n and p * den <= n
            assert polynomials._rational(c, m) is None
            seen["shared"] += 1
            return
        if case == "inside":
            num, den = data.draw(st.integers(-n, n)), data.draw(st.integers(1, n))
        elif data.draw(st.booleans()):
            num = data.draw(st.integers(n + 1, 4 * n)) * data.draw(st.sampled_from([1, -1]))
            den = data.draw(st.integers(1, 4 * n))
        else:
            num, den = data.draw(st.integers(-4 * n, 4 * n)), data.draw(st.integers(n + 1, 4 * n))
        if math.gcd(num, den) != 1 or math.gcd(den, m) != 1:
            return
        c = num * pow(den, -1, m) % m
        got = polynomials._rational(c, m)
        if case == "inside":
            assert got == (num, den)
        elif got is not None:
            r, t = got
            assert (r, t) != (num, den) and abs(r) <= n and 0 < t <= n
            assert math.gcd(r, t) == 1 and (r - c * t) % m == 0
            case = "outside_other"
        seen[case] += 1

    check()
    assert min(seen["inside"], seen["outside"]) >= 50 and seen["shared"] >= 20, seen
    assert seen["outside_other"] >= 5, seen  # a congruent pair inside the bound


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
        # with multiplicity, by counting each Yun factor's roots
        assert sum(m * count_real_roots(f, iv) for f, m in oracle_yun(p)) == 5


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
        core = DescartesIsolator(primitive_ints(p))
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
            core, oracle = DescartesIsolator(primitive_ints(p)), OracleSturm(p)
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


def near_end_cases():
    """(p, lo, hi, depth) with one root of p strictly inside the window
    (lo, hi), which a bisection of the window meets only deep down: within
    w/2**k of either end (w = hi - lo), for k in (64, 200, 400), as a
    non-dyadic root, or as an exact dyadic hit deeper than 64 levels; each
    in (0, 1) and in the non-dyadic window (0, 9/4).  depth is the level of
    the hit, or k.  Some windows have roots at both ends."""
    cases = []
    for lo, hi in ((F(0), F(1)), (F(0), F(9, 4))):
        w = hi - lo
        roots = []
        for k in (64, 200, 400):
            roots += [(lo + w / (3 * 2**k), k), (hi - w / (3 * 2**k), k)]
        # exact hits: next to lo, just right of the midpoint, next to hi
        for m, j in ((1, 70), (2**79 + 1, 80), (2**100 - 3, 100), (5, 300)):
            roots.append((lo + w * F(m, 2**j), j))
        for r, depth in roots:
            outside = Polynomial.from_roots([lo - w / 3, hi + w / 7]) * poly(1, 0, 1)
            cases.append((outside * Polynomial.from_roots([r]), lo, hi, depth))
            if depth == 200:
                cases.append((Polynomial.from_roots([lo, r, hi]), lo, hi, depth))
    return cases


def test_refine_next_to_the_window_ends():
    reached = dict.fromkeys(["hit", "stopped_short", "refined", "both_ends_roots"], 0)
    for p, lo, hi, depth in near_end_cases():
        core, oracle = DescartesIsolator(primitive_ints(p)), OracleSturm(p)
        iv = RatInterval(lo, hi)
        reached["both_ends_roots"] += p.eval(lo) == 0
        for levels in (depth - 3, depth, depth + 1, depth + 40, 700):
            width = (hi - lo) / 2**levels
            out = core.refine(iv, width)
            assert out == oracle.refine(iv, width)
            if out.lo == out.hi:
                reached["hit"] += 1
            else:
                assert out.width <= width
                reached["stopped_short" if levels < depth else "refined"] += 1
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
        core, _multiple = polynomials.squarefree_factors(primitive_ints(p))
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


# ------------------------------------------ Taylor shift vs the loop reference

# small entries make zero coefficients common
_int_lists = st.lists(
    st.one_of(st.integers(-3, 3), st.integers(-(2**300), 2**300)), max_size=40
)
_shifts = st.one_of(
    st.sampled_from([0, 1, -1, 2**64, -(2**64)]), st.integers(-(2**70), 2**70)
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_int_lists, _shifts)
def test_taylor_shift_matches_the_double_loop(c, a):
    assert polynomials._taylor_shift(c, a) == oracle_taylor_shift(c, a)


def _oracle_count01(c):
    """Descartes' bound for the roots of c in (0, 1), capped at 2: the sign
    variations of (x + 1)**d c(1/(x + 1))."""
    t = oracle_taylor_shift(c[::-1], 1)
    return min(sign_changes([(x > 0) - (x < 0) for x in t]), 2)


# nonzero lists of degree 0 to 40; a third of them times 2x - 1, so that
# c(1/2) = 0, and a third with a last entry that makes c(1) = 0
_bernstein_cases = st.one_of(
    _int_lists,
    _int_lists.map(lambda c: [2 * a - b for a, b in zip([0] + c, c + [0])]),
    _int_lists.map(lambda c: c + [-sum(c)]),
).filter(any)


def test_bernstein_counts_match_the_power_basis():
    seen = dict.fromkeys(["zero", "one", "two", "apex_zero", "child_two", "root_at_1"], 0)

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(_bernstein_cases)
    def check(c):
        b = polynomials._bernstein(c)
        got = polynomials._variations(b)
        assert got == _oracle_count01(c)
        seen[("zero", "one", "two")[got]] += 1
        seen["root_at_1"] += b[-1] == 0
        # the halves of (0, 1): 2**d c(x/2) and the same shifted by 1
        d = len(c) - 1
        halved = [ck << (d - k) for k, ck in enumerate(c)]
        left, right = polynomials._de_casteljau(b)
        counts = polynomials._variations(left), polynomials._variations(right)
        assert counts == (_oracle_count01(halved), _oracle_count01(oracle_taylor_shift(halved, 1)))
        seen["child_two"] += 2 in counts
        # the apex is 2**d b(1/2), up to the positive scale
        assert left[-1] == right[0]
        assert (right[0] == 0) == (sum(halved) == 0)
        seen["apex_zero"] += right[0] == 0

    check()
    assert min(seen.values()) >= 10, seen


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
            positives = sum(m for r, m in zip(roots, mults) if r > 0)
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
