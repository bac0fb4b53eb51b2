"""Certified rational interval arithmetic, and the interval helpers that
only the point-evaluation oracle in `oracles` uses."""

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from melcert.intervals import RatInterval, pi_interval, sqrt_rational
from melcert.polynomials import Polynomial
from oracles import ipow, poly_range, reciprocal, sqrt_interval

rat = st.fractions(min_value=-8, max_value=8, max_denominator=64)
pos_rat = st.fractions(min_value=0, max_value=10, max_denominator=999)

# reference value with far more digits than any enclosure tested here
PI_50 = F(
    "3.14159265358979323846264338327950288419716939937511"
)


class TestSqrt:
    @given(pos_rat, st.integers(8, 192))
    def test_bracket_and_width(self, q, bits):
        enc = sqrt_rational(q, bits)
        assert enc.lo >= 0
        assert enc.lo**2 <= q <= enc.hi**2
        assert enc.width <= F(1, 2**bits)

    def test_perfect_square_is_exact(self):
        enc = sqrt_rational(F(9, 4), 16)
        assert enc.lo == enc.hi == F(3, 2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sqrt_rational(F(-1), 8)

    @given(
        st.tuples(pos_rat, pos_rat).map(sorted),
        st.integers(8, 64),
    )
    def test_interval_sqrt_contains_endpoint_roots(self, pair, bits):
        lo, hi = pair
        enc = sqrt_interval(RatInterval(lo, hi), bits)
        assert enc.lo**2 <= lo and hi <= enc.hi**2


class TestPi:
    def test_enclosure_contains_reference(self):
        enc = pi_interval(128)
        assert enc.lo < PI_50 < enc.hi
        assert enc.width <= F(1, 2**128)

    def test_widths_shrink_with_bits(self):
        assert pi_interval(160).width < pi_interval(32).width


class TestArithmetic:
    @given(rat, rat, rat, rat, rat, rat)
    def test_containment_under_ops(self, a, b, c, d, x, y):
        ia = RatInterval(min(a, b), max(a, b))
        ib = RatInterval(min(c, d), max(c, d))
        # clamp the sample points into the intervals
        px = min(max(x, ia.lo), ia.hi)
        py = min(max(y, ib.lo), ib.hi)
        assert (ia + ib).contains(px + py)
        assert (ia - ib).contains(px - py)
        assert (ia * ib).contains(px * py)

    @given(rat, rat, st.integers(0, 5))
    def test_power_containment(self, a, b, n):
        iv = RatInterval(min(a, b), max(a, b))
        p = min(max(F(1, 3), iv.lo), iv.hi)
        assert ipow(iv, n).contains(p**n)

    def test_even_power_of_straddling_interval_hits_zero(self):
        iv = RatInterval(F(-2), F(3))
        sq = ipow(iv, 2)
        assert sq.lo == 0 and sq.hi == 9

    def test_reciprocal_requires_sign(self):
        with pytest.raises(ZeroDivisionError):
            reciprocal(RatInterval(F(-1), F(1)))

    def test_sign_classification(self):
        assert RatInterval(F(1, 3), F(2)).sign() == 1
        assert RatInterval(F(-2), F(-1, 5)).sign() == -1
        assert RatInterval(F(0), F(0)).sign() == 0
        assert RatInterval(F(-1), F(1)).sign() is None


@given(st.lists(rat, max_size=5), rat, rat)
def test_poly_range_contains_pointwise_values(coeffs, a, b):
    p = Polynomial(coeffs)
    iv = RatInterval(min(a, b), max(a, b))
    box = poly_range(p, iv)
    for t in (iv.lo, iv.mid, iv.hi):
        assert box.contains(p.eval(t))


@given(st.lists(rat, max_size=5), rat)
def test_poly_range_at_a_point_is_the_exact_value(coeffs, a):
    p = Polynomial(coeffs)
    point = RatInterval.point(a)
    horner = RatInterval.point(0)  # interval Horner, as for a wide interval
    for c in reversed(p.coeffs):
        horner = horner * point + RatInterval.point(c)
    box = poly_range(p, point)
    assert box == RatInterval.point(p.eval(a))
    assert box.width <= horner.width
