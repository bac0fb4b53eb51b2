"""Certified interval arithmetic with exact rational endpoints.

`RatInterval` is the one interval type.  It encloses an unknown real
wherever a square root (or pi) enters an otherwise exact computation, so
downstream sign decisions are rigorous, and it is also what the root core
of `polynomials` returns: isolating intervals, read as half-open (lo, hi]
when roots are counted, and degenerate when a root is pinned exactly.
`as_rational` is the one coercion to `Fraction`, `sqrt_bracket` the one
isqrt bracket.  This module imports no other part of melcert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


def as_rational(x) -> Fraction:
    """Coerce ints, strings ("3/4", "0.25") and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


@dataclass(frozen=True)
class RatInterval:
    """[lo, hi] with rational endpoints; encloses one unknown real.

    Root-counting operations read it as half-open (lo, hi]: a root exactly
    at `lo` is excluded, one at `hi` is included.  A degenerate interval
    (lo == hi) pins a value exactly.
    """

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", as_rational(self.lo))
        object.__setattr__(self, "hi", as_rational(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {self.lo} > {self.hi}")

    @classmethod
    def point(cls, q) -> "RatInterval":
        q = as_rational(q)
        return cls(q, q)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, q) -> bool:
        q = as_rational(q)
        return self.lo <= q <= self.hi

    def sign(self):
        """+1 / -1 when the enclosure settles the sign, 0 for the exact
        point zero, None when the interval straddles zero."""
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        if self.lo == self.hi == 0:
            return 0
        return None

    def __add__(self, other: "RatInterval") -> "RatInterval":
        return RatInterval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "RatInterval") -> "RatInterval":
        return RatInterval(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "RatInterval":
        return RatInterval(-self.hi, -self.lo)

    def __mul__(self, other: "RatInterval") -> "RatInterval":
        cands = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return RatInterval(min(cands), max(cands))

    def scale(self, q) -> "RatInterval":
        q = as_rational(q)
        if q >= 0:
            return RatInterval(self.lo * q, self.hi * q)
        return RatInterval(self.hi * q, self.lo * q)


def sqrt_bracket(n: int, d: int, bits: int) -> tuple:
    """(s, t, scale): sqrt(n/d) = sqrt(n*d)/d lies in [s, t]/scale, t == s
    if exact, else t == s + 1.  n/d >= 0 must be in lowest terms, as in a
    `Fraction`: the bracket depends on the pair.  n/d > 0 gives s >= 2**bits.
    """
    m = (n * d) << (2 * bits)
    s = math.isqrt(m)
    return s, (s if s * s == m else s + 1), d << bits


def sqrt_rational(q, bits: int) -> RatInterval:
    """Enclosure of sqrt(q) with width at most 2**-bits (exact when q is a
    perfect rational square at this scale)."""
    q = as_rational(q)
    if q < 0:
        raise ValueError("square root of a negative rational")
    s, t, scale = sqrt_bracket(q.numerator, q.denominator, bits)
    return RatInterval(Fraction(s, scale), Fraction(t, scale))


def _atan_inv(m: int, bits: int) -> RatInterval:
    """Enclosure of atan(1/m) for integer m >= 2, by the alternating series."""
    x = Fraction(1, m)
    x2 = x * x
    term = x
    total = Fraction(0)
    k = 0
    cutoff = Fraction(1, 1 << (bits + 8))
    prev = total
    while True:
        prev = total
        total += term if k % 2 == 0 else -term
        k += 1
        term = term * x2 * (2 * k - 1) / (2 * k + 1)
        if term <= cutoff and k >= 2:
            break
    lo, hi = (prev, total) if total > prev else (total, prev)
    return RatInterval(lo, hi + cutoff)


@lru_cache(maxsize=None)
def pi_interval(bits: int = 128) -> RatInterval:
    """Machin enclosure of pi: 16*atan(1/5) - 4*atan(1/239)."""
    return _atan_inv(5, bits + 6).scale(16) - _atan_inv(239, bits + 6).scale(4)
