"""Exact univariate polynomial algebra over the rationals.

`Polynomial` holds `fractions.Fraction` coefficients, and nothing in this
module touches floating point.  The root core works in plain ints: one
pseudo-remainder routine builds the primitive remainder sequence over Z
that serves both `poly_gcd` and `SturmChain`.  `SturmChain` is the one
root isolator: built once per polynomial, it certifies on the way whether
the polynomial is squarefree, counts roots on half-open windows, isolates
them with exact rational endpoints and refines them by bisection.
`count_real_roots`, `isolate_roots` and `refine_root` are entry points
that build one chain for an arbitrary polynomial, falling back to its
squarefree part only when it has a multiple root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


def as_rational(x) -> Fraction:
    """Coerce ints, strings ("3/4", "0.25") and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


@dataclass(frozen=True)
class Interval:
    """Rational interval [lo, hi].

    Root-counting operations interpret intervals as half-open (lo, hi]:
    a root exactly at `lo` is excluded, one at `hi` is included.  A
    degenerate interval (lo == hi) pins a root exactly.
    """

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", as_rational(self.lo))
        object.__setattr__(self, "hi", as_rational(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {self.lo} > {self.hi}")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, q) -> bool:
        q = as_rational(q)
        return self.lo <= q <= self.hi


class Polynomial:
    """Dense univariate polynomial; coeffs[k] is the weight of x**k.

    The zero polynomial is the empty tuple and has degree -1.  Instances
    are immutable and hashable, so they are safe to share and cache.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [as_rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Polynomial is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((0, 1))

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls((as_rational(c),))

    @classmethod
    def monomial(cls, power: int, coeff=1) -> "Polynomial":
        if power < 0:
            raise ValueError("monomial power must be >= 0")
        return cls((0,) * power + (as_rational(coeff),))

    @classmethod
    def from_roots(cls, roots: Sequence) -> "Polynomial":
        p = cls.one()
        for r in roots:
            p = p * cls((-as_rational(r), 1))
        return p

    # -- basic queries ---------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero or other.is_zero:
            return Polynomial.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    def scale(self, c) -> "Polynomial":
        c = as_rational(c)
        return Polynomial(tuple(a * c for a in self.coeffs))

    def shift_up(self, k: int) -> "Polynomial":
        """Multiply by x**k."""
        if self.is_zero:
            return self
        return Polynomial((Fraction(0),) * k + self.coeffs)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(k * c for k, c in enumerate(self.coeffs) if k > 0))

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """self(inner(x)), by Horner over polynomials."""
        result = Polynomial.zero()
        for c in reversed(self.coeffs):
            result = result * inner + Polynomial.constant(c)
        return result

    def eval(self, x) -> Fraction:
        x = as_rational(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __call__(self, x) -> Fraction:
        return self.eval(x)

    # -- division ---------------------------------------------------

    def __divmod__(self, other: "Polynomial"):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Polynomial.zero(), self
        quot = [Fraction(0)] * (dq + 1)
        dl = other.leading
        for k in range(dq, -1, -1):
            top = rem[k + other.degree]
            if top == 0:
                continue
            f = top / dl
            quot[k] = f
            for j, c in enumerate(other.coeffs):
                rem[k + j] -= f * c
        return Polynomial(quot), Polynomial(rem[: other.degree])

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def exact_div(self, other: "Polynomial") -> "Polynomial":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError("division is not exact")
        return q

    # -- normalizations ---------------------------------------------------

    def monic(self) -> "Polynomial":
        if self.is_zero:
            return self
        return self.scale(1 / self.leading)

    def primitive(self) -> "Polynomial":
        """Scale by a positive rational so coefficients are coprime integers."""
        return Polynomial(_primitive_ints(self)) if self.coeffs else self


def _content_free(ic: list) -> list:
    """Divide an int coefficient list by its positive content."""
    g = math.gcd(*ic)
    return ic if g <= 1 else [c // g for c in ic]


def _primitive_ints(p: Polynomial) -> list:
    """Coefficients of p.primitive() as plain ints (p nonzero)."""
    den = math.lcm(*(c.denominator for c in p.coeffs))
    return _content_free([c.numerator * (den // c.denominator) for c in p.coeffs])


def _neg_prem(a: list, b: list) -> list:
    """A positive multiple of -(a mod b), computed in plain ints.

    Pseudo-divides lc(b)**(d+1) * a by b, d = deg a - deg b >= 0, which
    keeps every step integral, then multiplies by -sign(lc b)**(d+1) so
    the result has the sign of the rational -(a mod b).  Lists run from
    the constant term up; the zero polynomial is the empty list.
    """
    r = list(a)
    lb, db = b[-1], len(b) - 1
    steps = len(a) - db
    for k in range(steps - 1, -1, -1):
        # r <- lb * r - top * x**k * b, whose x**(k+db) term cancels
        top = r.pop()
        r = [lb * c for c in r[:k]] + [lb * c - top * bj for c, bj in zip(r[k:], b)]
    if lb > 0 or steps % 2 == 0:
        r = [-c for c in r]
    while r and r[-1] == 0:
        r.pop()
    return r


def _primitive_prs(a: list, b: list) -> list:
    """Primitive Sturm remainder sequence of a, b over Z (deg a >= deg b).

    [a, b, r2, r3, ...] with r(k+1) the primitive part of -(r(k-1) mod
    r(k)), ending at a constant or where the next remainder vanishes: the
    last member is gcd(a, b) up to a nonzero factor (Collins 1967; Brown
    1971).  Every member is a primitive, positive multiple of what the
    rational remainder sequence gives, so signs at any point agree.
    """
    prs = [a, b]
    while len(prs[-1]) > 1:
        r = _neg_prem(prs[-2], prs[-1])
        if not r:
            break
        prs.append(_content_free(r))
    return prs


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor (1 for coprime, 0 only if both zero)."""
    if a.is_zero or b.is_zero:
        return (b if a.is_zero else a).monic()
    ia, ib = _primitive_ints(a), _primitive_ints(b)
    if len(ia) < len(ib):
        ia, ib = ib, ia
    return Polynomial(_primitive_prs(ia, ib)[-1]).monic()


def squarefree_part(p: Polynomial) -> Polynomial:
    """p / gcd(p, p'): same roots, all simple.  Leading sign follows p."""
    if p.is_zero:
        raise ValueError("squarefree part of the zero polynomial")
    if p.degree == 0:
        return p
    return p.exact_div(poly_gcd(p, p.derivative()))


def squarefree_decomposition(p: Polynomial) -> list:
    """Yun decomposition: [(f1, 1), (f2, 2), ...] with p ~ prod fi**i.

    Factors are monic and pairwise coprime; multiplicity-0 entries are
    omitted.  Constant p yields an empty list.
    """
    if p.is_zero:
        raise ValueError("decomposition of the zero polynomial")
    if p.degree == 0:
        return []
    out = []
    g = poly_gcd(p, p.derivative())
    b = p.exact_div(g)
    c = p.derivative().exact_div(g)
    d = c - b.derivative()
    i = 1
    while b.degree > 0:
        fi = poly_gcd(b, d)
        if fi.degree > 0:
            out.append((fi, i))
        b = b.exact_div(fi)
        c = d.exact_div(fi)
        d = c - b.derivative()
        i += 1
    return out


def _sign_changes(values: Sequence[int]) -> int:
    changes = 0
    prev = 0
    for v in values:
        if v == 0:
            continue
        if prev != 0 and v != prev:
            changes += 1
        prev = v
    return changes


class SturmChain:
    """Sturm chain of a polynomial: the one root isolator.

    Built once per polynomial, as the primitive remainder sequence of
    (p, p') over Z, and held as integer coefficient lists for fast exact
    sign evaluation at rationals.  The chain ends in gcd(p, p'), so it
    certifies on the way whether p is `squarefree`; counting, isolation
    and refinement need a squarefree p.  V(lo) - V(hi) then counts the
    roots in (lo, hi] even when an endpoint is a root: at a root of a
    squarefree polynomial the variation count V already takes its value
    from the right.
    """

    def __init__(self, p: Polynomial):
        if p.is_zero:
            raise ValueError("Sturm chain of the zero polynomial")
        ic = _primitive_ints(p)
        if len(ic) == 1:
            self._chain = [ic]
        else:
            d = _content_free([k * c for k, c in enumerate(ic)][1:])
            self._chain = _primitive_prs(ic, d)
        self._variation_cache: dict = {}

    @property
    def squarefree(self) -> bool:
        """True iff gcd(p, p') is constant, i.e. the chain ends in one."""
        return len(self._chain[-1]) == 1

    @staticmethod
    def _isign_at(ic: list, num: int, den: int) -> int:
        # sign of sum(ic[k] * (num/den)**k) == sign of the homogenised
        # sum(ic[k] * num**k * den**(d-k)), by Horner from the top
        acc = ic[-1]
        dpow = 1
        for c in reversed(ic[:-1]):
            dpow *= den
            acc = acc * num + c * dpow
        return (acc > 0) - (acc < 0)

    def sign_at(self, x: Fraction) -> int:
        """Sign of the squarefree polynomial at x."""
        return self._isign_at(self._chain[0], x.numerator, x.denominator)

    def variations_at(self, x: Fraction) -> int:
        cached = self._variation_cache.get(x)
        if cached is None:
            num, den = x.numerator, x.denominator
            cached = _sign_changes([self._isign_at(ic, num, den) for ic in self._chain])
            self._variation_cache[x] = cached
        return cached

    def count(self, lo: Fraction, hi: Fraction) -> int:
        """Distinct roots in (lo, hi]; either endpoint may be a root."""
        if lo >= hi:
            return 0
        return self.variations_at(lo) - self.variations_at(hi)

    def isolate(self, lo: Fraction, hi: Fraction) -> list:
        """Disjoint isolating intervals, one per root in (lo, hi], sorted.

        A root at hi comes back as the degenerate [hi, hi], and so does
        every root that a bisection midpoint hits exactly; every other
        interval holds exactly one root, strictly inside.
        """
        found = []
        if lo >= hi:
            return found

        def inside(a, b):  # roots in the open (a, b)
            return self.count(a, b) - (self.sign_at(b) == 0)

        def split(a: Fraction, b: Fraction):
            n = inside(a, b)
            if n == 0:
                return
            if n == 1:
                found.append(Interval(a, b))
                return
            mid = (a + b) / 2
            if self.sign_at(mid) != 0:
                split(a, mid)
                split(mid, b)
                return
            found.append(Interval(mid, mid))
            # retreat to nearby non-root cut points around the exact hit
            delta = (b - a) / 4
            while True:
                left, right = mid - delta, mid + delta
                if (
                    self.sign_at(left) != 0
                    and self.sign_at(right) != 0
                    and self.count(left, right) == 1
                ):
                    break
                delta /= 2
            split(a, left)
            split(right, b)

        split(lo, hi)
        if self.sign_at(hi) == 0:
            found.append(Interval(hi, hi))
        found.sort(key=lambda r: (r.lo, r.hi))
        return found

    def refine(self, iv: Interval, width) -> Interval:
        """Bisect an isolating interval down to the requested width.

        The interval must be degenerate or hold exactly one root strictly
        inside; either endpoint may itself be a root.  A midpoint that hits
        the root exactly comes back as a degenerate interval.
        """
        lo, hi = iv.lo, iv.hi
        s_hi = self.sign_at(hi)
        while hi - lo > width:
            mid = (lo + hi) / 2
            s = self.sign_at(mid)
            if s == 0:
                return Interval(mid, mid)
            # a simple root lies left of mid iff mid has hi's sign; while
            # hi is itself a root the count decides instead
            if s == s_hi or (s_hi == 0 and self.count(lo, mid) == 1):
                hi, s_hi = mid, s
            else:
                lo = mid
        return Interval(lo, hi)


def _squarefree_chain(p: Polynomial) -> SturmChain:
    """Chain of p itself, or of its squarefree part when p has a multiple
    root (only then is a gcd computed)."""
    chain = SturmChain(p)
    return chain if chain.squarefree else SturmChain(squarefree_part(p))


def count_real_roots(p: Polynomial, iv: Interval) -> int:
    """Exact number of distinct real roots of p in (iv.lo, iv.hi]."""
    if p.is_zero:
        raise ValueError("root count of the zero polynomial")
    return _squarefree_chain(p).count(iv.lo, iv.hi)


def count_real_roots_with_multiplicity(p: Polynomial, iv: Interval) -> int:
    """Roots in (iv.lo, iv.hi] counted with their multiplicities."""
    if p.is_zero:
        raise ValueError("root count of the zero polynomial")
    return sum(
        mult * SturmChain(factor).count(iv.lo, iv.hi)
        for factor, mult in squarefree_decomposition(p)
    )


def isolate_roots(p: Polynomial, iv: Interval) -> list:
    """Isolating intervals, one per distinct root of p in (lo, hi], sorted.

    Returned intervals are either degenerate (an exact rational root, or
    the root at hi) or hold exactly one root strictly inside.
    """
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    return _squarefree_chain(p).isolate(iv.lo, iv.hi)


def refine_root(p: Polynomial, iv: Interval, width) -> Interval:
    """Shrink an isolating interval by bisection to the requested width.

    The input must isolate a single root: p has exactly one distinct root
    in (lo, hi], whether or not p changes sign across the endpoints.
    """
    if p.is_zero:
        raise ValueError("cannot refine a root of the zero polynomial")
    if iv.lo == iv.hi:
        if p.eval(iv.lo) != 0:
            raise ValueError("degenerate interval does not contain a root")
        return iv
    chain = _squarefree_chain(p)
    if chain.count(iv.lo, iv.hi) != 1:
        raise ValueError("interval does not isolate exactly one root")
    if chain.sign_at(iv.hi) == 0:
        return Interval(iv.hi, iv.hi)
    return chain.refine(iv, as_rational(width))


def descartes_bound(p: Polynomial) -> int:
    """Sign changes of the coefficient sequence: an upper bound, of the same
    parity, for the number of positive roots counted with multiplicity."""
    if p.is_zero:
        raise ValueError("Descartes bound of the zero polynomial")
    return _sign_changes([(c > 0) - (c < 0) for c in p.coeffs])


def cauchy_root_bound(p: Polynomial) -> Fraction:
    """1 + max |c_k| / |lead|: every real root lies in [-bound, bound]."""
    if p.is_zero:
        raise ValueError("root bound of the zero polynomial")
    if p.degree == 0:
        return Fraction(1)
    lead = abs(p.leading)
    return 1 + max(abs(c) for c in p.coeffs[:-1]) / lead


def count_positive_roots_with_multiplicity(p: Polynomial) -> int:
    """Positive real roots with multiplicity, over (0, cauchy bound]."""
    return count_real_roots_with_multiplicity(
        p, Interval(Fraction(0), cauchy_root_bound(p))
    )


def format_poly(p: Polynomial, var: str = "h") -> str:
    """Render with exact coefficients, highest power first: '3/2*h^2 - h + 1'."""
    if p.is_zero:
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p.coeff(k)
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            xk = var if k == 1 else f"{var}^{k}"
            body = xk if mag == 1 else f"{mag}*{xk}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
