"""Exact univariate polynomial algebra over the rationals.

`Polynomial` holds `fractions.Fraction` coefficients, and nothing in this
module touches floating point.  The root core works in plain ints and rests
on Descartes' rule of signs.  `squarefree_factors` is the one squarefree
decision: `modular_squarefree` certifies a polynomial squarefree by
gcd(p, p') modulo a prime that does not divide lc(p), and only when that
fails is gcd(p, p') taken over Z, by `poly_gcd` on its primitive remainder
sequence, for the squarefree part and the multiple roots.
`DescartesIsolator` is the one root isolator: on a squarefree polynomial
it counts roots on half-open windows, isolates them by
Vincent-Collins-Akritas bisection with exact rational endpoints and
refines them by bisection on int numerators over a doubling common
denominator, with exact integer signs.  Every interval here is an
`intervals.RatInterval`.  `count_real_roots`, `isolate_roots` and
`refine_root` are entry points that build one isolator for an arbitrary
polynomial through `squarefree_factors`.  `_cleared` is the one place
where `Fraction` coefficients become ints for the int-list helpers.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence

from .intervals import RatInterval, as_rational


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


def _cleared(*polys: Polynomial) -> tuple:
    """(den, lists): the least common positive denominator of all the
    coefficients, and each polynomial's int numerators over it."""
    den = math.lcm(*(c.denominator for p in polys for c in p.coeffs))
    return den, [[c.numerator * (den // c.denominator) for c in p.coeffs] for p in polys]


def _primitive_ints(p: Polynomial) -> list:
    """Coefficients of p.primitive() as plain ints (p nonzero)."""
    _den, (ic,) = _cleared(p)
    return _content_free(ic)


def _prod(*factors) -> list:
    """Product of int coefficient lists, constant term first."""
    out = [1]
    for f in factors:
        acc = [0] * (len(out) + len(f) - 1) if out and f else []
        for i, x in enumerate(out):
            for j, y in enumerate(f):
                acc[i + j] += x * y
        out = acc
    return out


def _square(p: list) -> list:
    """p*p as an int coefficient list, each cross term formed once."""
    out = [0] * (2 * len(p) - 1) if p else []
    for i, x in enumerate(p):
        out[2 * i] += x * x
        x2 = 2 * x
        for j, y in enumerate(p[i + 1 :], 2 * i + 1):
            out[j] += x2 * y
    return out


def _sum(*terms) -> list:
    """Sum of int coefficient lists, constant term first."""
    return [sum(cs) for cs in itertools.zip_longest(*terms, fillvalue=0)]


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
    """Primitive Sturm remainder sequence of a, b over Z (deg a >= deg b),
    which `poly_gcd` runs on.

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


# The squarefree certificate: gcd(p, p') modulo the first of these primes
# that does not divide lc(p).  They are Mersenne primes, easy to check.
_CERT_PRIMES = (2**61 - 1, 2**89 - 1, 2**107 - 1)


def _gcd_degree_mod(ic: list, q: int) -> int:
    """Degree of gcd(p, p') over GF(q), by Euclid on residues; ic holds
    p's int coefficients, constant term first."""
    a = [c % q for c in ic]
    b = [k * c % q for k, c in enumerate(a)][1:]
    while b and b[-1] == 0:
        b.pop()
    while b:
        inv, db = pow(b[-1], -1, q), len(b) - 1
        for k in range(len(a) - 1 - db, -1, -1):
            f = a[k + db] * inv % q
            if f:
                for j, c in enumerate(b):
                    a[k + j] = (a[k + j] - f * c) % q
        a = a[:db]
        while a and a[-1] == 0:
            a.pop()
        a, b = b, a
    return len(a) - 1


def modular_squarefree(p: Polynomial) -> bool:
    """True when gcd(p, p') mod a prime q not dividing lc(p) is constant.

    That certifies p squarefree over Q: a square factor g**2 of p would
    reduce mod q to one of the same degree, since q does not divide lc(g),
    and divide both p and p' there (von zur Gathen & Gerhard, *Modern
    Computer Algebra*, ch. 6).  False gives no verdict: p has a multiple
    root, or q divides its discriminant, or every prime divides lc(p).
    """
    if p.is_zero:
        raise ValueError("squarefree certificate of the zero polynomial")
    if p.degree == 0:
        return True
    ic = _primitive_ints(p)
    q = next((q for q in _CERT_PRIMES if ic[-1] % q), None)
    return q is not None and _gcd_degree_mod(ic, q) == 0


def _scaled_at(ic: list, num: int, den: int, k: int) -> int:
    """den**k * ic(num/den) as an int, for k >= deg ic: Horner on the
    homogenised sum(ic[j] * num**j * den**(k-j))."""
    acc, dpow = 0, den ** (k + 1 - len(ic))
    for c in reversed(ic):
        acc = acc * num + c * dpow
        dpow *= den
    return acc


def _taylor_shift(c: list, a: int) -> list:
    """Coefficients of c(x + a), constant term first."""
    c = list(c)
    n = len(c) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            c[j] += a * c[j + 1]
    return c


def _halve(c: list) -> list:
    """2**d * c(x/2): c on the left half of (0, 1), mapped onto (0, 1)."""
    d = len(c) - 1
    return [ck << (d - k) for k, ck in enumerate(c)]


def _variations01(c: list) -> int:
    """Descartes' bound for the roots of c in (0, 1), capped at 2.

    Counts the sign variations of (x + 1)**d c(1/(x + 1)), whose positive
    roots are those of c in (0, 1); the count is exact when it is 0 or 1.
    """
    t = _taylor_shift(c[::-1], 1)
    return min(_sign_changes([(a > 0) - (a < 0) for a in t]), 2)


def _count01(c: list) -> int:
    """Exact number of roots of the squarefree c in the open (0, 1): the
    dyadic tree walked on an explicit stack, so close roots cost no
    recursion depth."""
    total, stack = 0, [c]
    while stack:
        c = stack.pop()
        v = _variations01(c)
        if v < 2:
            total += v
            continue
        left = _halve(c)
        right = _taylor_shift(left, 1)
        total += right[0] == 0
        stack += [left, right]
    return total


class DescartesIsolator:
    """Real roots of a squarefree polynomial: the one root isolator.

    Holds p as primitive ints.  A window (a, b) is mapped affinely onto
    (0, 1) with integer coefficients, where Descartes' rule bounds the
    roots and is exact for 0 or 1.  Isolation is Vincent-Collins-Akritas
    bisection (Collins & Akritas 1976; Rouillier & Zimmermann 2004) on a
    dyadic tree: halving is x -> x/2 and the right half a Taylor shift by
    1.  It returns the intervals a Sturm-chain isolator would return on
    that tree, the largest node around each root.  Refinement bisects by
    exact integer signs.  Roots at window endpoints are allowed; counting,
    isolation and refinement need p squarefree (`modular_squarefree`).
    """

    def __init__(self, p: Polynomial):
        if p.is_zero:
            raise ValueError("root isolation of the zero polynomial")
        self._ic = _primitive_ints(p)

    def sign_at(self, x: Fraction) -> int:
        """Sign of the polynomial at x."""
        v = _scaled_at(self._ic, x.numerator, x.denominator, len(self._ic) - 1)
        return (v > 0) - (v < 0)

    def _window(self, a: Fraction, b: Fraction) -> list:
        """A positive int multiple of p(a + (b - a) x): p on (a, b) as a
        polynomial on (0, 1)."""
        den = math.lcm(a.denominator, b.denominator)
        return self._window_over(
            a.numerator * (den // a.denominator), b.numerator * (den // b.denominator), den
        )

    def _window_over(self, na: int, nb: int, den: int) -> list:
        """`_window` for a = na/den and b = nb/den, den > 0."""
        w = nb - na
        d = len(self._ic) - 1
        # den**d p(x/den), shifted by na, then x -> w x
        c = [ck * den ** (d - k) for k, ck in enumerate(self._ic)]
        if na:
            c = _taylor_shift(c, na)
        return [ck * w**k for k, ck in enumerate(c)]

    def count(self, lo: Fraction, hi: Fraction) -> int:
        """Distinct roots in (lo, hi]; either endpoint may be a root."""
        if lo >= hi:
            return 0
        return _count01(self._window(lo, hi)) + (self.sign_at(hi) == 0)

    def _split(self, a: Fraction, b: Fraction, c: list) -> list:
        """Isolating intervals for the roots in the open (a, b), c being p
        on (a, b): the bisection tree walked depth first on an explicit
        stack, so close roots cost no recursion depth."""
        found, stack = [], [(a, b, c)]
        while stack:
            a, b, c = stack.pop()
            if isinstance(c, int):
                # leaving a node: a node that holds one root is that root's
                # interval (c is where its roots start in found)
                if len(found) == c + 1:
                    found[c] = RatInterval(a, b)
                continue
            v = _variations01(c)
            if v < 2:
                found += [RatInterval(a, b)] * v
                continue
            stack.append((a, b, len(found)))
            mid = (a + b) / 2
            left = _halve(c)
            right = _taylor_shift(left, 1)
            if right[0]:
                stack += [(mid, b, right), (a, mid, left)]
                continue
            found.append(RatInterval(mid, mid))
            # go on past both ends of an isolating interval around the hit
            near = self.widen(mid, (b - a) / 4)
            lo, hi = near.lo, near.hi
            stack += [(hi, b, self._window(hi, b)), (a, lo, self._window(a, lo))]
        return found

    def widen(self, x: Fraction, delta: Fraction) -> RatInterval:
        """An exact rational hit x as an isolating interval [x - d, x + d]:
        d is delta, halved until no end is a root and x is the only one."""
        while True:
            lo, hi = x - delta, x + delta
            if self.sign_at(lo) and self.sign_at(hi) and _count01(self._window(lo, hi)) == 1:
                return RatInterval(lo, hi)
            delta /= 2

    def isolate(self, lo: Fraction, hi: Fraction) -> list:
        """Disjoint isolating intervals, one per root in (lo, hi], sorted.

        A root at hi comes back as the degenerate [hi, hi], and so does
        every root that a bisection midpoint hits exactly while its node
        holds another root.  Every other interval holds exactly one root
        strictly inside; only lo or hi themselves can be roots at its ends.
        """
        if lo >= hi:
            return []
        found = self._split(lo, hi, self._window(lo, hi))
        if self.sign_at(hi) == 0:
            found.append(RatInterval(hi, hi))
        found.sort(key=lambda r: (r.lo, r.hi))
        return found

    def refine(self, iv: RatInterval, width) -> RatInterval:
        """Bisect an isolating interval down to the requested width.

        The interval must be degenerate or hold exactly one root strictly
        inside; either endpoint may itself be a root.  A midpoint that hits
        the root exactly comes back as a degenerate interval.  The bisection
        runs on int numerators lo, hi over a common denominator den that
        doubles at each step, so every midpoint is (lo + hi)/2 over 2*den.
        """
        width = as_rational(width)
        den = math.lcm(iv.lo.denominator, iv.hi.denominator)
        lo, hi = (x.numerator * (den // x.denominator) for x in (iv.lo, iv.hi))
        deg = len(self._ic) - 1

        def sign(num: int, den: int) -> int:
            v = _scaled_at(self._ic, num, den, deg)
            return (v > 0) - (v < 0)

        s_lo, s_hi = sign(lo, den), sign(hi, den)
        while (hi - lo) * width.denominator > width.numerator * den:
            lo, hi, den = 2 * lo, 2 * hi, 2 * den
            mid = (lo + hi) // 2
            s = sign(mid, den)
            if s == 0:
                return RatInterval(Fraction(mid, den), Fraction(mid, den))
            # the simple root inside flips the sign: it lies left of mid
            # iff mid has hi's sign, or lacks lo's; with both ends roots,
            # count
            if s_hi:
                go_left = s == s_hi
            elif s_lo:
                go_left = s != s_lo
            else:
                go_left = _count01(self._window_over(lo, mid, den)) == 1
            if go_left:
                hi, s_hi = mid, s
            else:
                lo, s_lo = mid, s
        return RatInterval(Fraction(lo, den), Fraction(hi, den))


def squarefree_factors(p: Polynomial) -> tuple:
    """(isolator, multiple): the one squarefree decision of the root core.

    When `modular_squarefree` certifies p, the isolator is built on p and
    multiple is None.  Otherwise, with g = gcd(p, p'), it is built on the
    squarefree part p/g, and multiple = gcd(p/g, p') = gcd(p/g, g) has the
    multiple roots of p as simple roots: a root is multiple iff multiple
    changes sign across an isolating interval of it with non-root ends.
    """
    if modular_squarefree(p):
        return DescartesIsolator(p), None
    g = poly_gcd(p, p.derivative())
    part = p.exact_div(g)
    return DescartesIsolator(part), poly_gcd(part, g)


def count_real_roots(p: Polynomial, iv: RatInterval) -> int:
    """Exact number of distinct real roots of p in (iv.lo, iv.hi]."""
    if p.is_zero:
        raise ValueError("root count of the zero polynomial")
    return squarefree_factors(p)[0].count(iv.lo, iv.hi)


def count_real_roots_with_multiplicity(p: Polynomial, iv: RatInterval) -> int:
    """Roots in (iv.lo, iv.hi] counted with their multiplicities."""
    if p.is_zero:
        raise ValueError("root count of the zero polynomial")
    factors = squarefree_decomposition(p)
    return sum(mult * DescartesIsolator(f).count(iv.lo, iv.hi) for f, mult in factors)


def isolate_roots(p: Polynomial, iv: RatInterval) -> list:
    """Isolating intervals, one per distinct root of p in (lo, hi], sorted.

    Returned intervals are either degenerate (an exact rational root, or
    the root at hi) or hold exactly one root strictly inside.
    """
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    return squarefree_factors(p)[0].isolate(iv.lo, iv.hi)


def refine_root(p: Polynomial, iv: RatInterval, width) -> RatInterval:
    """Shrink an isolating interval by bisection to the requested width.

    The input must isolate a single root: p has exactly one distinct root
    in (lo, hi], whether or not p changes sign across the endpoints.  The
    width must be positive.
    """
    if p.is_zero:
        raise ValueError("cannot refine a root of the zero polynomial")
    width = as_rational(width)
    if width <= 0:
        raise ValueError(f"refinement width must be positive, got {width}")
    if iv.lo == iv.hi:
        if p.eval(iv.lo) != 0:
            raise ValueError("degenerate interval does not contain a root")
        return iv
    core = squarefree_factors(p)[0]
    if core.count(iv.lo, iv.hi) != 1:
        raise ValueError("interval does not isolate exactly one root")
    if core.sign_at(iv.hi) == 0:
        return RatInterval(iv.hi, iv.hi)
    return core.refine(iv, width)


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
        p, RatInterval(Fraction(0), cauchy_root_bound(p))
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
