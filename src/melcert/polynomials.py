"""Exact univariate polynomial algebra over the rationals.

`Polynomial` holds `fractions.Fraction` coefficients, and nothing in this
module touches floating point.  The root core rests on Descartes' rule of
signs and takes one format, a primitive int list (constant term first,
last entry nonzero).  Its one gcd is `_int_gcd`, a modular gcd over Z with
one exact certificate: a constant gcd modulo a prime q that does not divide
l = gcd(lc a, lc b) proves a and b coprime, and otherwise exact division
proves the gcd.  On it rests the one squarefree decision,
`squarefree_factors`, and on that the one root isolator,
`DescartesIsolator`: it counts roots on half-open windows and isolates them
by Vincent-Collins-Akritas bisection with exact rational endpoints, each
node held by its Bernstein coefficients as ints and split by one de
Casteljau pass.  It refines them by bisection on int numerators over a
doubling common denominator, with exact signs (`_sign_at`, the one sign of
an int list at a rational), and finds where a run of steps to one side
ends by an exponential search; each interval is a `RatInterval`.  The same
walk moves an interval off a window's ends (`inside`), and the sign of any
int list at a root is read from its Bernstein coefficients on the root's
cell, once a gcd shows that it does not vanish there (`sign_at_root`).
`poly_gcd`, `squarefree_part`, `count_real_roots`, `isolate_roots` and
`refine_root` wrap the core for a `Polynomial`, cleared once by
`_primitive_ints` (`_cleared` is where `Fraction` coefficients become ints).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
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


def _divide(a: list, b: list):
    """a / b for int lists when b divides a over Z, else None."""
    r, lb, db = list(a), b[-1], len(b) - 1
    quot = [0] * max(len(a) - db, 0)
    for k in range(len(quot) - 1, -1, -1):
        f, rest = divmod(r[k + db], lb)
        if rest:
            return None
        quot[k] = f
        r[k : k + db + 1] = [x - f * c for x, c in zip(r[k : k + db + 1], b)]
    return None if any(r[:db]) else quot


_PRIMES = [2**30 - 35]  # the largest prime below 2**30, then those below: one int digit


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the twelve prime bases up to 37, which decides every
    odd n > 37 below 2**64 (Sorenson & Webster, Math. Comp. 86, 2017)."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s, d odd
    d = (n - 1) >> s
    return all(
        pow(a, d, n) == 1 or any(pow(a, d << r, n) == n - 1 for r in range(s))
        for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    )


def _primes():
    """_PRIMES in order, extended downwards only when a lift needs more."""
    for k in itertools.count():
        if k == len(_PRIMES):
            q = _PRIMES[k - 1] - 2
            while not _is_prime(q):
                q -= 2
            _PRIMES[k : k + 1] = [q]  # a racing thread writes the same q
        yield _PRIMES[k]


def _rational(c: int, m: int):
    """(num, den), coprime, with num = c * den mod m and |num|, 0 < den <=
    sqrt(m/2), or None if there is none (there is at most one): Wang's half
    extended Euclid (von zur Gathen & Gerhard, *Modern Computer Algebra*, Thm. 5.26)."""
    n = math.isqrt(m // 2)
    r0, r1, t0, t1 = m, c % m, 0, 1
    while r1 > n:
        k = r0 // r1
        r0, r1, t0, t1 = r1, r0 - k * r1, t1, t0 - k * t1
    if abs(t1) > n or math.gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _reconstructed(image, den: int):
    """CRT of the residue lists image(q) mod the primes q not dividing den,
    as h mod m; a shorter list restarts it, a longer one is dropped (q is
    unlucky).  Yields per list (c, confirmed): the `_rational` entries of h,
    each num/d, times the lcm of the d (for a last entry 1/1, c is primitive
    with lc > 0), confirmed if the previous prime gave the same c; or
    nothing if an entry has no rational reading yet."""
    h = m = last = None
    for q in _primes():
        if den % q == 0:
            continue
        g = image(q)
        if h is None or len(g) < len(h):
            h, m = g, q
        elif len(g) > len(h):
            continue
        else:
            inv = pow(m, -1, q)
            h, m = [y + m * ((x - y) * inv % q) for x, y in zip(g, h)], m * q
        fracs = list(itertools.takewhile(bool, (_rational(c, m) for c in h)))
        if len(fracs) < len(h):
            last = None
            continue
        lcm = math.lcm(*(d for _num, d in fracs))
        cand = [num * (lcm // d) for num, d in fracs]
        yield cand, cand == last
        last = cand


def _gcd_mod(a: list, b: list, q: int) -> list:
    """Monic gcd of the int lists a and b over GF(q), q dividing at most one
    lc, by Euclid on residues; a step dropping the degree by one (the rule)
    is one pass with no inverse, the remainder of lc(b)**2 * a by b."""
    a, b = [c % q for c in a], [c % q for c in b]
    while any(b):
        while b[-1] == 0:
            b.pop()
        l, db = b[-1], len(b) - 1
        if len(a) == db + 2 and db:
            f1, f0, l = a[-1] * l % q, (a[-2] * l - a[-1] * b[-2]) % q, l * l % q
            a, b = b, [(x * l - u * f1 - v * f0) % q for x, u, v in zip(a, [0, *b], b[:db])]
            continue
        inv = pow(l, -1, q)
        for k in range(len(a) - 1 - db, -1, -1):
            f = a[k + db] * inv % q
            if f:
                a[k : k + db] = [x - f * c for x, c in zip(a[k : k + db], b)]
        a, b = b, [c % q for c in a[:db]]
    inv = pow(a[-1], -1, q)
    return [c * inv % q for c in a]


def _int_gcd(a: list, b: list) -> list:
    """gcd g, primitive with lc > 0, of the primitive int list a and any
    nonzero int list b, by the small-primes modular gcd with rational
    reconstruction (von zur Gathen & Gerhard, *Modern Computer Algebra*,
    Alg. 6.38 and ch. 5.10): mod a prime q not dividing l = gcd(lc a, lc b),
    g keeps its degree, so a constant gcd mod q proves a and b coprime; else
    g is the first confirmed lift of the monic images that divides a and b."""
    if len(a) == 1 or len(b) == 1:
        return [1]
    for g, confirmed in _reconstructed(lambda q: _gcd_mod(a, b, q), math.gcd(a[-1], b[-1])):
        if g == [1] or confirmed and _divide(a, g) is not None and _divide(b, g) is not None:
            return g


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd by `_int_gcd` (1 for coprime, 0 only if both zero)."""
    if a.is_zero or b.is_zero:
        return (b if a.is_zero else a).monic()
    return Polynomial(_int_gcd(_primitive_ints(a), _primitive_ints(b))).monic()


def squarefree_part(p: Polynomial) -> Polynomial:
    """p / gcd(p, p'): same roots, all simple.  Leading sign follows p."""
    if p.is_zero:
        raise ValueError("squarefree part of the zero polynomial")
    if p.degree == 0:
        return p
    return p.exact_div(poly_gcd(p, p.derivative()))


def _scaled_at(ic: list, num: int, den: int, k: int) -> int:
    """den**k * ic(num/den) as an int, for k >= deg ic: Horner on the
    homogenised sum(ic[j] * num**j * den**(k-j))."""
    acc, dpow = 0, den ** (k + 1 - len(ic))
    for c in reversed(ic):
        acc = acc * num + c * dpow
        dpow *= den
    return acc


def _sign_at(ic: list, num: int, den: int) -> int:
    """Sign of the int list ic at num/den, den > 0 (0 for the empty list)."""
    v = _scaled_at(ic, num, den, len(ic) - 1)
    return (v > 0) - (v < 0)


def _taylor_shift(c: list, a: int) -> list:
    """Coefficients of c(x + a), constant term first.

    Horner's passes on the reversed list: each is the running sum r[k] +=
    a * r[k - 1], k rising, and fixes its last entry, the next coefficient
    of c(x + a), which leaves the list.  For a = 1 the step is
    `operator.add`, so every pass runs in C.
    """
    step = operator.add if a == 1 else (lambda s, y: y + a * s)
    r, out = c[::-1], []
    while r:
        r = list(itertools.accumulate(r, step))
        out.append(r.pop())
    return out


@functools.lru_cache(maxsize=64)
def _lift(d: int) -> tuple:
    """L / C(d, i) for i = 0..d, L = lcm_i C(d, i) = lcm(1..d+1) / (d+1):
    the least int weights that clear the binomials of degree d."""
    top = math.lcm(*range(1, d + 2)) // (d + 1)
    return tuple(top // math.comb(d, i) for i in range(d + 1))


def _bernstein(c: list) -> list:
    """A positive int multiple of the Bernstein coefficients of c on (0, 1).

    (x + 1)**d c(1/(x + 1)), the reversed Taylor shift of c by 1, has
    C(d, i) b_i as its coefficient of x**(d-i); `_lift` clears the
    binomials.
    """
    return list(map(operator.mul, reversed(_taylor_shift(c[::-1], 1)), _lift(len(c) - 1)))


def _variations(b: list) -> int:
    """Sign variations of the nonzero list b, capped at 2: Descartes' bound
    for the roots in (0, 1) of the polynomial with Bernstein coefficients
    b, exact when it is 0 or 1."""
    if min(b) >= 0 or max(b) <= 0:
        return 0
    signs = [x > 0 for x in b if x]
    first = signs[0]
    # one variation iff no entry after the first change has the first sign
    return 2 if first in signs[signs.index(not first) :] else 1


def _de_casteljau(b: list) -> tuple:
    """(left, right): positive int multiples of the Bernstein coefficients
    on the two halves of (0, 1), from the Bernstein list b of length d + 1.

    Each pass sums neighbours, so row k holds 2**k times de Casteljau's
    row k; left[k] is row k's first entry and right[k] row d-k's last,
    each shifted up to the common scale 2**d.  left[d] == right[0] is the
    apex, 2**d b(1/2).
    """
    d = len(b) - 1
    firsts, lasts, r = [b[0]], [b[-1]], b
    for _ in range(d):
        r = list(map(operator.add, r, r[1:]))
        firsts.append(r[0])
        lasts.append(r[-1])
    left = list(map(operator.lshift, firsts, range(d, -1, -1)))
    right = list(map(operator.lshift, reversed(lasts), range(d + 1)))
    return left, right


def _count01(b: list) -> int:
    """Exact number of roots in the open (0, 1) of the squarefree
    polynomial with Bernstein list b: the dyadic tree walked on an explicit
    stack, so close roots cost no recursion depth."""
    total, stack = 0, [b]
    while stack:
        b = stack.pop()
        v = _variations(b)
        if v < 2:
            total += v
            continue
        left, right = _de_casteljau(b)
        total += right[0] == 0
        stack += [left, right]
    return total


def _window(ic: list, a: Fraction, b: Fraction) -> list:
    """A positive int multiple of the Bernstein coefficients of the int
    list ic on (a, b)."""
    den = math.lcm(a.denominator, b.denominator)
    return _window_over(
        ic, a.numerator * (den // a.denominator), b.numerator * (den // b.denominator), den
    )


def _window_over(ic: list, na: int, nb: int, den: int) -> list:
    """`_window` for a = na/den and b = nb/den, den > 0."""
    w = nb - na
    d = len(ic) - 1
    # den**d p(x/den), shifted by na, then x -> w x: p(a + (b - a) x)
    c = [ck * den ** (d - k) for k, ck in enumerate(ic)]
    if na:
        c = _taylor_shift(c, na)
    return _bernstein([ck * w**k for k, ck in enumerate(c)])


def _changes_sign(ic: list, iv: RatInterval) -> bool:
    """Whether the int list ic has strictly opposite signs at iv's ends."""
    lo, hi = (_sign_at(ic, x.numerator, x.denominator) for x in (iv.lo, iv.hi))
    return lo * hi < 0


class DescartesIsolator:
    """Real roots of a squarefree polynomial: the one root isolator.

    Holds p as the primitive int list it is given.  A window (a, b) is held as a positive int
    multiple of the Bernstein coefficients of p on it, converted once from
    p mapped affinely onto (0, 1).  Their sign variations are Descartes'
    bound for the roots inside, exact when it is 0 or 1.  Isolation is
    Vincent-Collins-Akritas bisection (Collins & Akritas 1976) in the
    Bernstein basis (Rouillier & Zimmermann, J. Comput. Appl. Math. 162,
    2004) on a dyadic tree: one de Casteljau pass gives both halves, and
    its apex is 0 exactly when the midpoint is a root.  It returns the
    intervals a Sturm-chain isolator would return on that tree, the
    largest node around each root.  Refinement follows the same tree by
    exact integer signs and skips along a run of steps to one side by an
    exponential search (Bentley & Yao, IPL 5, 1976).  Roots at window
    endpoints are allowed; counting, isolation and refinement need p
    squarefree (`squarefree_factors`).
    """

    def __init__(self, ic: list):
        if not ic or not ic[-1]:
            raise ValueError("root isolation needs a nonzero last coefficient")
        self._ic = ic

    def sign_at(self, x: Fraction) -> int:
        """Sign of the polynomial at x."""
        return _sign_at(self._ic, x.numerator, x.denominator)

    def count(self, lo: Fraction, hi: Fraction) -> int:
        """Distinct roots in (lo, hi]; either endpoint may be a root."""
        if lo >= hi:
            return 0
        return _count01(_window(self._ic, lo, hi)) + (self.sign_at(hi) == 0)

    def _split(self, a: Fraction, b: Fraction, c: list) -> list:
        """Isolating intervals for the roots in the open (a, b), c being
        p's Bernstein list on (a, b): the bisection tree walked depth first
        on an explicit stack, so close roots cost no recursion depth."""
        found, stack = [], [(a, b, c)]
        while stack:
            a, b, c = stack.pop()
            if isinstance(c, int):
                # leaving a node: a node that holds one root is that root's
                # interval (c is where its roots start in found)
                if len(found) == c + 1:
                    found[c] = RatInterval(a, b)
                continue
            v = _variations(c)
            if v < 2:
                found += [RatInterval(a, b)] * v
                continue
            stack.append((a, b, len(found)))
            mid = (a + b) / 2
            left, right = _de_casteljau(c)
            if right[0]:
                stack += [(mid, b, right), (a, mid, left)]
                continue
            found.append(RatInterval(mid, mid))
            # go on past both ends of an isolating interval around the hit
            near = self.widen(mid, (b - a) / 4)
            lo, hi = near.lo, near.hi
            stack += [(hi, b, _window(self._ic, hi, b)), (a, lo, _window(self._ic, a, lo))]
        return found

    def widen(self, x: Fraction, delta: Fraction) -> RatInterval:
        """An exact rational hit x as an isolating interval [x - d, x + d]:
        d is delta, halved until no end is a root and x is the only one."""
        while True:
            lo, hi = x - delta, x + delta
            if self.sign_at(lo) and self.sign_at(hi) and _count01(_window(self._ic, lo, hi)) == 1:
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
        found = self._split(lo, hi, _window(self._ic, lo, hi))
        if self.sign_at(hi) == 0:
            found.append(RatInterval(hi, hi))
        found.sort(key=lambda r: (r.lo, r.hi))
        return found

    def refine(self, iv: RatInterval, width) -> RatInterval:
        """Bisect an isolating interval down to the requested width.

        The interval must be degenerate or hold exactly one root strictly
        inside; either endpoint may itself be a root.  A midpoint that hits
        the root exactly comes back as a degenerate interval.  The result
        is the cell that holds the root on the first level of iv's
        bisection tree whose cells are at most width wide (`_descend`).
        """
        ratio = iv.width / as_rational(width)
        levels = max(ratio.numerator.bit_length() - ratio.denominator.bit_length(), 0)
        levels += ratio.numerator > ratio.denominator << levels
        return self._descend(iv, levels) if levels else iv

    def inside(self, iv: RatInterval, lo: Fraction, hi: Fraction) -> RatInterval:
        """The cell around iv's root on the first even level of its
        bisection tree that lies strictly inside (lo, hi), with ends that
        are not roots; iv, from `isolate`, lies in [lo, hi].  One walk,
        until each end of iv at lo or hi has moved; an exact rational hit
        is widened."""
        ends = (iv.lo <= lo) | (iv.hi >= hi) << 1
        if ends:
            iv = self._descend(iv, math.inf, ends)
        if iv.lo == iv.hi:
            iv = self.widen(iv.lo, min(iv.lo - lo, hi - iv.lo) / 2)
        return iv

    def sign_at_root(self, iv: RatInterval, s: list) -> int:
        """Exact sign of the int list s at h*, the one root of p strictly
        inside iv, whose ends are not roots.

        Zero top entries of s, where sums cancel, are trimmed; an empty s
        is 0.  gcd(p, s) divides p, so it has at most that one root in iv,
        a simple one: s vanishes at h* iff the gcd changes sign across iv.
        Otherwise iv is halved by `refine` until the Bernstein coefficients
        of s on it share one strict sign, which s then has on all of iv;
        they tend to s(h*) as iv shrinks to h*, so the halving ends.
        """
        s = s[: max((k + 1 for k, c in enumerate(s) if c), default=0)]
        if not s or _changes_sign(_int_gcd(self._ic, s), iv):
            return 0
        while True:
            b = _window(s, iv.lo, iv.hi)
            if min(b) > 0 or max(b) < 0:
                return 1 if b[0] > 0 else -1
            iv = self.refine(iv, iv.width / 2)

    def _descend(self, iv: RatInterval, levels, ends: int = 0) -> RatInterval:
        """The cell that holds iv's root `levels` levels down its bisection
        tree, or the degenerate interval of a midpoint that hits the root
        on the way.  With ends (1 for iv.lo, 2 for iv.hi, 3 for both), the
        walk stops at the first even depth by which those ends have moved.

        iv is as for `refine`.  The cells are int numerators lo, hi over a
        common denominator den that doubles at each level.  Once three
        steps in a row have gone to one side, with neither end a root, the
        point k levels further along that side has the sign of the end it
        approaches iff the run lasts k more steps; probes at k = 4, 8, ...
        and a binary search find where the run ends with O(log) signs.
        """
        den = math.lcm(iv.lo.denominator, iv.hi.denominator)
        lo, hi = (x.numerator * (den // x.denominator) for x in (iv.lo, iv.hi))

        def hit(num: int, den: int) -> RatInterval:
            return RatInterval(Fraction(num, den), Fraction(num, den))

        s_lo, s_hi = _sign_at(self._ic, lo, den), _sign_at(self._ic, hi, den)
        depth = run = moved = 0  # moved: bit 1 once lo has moved, bit 2 hi
        left = None
        while depth < levels and not (ends and ends & moved == ends and depth % 2 == 0):
            if run >= 3 and s_lo and s_hi:
                # the point k levels on is base + step over den << k
                base, step, keep = (lo, hi - lo, s_hi) if left else (hi, lo - hi, s_lo)
                cap = levels - depth
                good, bad = 0, None  # the run lasts good more steps, not bad
                while good < cap if bad is None else bad - good > 1:
                    k = min(max(4, 2 * good), cap) if bad is None else (good + bad) // 2
                    x = (base << k) + step
                    s = _sign_at(self._ic, x, den << k)
                    if not s:
                        return hit(x, den << k)
                    if s == keep:
                        good = k
                    else:
                        bad = k
                if bad is None:  # the run lasts down to the last level
                    lo, hi = sorted(((base << cap) + step, base << cap))
                    den <<= cap
                    break
                # bad - 1 more steps to the same side, then one to the other
                lo, hi = sorted(((base << bad) + step, (base << bad) + 2 * step))
                den, depth, run, left = den << bad, depth + bad, 1, not left
                moved |= 2 if left else 1
                continue
            lo, hi, den = 2 * lo, 2 * hi, 2 * den
            mid = (lo + hi) // 2
            s = _sign_at(self._ic, mid, den)
            depth += 1
            if s == 0:
                return hit(mid, den)
            # the simple root inside flips the sign: it lies left of mid
            # iff mid has hi's sign, or lacks lo's; with both ends roots,
            # count
            if s_hi:
                go_left = s == s_hi
            elif s_lo:
                go_left = s != s_lo
            else:
                go_left = _count01(_window_over(self._ic, lo, mid, den)) == 1
            run = run + 1 if go_left == left else 1
            left = go_left
            if go_left:
                hi, s_hi, moved = mid, s, moved | 2
            else:
                lo, s_lo, moved = mid, s, moved | 1
        return RatInterval(Fraction(lo, den), Fraction(hi, den))


def squarefree_factors(ic: list) -> tuple:
    """(isolator, multiple): the one squarefree decision of the root core,
    on p as the primitive int list ic.

    With g = gcd(p, p') constant (p' keeps its content), p is squarefree
    (one Euclid mod the first prime as a rule): the isolator is built on ic and
    multiple is None.  Otherwise it is built on p/g, and the int list
    multiple = gcd(p/g, g) has the multiple roots of p as simple roots: a
    root is multiple iff multiple changes sign across an isolating interval
    of it with non-root ends.
    """
    core = DescartesIsolator(ic)
    g = _int_gcd(ic, [k * c for k, c in enumerate(ic)][1:])
    if len(g) == 1:
        return core, None
    part = _divide(ic, g)
    return DescartesIsolator(part), _int_gcd(part, g)


def count_real_roots(p: Polynomial, iv: RatInterval) -> int:
    """Exact number of distinct real roots of p in (iv.lo, iv.hi]."""
    if p.is_zero:
        raise ValueError("root count of the zero polynomial")
    return squarefree_factors(_primitive_ints(p))[0].count(iv.lo, iv.hi)


def isolate_roots(p: Polynomial, iv: RatInterval) -> list:
    """Isolating intervals, one per distinct root of p in (lo, hi], sorted.

    Returned intervals are either degenerate (an exact rational root, or
    the root at hi) or hold exactly one root strictly inside.
    """
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    return squarefree_factors(_primitive_ints(p))[0].isolate(iv.lo, iv.hi)


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
    core = squarefree_factors(_primitive_ints(p))[0]
    if core.count(iv.lo, iv.hi) != 1:
        raise ValueError("interval does not isolate exactly one root")
    if core.sign_at(iv.hi) == 0:
        return RatInterval(iv.hi, iv.hi)
    return core.refine(iv, width)


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
