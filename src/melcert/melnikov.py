"""Exact first-order averaged integrals for the perturbed circular center.

The unperturbed field is a circular center slowed by the positive factor
(1-alpha1*x)**m1 * (1-alpha2*x)**m2; the perturbation divides a degree-n
polynomial field by that same factor.  Orbits are circles labelled by
h = x**2 + y**2, traversed as x = sqrt(h)*sin(t), y = sqrt(h)*cos(t), and
the annulus of closed orbits ends at h_max = min(1/alpha1**2, 1/alpha2**2).

Every loop integral this module produces reduces exactly to

    rad1(h)/r1**(2*m1-1) + rad2(h)/r2**(2*m2-1) + tail(h),
    r_i = sqrt(1 - alpha_i**2 * h),

with rational polynomials rad1/rad2/tail.  A single global factor of pi is
kept symbolic: all stored polynomials are the integral values divided by pi.
The family alone fixes the shape: when alpha1 == alpha2 the radical parts
fuse and the function is pr(r) / r**(2*(m1+m2)-1) for a single rational
polynomial pr in r, and when alpha2 == -alpha1, r1 == r2.  A form holds
only its family and its polynomials.

One entry point, `assemble`, builds every form, and it is linear in the
perturbation coefficients and runs in ints.  `_terms` is the one map from
coefficient slots to integrand monomials: a[i,j] weights x**(i+1)*y**j and
b[i,j] weights x**i*y**(j+1).  Per family (its tuple of poles),
`_integrals` caches the partial fractions of x**k over the poles'
product as a list of rows of int numerators, which `_integrate` extends
as it needs them, each row from the one before by
x/(1-alpha*x)**j = ((1-alpha*x)**-j - (1-alpha*x)**-(j-1))/alpha; row 0,
the weights of the denominator's inverse, is the only Taylor step.  Each
pole's radical lifts are int lists over one denominator.  One pass,
`_integrate`, serves both kinds: it rewrites the integrand, through
y**2 = h - x**2, as a sum of x**k times a polynomial X_k(h), combines the
X_k by the rows' weights into one polynomial per pole and power, multiplies
each by its lift once, and takes the tail from the rows' polynomial parts;
it builds one `Fraction` per output coefficient.  The rows and lifts of the
CACHED_FAMILIES most recently used families stay cached; an older family's
are dropped whole, so memory stays bounded on any stream of families.

Each normal form keeps `ints`, its one clearing to ints (by `_cleared`),
for every exact reader here and in `zeros`, and names its `eliminant`,
whose roots hold every zero.  A two-radical form also keeps `sign_tree`,
the int polynomials whose signs decide its own; only this module reads it:
`tree_sign` walks it, and its last node is the eliminant.  Certified
evaluation, which happens only at rational points, runs on `ints` through
one kernel, `_point_rungs`, behind `evaluate_normal_form` and zero
prescription: the polynomials and the radicands are evaluated once per
point, by homogeneous Horner, and a mirror pair's two radical parts are
combined there into one part over the lower power of their one radical;
each rung of the bit ladder then takes one `sqrt_bracket` per distinct
radicand and picks every endpoint by sign, as int pairs.  Its endpoints are
those of `RatInterval` arithmetic with `sqrt_rational` at the same bits, and
a zero form of any kind gets the exact point 0 with no special case.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

from .intervals import RatInterval, as_rational, pi_interval, sqrt_bracket
from .polynomials import (
    Polynomial,
    _cleared,
    _divide,
    _prod,
    _scaled_at,
    _square,
    _sum,
    _taylor_shift,
)


# Families whose integrals stay cached; beyond this many the least recently
# used family's are dropped whole, so memory stays bounded on any stream of
# families.
CACHED_FAMILIES = 128


class AssemblyError(ValueError):
    pass


@dataclass(frozen=True)
class SystemFamily:
    """Parameters of the unperturbed field: both alphas nonzero."""

    alpha1: Fraction
    alpha2: Fraction
    m1: int
    m2: int

    def __post_init__(self):
        object.__setattr__(self, "alpha1", as_rational(self.alpha1))
        object.__setattr__(self, "alpha2", as_rational(self.alpha2))
        if self.alpha1 == 0 or self.alpha2 == 0:
            raise ValueError("alpha1 and alpha2 must both be nonzero")
        try:
            m1, m2 = operator.index(self.m1), operator.index(self.m2)
        except TypeError:  # 1.5 or Fraction(3, 2): no integer
            m1 = m2 = 0
        if m1 < 1 or m2 < 1:
            raise ValueError("m1 and m2 must be positive integers")
        object.__setattr__(self, "m1", m1)
        object.__setattr__(self, "m2", m2)

    @cached_property
    def h_max(self) -> Fraction:
        """Right end of the annulus of closed orbits, kept on the family."""
        return min(1 / self.alpha1**2, 1 / self.alpha2**2)

    @property
    def is_confluent(self) -> bool:
        return self.alpha1 == self.alpha2

    @property
    def is_mirror(self) -> bool:
        """alpha2 == -alpha1: the two radicals coincide and can be merged."""
        return self.alpha1 == -self.alpha2


@dataclass
class PerturbCoeffs:
    """Sparse perturbation coefficient grid over 0 <= i+j <= n.

    `a` weights the x-component monomials, `b` the y-component; missing
    entries are zero.  Every entry must satisfy |value| <= box.
    """

    n: int
    a: dict = field(default_factory=dict)
    b: dict = field(default_factory=dict)
    box: Fraction = Fraction(1)

    def __post_init__(self):
        try:
            self.n = operator.index(self.n)
        except TypeError:  # 2.5: no integer
            self.n = -1
        if self.n < 0:
            raise ValueError("perturbation degree must be >= 0")
        self.box = as_rational(self.box)
        if self.box <= 0:
            raise ValueError("coefficient box bound must be positive")
        box_num, box_den = self.box.numerator, self.box.denominator
        for name in ("a", "b"):
            grid = getattr(self, name)
            clean = {}
            for key, value in grid.items():
                # indices are integers, as n is (0.5 or 1/2 would reach the
                # assembly's ranges as a raw TypeError)
                try:
                    i, j = key
                    i, j = operator.index(i), operator.index(j)
                except (TypeError, ValueError):
                    raise ValueError(
                        f"{name} entry {key!r}: index is not a pair of integers"
                    ) from None
                value = as_rational(value)
                if i < 0 or j < 0 or i + j > self.n:
                    raise ValueError(f"{name}[{i},{j}] outside 0 <= i+j <= {self.n}")
                if abs(value.numerator) * box_den > box_num * value.denominator:
                    raise ValueError(f"|{name}[{i},{j}]| exceeds the box bound {self.box}")
                if value.numerator != 0:
                    clean[(i, j)] = value
            setattr(self, name, clean)

    @property
    def is_zero(self) -> bool:
        return not self.a and not self.b


def _sign_rule(sx: int, sy: int, diff) -> int:
    """Sign of x + y*sqrt(u), u > 0, from the signs sx of x and sy of y
    and, called only when they differ, diff(): the sign of x**2 - y**2 u."""
    if sx * sy >= 0:
        return sx or sy
    return sx * diff()


IntView = namedtuple("IntView", "den rad1 rad2 tail d u1 u2 a b c")


@dataclass(frozen=True)
class MelnikovNormalForm:
    """rad1/r1**(2*m1-1) + rad2/r2**(2*m2-1) + tail, in units of pi, for
    alpha1 != alpha2; `merged` (r1 == r2) is read from the family."""

    family: SystemFamily
    rad1: Polynomial
    rad2: Polynomial
    tail: Polynomial

    def __post_init__(self):
        if self.family.is_confluent:
            raise AssemblyError("confluent family: its form is a ConfluentNormalForm")

    @property
    def merged(self) -> bool:
        return self.family.is_mirror

    @cached_property
    def ints(self) -> IntView:
        """This form cleared to ints once, as int lists in h (constant first).

        rad1, rad2 and tail are numerators over den, and Ui = d*(1 -
        alphai**2 h) with d the least positive integer making both
        integral.  With r**(2m-1) = u**(m-1)*r the form is a positive
        multiple of A*r2 + B*r1 + C*r1*r2 (a, b, c); a mirror pair
        (r1 = r2) is merged over r1**(2*max(m1, m2)-1) into r1*(A + C*r1),
        with B = 0.
        """
        fam = self.family
        m1, m2 = fam.m1, fam.m2
        den, (rad1, rad2, tail) = _cleared(self.rad1, self.rad2, self.tail)
        d, (u1, u2) = _cleared(_u_poly(fam.alpha1), _u_poly(fam.alpha2))
        if self.merged:
            mb = max(m1, m2)
            a = _sum(
                _prod(rad1, [d ** (m1 - 1)], *[u1] * (mb - m1)),
                _prod(rad2, [d ** (m2 - 1)], *[u1] * (mb - m2)),
            )
            b, c = [], _prod(tail, *[u1] * (mb - 1))
        else:
            a = _prod(rad1, [d ** (m1 - 1)], *[u2] * (m2 - 1))
            b = _prod(rad2, [d ** (m2 - 1)], *[u1] * (m1 - 1))
            c = _prod(tail, *[u1] * (m1 - 1), *[u2] * (m2 - 1))
        return IntView(den, rad1, rad2, tail, d, u1, u2, a, b, c)

    @cached_property
    def sign_tree(self) -> tuple:
        """This form's sign as int polynomials in h, built once from `ints`
        and kept on the form, and read by `tree_sign` alone.

        A node (x, y, z) decides the sign of x + y*r1 (r1 = sqrt(U1/d)):
        z = d*x**2 - y**2 U1 if x and y are both nonzero, else the nonzero
        one of them.  The form has the sign of r2*X + B*r1, X = A + C*r1:
        node(A, C) if B = 0 (every mirror pair), node(B, 0) if X = 0, else
        (node(A, C), B, node(P, Q)), d**2 ((r2*X)**2 - (B*r1)**2) = P + Q*r1
        with P = (d A**2 + C**2 U1) U2 - d B**2 U1, Q = 2 d A C U2.
        """
        v = self.ints
        d, u1, u2, a, b, c = v.d, v.u1, v.u2, v.a, v.b, v.c
        if not (a or c):
            return ((b, [], b),)
        da2, c2u1 = _prod([d], _square(a)), _prod(_square(c), u1)
        ac = a, c, _sum(da2, _prod([-1], c2u1)) if a and c else a or c
        if not b:
            return (ac,)
        p = _sum(_prod(_sum(da2, c2u1), u2), _prod([-d], _square(b), u1))
        q = _prod([2 * d], a, c, u2)
        pq = p, q, _sum(_prod([d], _square(p)), _prod([-1], _square(q), u1)) if p and q else p or q
        return ac, b, pq

    @property
    def eliminant(self) -> list:
        """The last node's z, an int list whose roots hold every zero of this
        form: not conversely, since squaring adds roots that are not zeros.
        Where x or y vanishes, z is the other part, not the norm of x + y*r1,
        whose square factor would make every root look multiple."""
        return self.sign_tree[-1][2]

    def tree_sign(self, sign) -> int:
        """Sign of this form at a point where sign(s) is the sign there of
        each int polynomial s of its `sign_tree`: `_sign_rule` down the tree.
        Each z is read only where its x and y have opposite signs."""
        (x, y, z), *rest = self.sign_tree
        s = _sign_rule(sign(x), sign(y), lambda: sign(z))
        if not rest:
            return s
        b, (x, y, z) = rest
        return _sign_rule(s, sign(b), lambda: _sign_rule(sign(x), sign(y), lambda: sign(z)))

    @property
    def is_zero(self) -> bool:
        # r1, r2, r1*r2 are independent over Q(h); a merged A cancels
        # exactly when the radical parts do
        v = self.ints
        return not any(v.a + v.b + v.c)

    def center_value(self) -> Fraction:
        """Exact value at h = 0, where both radicals equal 1."""
        return self.rad1.eval(0) + self.rad2.eval(0) + self.tail.eval(0)


@dataclass(frozen=True)
class ConfluentNormalForm:
    """pr(r) / r**(2*m-1), r = sqrt(1 - alpha**2 * h), in units of pi, for
    alpha1 == alpha2; m = m1 + m2 is read from the family."""

    family: SystemFamily
    pr: Polynomial

    def __post_init__(self):
        if not self.family.is_confluent:
            raise AssemblyError("two distinct alphas: the form is a MelnikovNormalForm")

    @property
    def m(self) -> int:
        return self.family.m1 + self.family.m2

    @cached_property
    def ints(self) -> tuple:
        """pr cleared to ints once, (den, [numerators]), kept on the form."""
        return _cleared(self.pr)

    @property
    def eliminant(self) -> list:
        """pr(r)/(1 - r) as an int list in r: the numerators of pr without
        the root the center forces at r = 1; its roots on (0, 1) are zeros."""
        reduced = _divide(self.ints[1][0], [1, -1])
        if reduced is None:
            raise ValueError("confluent form without its root at r = 1")
        return reduced

    @property
    def is_zero(self) -> bool:
        return self.pr.is_zero

    def center_value(self) -> Fraction:
        """Exact value at h = 0 (r = 1)."""
        return self.pr.eval(1)


def _double_factorial(n: int) -> int:
    # (-1)!! == 1 by convention
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


@lru_cache(maxsize=None)
def circle_moment(i: int, j: int) -> Polynomial:
    """Loop integral of x**i * y**j dt over the circle of label h.

    Zero unless both exponents are even; otherwise a single monomial
    (2 * (i-1)!! * (j-1)!! / (i+j)!!) * h**((i+j)/2), in units of pi.
    """
    if i < 0 or j < 0:
        raise ValueError("moment exponents must be >= 0")
    if i % 2 or j % 2:
        return Polynomial.zero()
    wallis = Fraction(
        2 * _double_factorial(i - 1) * _double_factorial(j - 1),
        _double_factorial(i + j),
    )
    return Polynomial.monomial((i + j) // 2, wallis)


@lru_cache(maxsize=None)
def _radial_numerator(m: int) -> Polynomial:
    """U_m(w) with loop integral of (1 - a*sin t)**-m dt == pi*U_m(w)/r**(2m-1),
    where w = r**2 = 1 - a**2.

    Laplace's second integral for the Legendre polynomials gives
    U_m(w) = 2*r**(m-1)*P_(m-1)(1/r), whose coefficients are
    2**(2-m) * (-1)**k * C(m-1, k) * C(2m-2-2k, m-1) at w**k.
    """
    if m < 1:
        raise ValueError("radical power must be >= 1")
    scale = Fraction(4, 2**m)
    return Polynomial(
        tuple(
            scale * (-1) ** k * math.comb(m - 1, k) * math.comb(2 * m - 2 - 2 * k, m - 1)
            for k in range((m + 1) // 2)
        )
    )


def _u_poly(alpha: Fraction) -> Polynomial:
    """1 - alpha**2 * h as a polynomial in h."""
    return Polynomial((1, -(alpha * alpha)))


def _pole_weights(alpha: Fraction, m: int, beta: Fraction, mb: int) -> tuple:
    """Weights of 1/(1-alpha*x)**j, j = 1..m, in 1/((1-alpha*x)**m*(1-beta*x)**mb).

    With t = 1 - alpha*x the function is (alpha/c)**mb * (1 + (d/c)*t)**-mb
    / t**m, c = alpha - beta, d = beta, so the weight of 1/t**j is the
    Taylor coefficient of t**(m-j) in the numerator.  mb = 0 is the
    single-factor case.
    """
    c = alpha - beta
    ratio = -beta / c
    # (1 + (d/c)*t)**-mb truncated at t**(m-1)
    inverse = [Fraction(1)]
    for i in range(1, m):
        inverse.append(inverse[-1] * (mb + i - 1) * ratio / i)
    scale = (alpha / c) ** mb
    return tuple(scale * inverse[m - j] for j in range(1, m + 1))


def _first_row(poles: tuple) -> tuple:
    """Partial fractions of 1 over the product of (1-alpha*x)**m for the one
    or two (alpha, m) in poles, as int numerators over one positive den:
    (den, the weights at each pole, the empty polynomial part)."""
    weights = []
    for idx, (alpha, m) in enumerate(poles):
        beta, mb = poles[1 - idx] if len(poles) == 2 else (Fraction(0), 0)
        weights.append(_pole_weights(alpha, m, beta, mb))
    den = math.lcm(*(c.denominator for w in weights for c in w))
    return den, [[c.numerator * (den // c.denominator) for c in w] for w in weights], []


def _next_row(row: tuple, poles: tuple) -> tuple:
    """The partial fractions of x**(k+1) from those of x**k.

    x/(1-alpha*x)**j = ((1-alpha*x)**-j - (1-alpha*x)**-(j-1))/alpha, so
    the weight at power j becomes (w_j - w_(j+1))/alpha, and w_1/alpha
    leaves each pole for the constant of the polynomial part, which is
    x times the old one.  The new den is the old one times the lcm of the
    alphas' numerators, reduced with every numerator by their gcd.
    """
    den, weights, quotient = row
    scale = math.lcm(*(alpha.numerator for alpha, _m in poles))
    out, constant = [], 0
    for w, (alpha, _m) in zip(weights, poles):
        f = alpha.denominator * (scale // alpha.numerator)  # scale/alpha
        out.append([(a - b) * f for a, b in zip(w, (*w[1:], 0))])
        constant -= w[0] * f
    if quotient or constant:
        quotient = [constant, *(c * scale for c in quotient)]
    den *= scale
    g = math.gcd(den, *quotient, *(c for w in out for c in w))
    return den // g, [[c // g for c in w] for w in out], [c // g for c in quotient]


def _lift(m: int, alpha: Fraction) -> tuple:
    """U_j(u) * u**(m-j), u = 1 - alpha**2*h, for j = 1..m: the loop
    integrals of dt/(1-alpha*x)**j over the common denominator r**(2m-1),
    as (den, [int coefficients in h for each j]).

    With g = -alpha**2*h, u = 1 + g: U_j's numerators are Taylor-shifted
    by 1 and multiplied by the binomial row of (1 + g)**(m-j), then g**i
    becomes (-p**2)**i * q**(2*(m-1-i)) h**i over q**(2*(m-1)), alpha = p/q,
    since no lift has degree above m - 1.
    """
    den, numerators = _cleared(*(_radial_numerator(j) for j in range(1, m + 1)))
    p2, q2 = -alpha.numerator**2, alpha.denominator**2
    scale = [p2**i * q2 ** (m - 1 - i) for i in range(m)]
    lifts = []
    for j, v in enumerate(numerators, start=1):
        in_g = _prod(_taylor_shift(v, 1), [math.comb(m - j, i) for i in range(m - j + 1)])
        lifts.append([c * f for c, f in zip(in_g, scale)])
    return den * q2 ** (m - 1), lifts


def _add_scaled(total: list, part, f: int, shift: int = 0) -> None:
    """total += f * x**shift * part, in place, on int coefficient lists."""
    missing = shift + len(part) - len(total)
    if missing > 0:
        total.extend([0] * missing)
    for k, c in enumerate(part, start=shift):
        total[k] += f * c


@lru_cache(maxsize=CACHED_FAMILIES)
def _integrals(poles: tuple) -> tuple:
    """(rows, lifts): the partial fractions of x**k over the poles' product,
    row k at rows[k], each from the one before (`_next_row`) and appended
    by `_integrate` as it needs them, and `_lift` at each pole."""
    return [_first_row(poles)], [_lift(m, alpha) for alpha, m in poles]


def _integrate(terms, poles: tuple) -> list:
    """Loop integral of the sum of v * x**i * y**j over the poles' product,
    dt, for the terms (i, j, v) with v rational: one radical numerator per
    pole, then the polynomial tail in h, as `Polynomial`s.

    Odd powers of y integrate to zero by the t -> pi - t symmetry; with
    y**2 = h - x**2 the rest is the sum of x**k * X_k(h).  At each pole,
    Y_j is the sum of X_k weighted by the rows' weights at power j, and the
    radical part is the sum of Y_j * lift_j, one product per lift.  The
    tail is the sum of X_k times the circle moments of row k's polynomial
    part.  Each part is an int list over one denominator until the end.
    """
    terms = [(i, j, v) for i, j, v in terms if j % 2 == 0]
    den = math.lcm(*(v.denominator for _i, _j, v in terms))
    xs = {}  # k -> the int coefficients in h of X_k, over den
    for i, j, v in terms:
        kk, f = j // 2, v.numerator * (den // v.denominator)
        for l in range(kk + 1):
            _add_scaled(xs.setdefault(i + 2 * l, []), ((-1) ** l * math.comb(kk, l),), f, kk - l)
    rows, pole_lifts = _integrals(poles)
    while len(rows) <= max(xs, default=0):
        rows.append(_next_row(rows[-1], poles))
    row_den = math.lcm(*(rows[k][0] for k in xs))
    # X_k scaled to the rows' common denominator, with row k's parts
    scaled = [([c * (row_den // rows[k][0]) for c in x], *rows[k][1:]) for k, x in xs.items()]
    den *= row_den
    parts = []
    for idx, (lift_den, lifts) in enumerate(pole_lifts):
        ys = [[] for _ in lifts]
        for x, weights, _q in scaled:
            for y, w in zip(ys, weights[idx]):
                if w:
                    _add_scaled(y, x, w)
        parts.append((den * lift_den, _sum(*(_prod(y, lift) for y, lift in zip(ys, lifts) if y))))
    # only the even powers of x have a nonzero circle moment
    half = max(((len(q) + 1) // 2 for _x, _w, q in scaled), default=0)
    moments = [circle_moment(2 * l, 0).leading for l in range(half)]
    tail_den = math.lcm(*(w.denominator for w in moments))
    tail = []
    for x, _w, quotient in scaled:
        for l, (c, w) in enumerate(zip(quotient[::2], moments)):
            if c:
                _add_scaled(tail, x, c * w.numerator * (tail_den // w.denominator), l)
    parts.append((den * tail_den, tail))
    return [Polynomial([Fraction(c, d) for c in part]) for d, part in parts]


def _terms(coeffs: PerturbCoeffs) -> list:
    """The integrand monomials (i, j, v) of the first-order integral:
    a[i,j] weights x**(i+1)*y**j and b[i,j] weights x**i*y**(j+1)."""
    terms = [(i + 1, j, v) for (i, j), v in coeffs.a.items()]
    return terms + [(i, j + 1, v) for (i, j), v in coeffs.b.items()]


def _poles(family: SystemFamily) -> tuple:
    return ((family.alpha1, family.m1), (family.alpha2, family.m2))


def assemble(family: SystemFamily, coeffs: PerturbCoeffs):
    """Exact normal form of the first-order integral: a
    `MelnikovNormalForm` for two distinct alphas, a `ConfluentNormalForm`
    for alpha1 == alpha2.

    The confluent integral runs over the one pole (alpha, m), m = m1 + m2,
    and h = (1 - r**2)/alpha**2 turns it into pr(r)/r**(2m-1): the
    polynomial-in-h parts pick up the odd powers r**(2m-1) and above, the
    radical parts the even powers below 2m-1, and pr(1) = 0 since the
    function vanishes at h = 0.  Uncapped: only `cli.parse_spec` limits
    m1, m2 <= 16 and n <= 32.
    """
    if not family.is_confluent:
        return MelnikovNormalForm(family, *_integrate(_terms(coeffs), _poles(family)))
    alpha = family.alpha1
    m = family.m1 + family.m2
    rad, tail = _integrate(_terms(coeffs), ((alpha, m),))
    # substitute h = (1 - r**2)/alpha**2 and clear to a single polynomial in r
    subst = Polynomial((1 / alpha**2, 0, -1 / alpha**2))
    pr = rad.compose(subst) + tail.compose(subst).shift_up(2 * m - 1)
    return ConfluentNormalForm(family, pr)


def _radicand(alpha: Fraction, num: int, den: int) -> tuple:
    """u = 1 - alpha**2 * num/den in lowest terms, as an int pair."""
    a, b = alpha.numerator, alpha.denominator
    n, d = b * b * den - a * a * num, b * b * den
    g = math.gcd(n, d)
    return n // g, d // g


def _point_rungs(nf, h: Fraction):
    """The enclosure of nf/pi at the point h, as a function of the bits.

    The exact parts (the polynomials at h and the radicands) are formed
    once, from `nf.ints`; each call `rung(bits)` returns the endpoints as
    int pairs ((lo_num, lo_den), (hi_num, hi_den)), denominators positive.
    Each rung takes one `sqrt_bracket` per distinct radicand: a mirror
    pair (`nf.merged`, r1 == r2) is first combined exactly into one part
    over the lower power of r, so parts that cancel at h leave no width,
    and a zero form of any kind gives the exact point 0.  The endpoints
    are those that interval arithmetic on `RatInterval` gives with
    `sqrt_rational` at the same bits, on the same parts: every radical
    factor here is positive, so each endpoint takes the root bound that
    the known sign of its partner calls for, where `RatInterval` takes
    the min and max of four products.
    """
    fam = nf.family
    num, den = h.numerator, h.denominator
    if isinstance(nf, ConfluentNormalForm):
        return _confluent_rungs(nf, _radicand(fam.alpha1, num, den))
    ints = nf.ints
    # every part at h is an int over one d = ints.den * den**j
    j = max(len(ints.rad1), len(ints.rad2), len(ints.tail), 1) - 1
    d = ints.den * den**j
    tail = _scaled_at(ints.tail, num, den, j)
    parts = [
        (_scaled_at(rad, num, den, j), _radicand(alpha, num, den), 2 * m - 1)
        for rad, (alpha, m) in zip((ints.rad1, ints.rad2), _poles(fam))
    ]
    if nf.merged:
        # one radicand u = un/ud, and r**(k + 2*delta) = u**delta * r**k:
        # the pair is (v_lo*un**delta + v_hi*ud**delta) / (d*un**delta * r**k)
        (v_lo, u, k), (v_hi, _, k_hi) = sorted(parts, key=lambda part: part[2])
        un, ud = (x ** ((k_hi - k) // 2) for x in u)
        parts, tail, d = [(v_lo * un + v_hi * ud, u, k)], tail * un, d * un
    parts = [part for part in parts if part[0]]

    def rung(bits: int) -> tuple:
        (ln, ld), (hn, hd) = (tail, d), (tail, d)
        for v, u, k in parts:
            # (v/d) / r**k with r in [s, t]/scale: r = t gives the end
            # nearer zero, r = s the farther one
            s, t, scale = sqrt_bracket(*u, bits)
            top, near, far = v * scale**k, d * t**k, d * s**k
            if v < 0:
                near, far = far, near
            ln, ld = ln * near + top * ld, ld * near
            hn, hd = hn * far + top * hd, hd * far
        return (ln, ld), (hn, hd)

    return rung


def _confluent_rungs(nf, u: tuple):
    """`_point_rungs` for pr(r)/r**(2m-1): interval Horner of pr over
    r in [s, t]/scale on int numerators over den * scale**j."""
    den, (ic,) = nf.ints
    ic = ic or [0]  # the zero form
    deg, k = len(ic) - 1, 2 * nf.m - 1

    def rung(bits: int) -> tuple:
        s, t, scale = sqrt_bracket(*u, bits)
        lo = hi = ic[-1]
        spow = 1
        for c in reversed(ic[:-1]):
            # 0 < s <= t: a nonnegative end grows with r, a negative one
            # falls
            spow *= scale
            lo = lo * (s if lo >= 0 else t) + c * spow
            hi = hi * (t if hi >= 0 else s) + c * spow
        # [lo, hi] / (den * scale**deg) encloses pr(r); divide by r**k
        up, down = scale ** max(k - deg, 0), den * scale ** max(deg - k, 0)
        sk, tk = s**k, t**k
        return (
            (lo * up, down * (tk if lo >= 0 else sk)),
            (hi * up, down * (sk if hi >= 0 else tk)),
        )

    return rung


def evaluate_normal_form(nf, h, precision: int = 30) -> RatInterval:
    """Rigorous enclosure of the integral value (pi included) at rational h,
    of width at most 10**-precision.

    The bits double from 64 until the enclosure is narrow enough.  Each
    rung runs in ints (`_point_rungs`, one `sqrt_bracket` per distinct
    radicand), multiplies by `pi_interval` the same way and tests the
    width by cross-multiplication; only the returned interval is built
    from `Fraction`s.  A zero form needs no special case: its parts
    vanish, so the first rung is the exact point 0.  No rung can divide by
    zero, so none is retried: a radicand u = n/d > 0 has n*d >= 1, and
    `sqrt_bracket` then bounds every root from below by 2**bits/scale.
    """
    h = as_rational(h)
    try:
        precision = operator.index(precision)
    except TypeError:  # 2.5 or Fraction(7, 2): 10**precision is no integer
        precision = 0
    if precision < 1:
        raise ValueError("precision must be a positive digit count")
    if h < 0 or h >= nf.family.h_max:
        raise ValueError("evaluation point outside [0, h_max)")
    inverse_width = 10**precision
    rung = _point_rungs(nf, h)
    bits = 64
    while True:
        (ln, ld), (hn, hd) = rung(bits)
        pi = pi_interval(bits)
        # pi > 0: a nonnegative lower end takes pi.lo, a negative one pi.hi
        lo_pi, hi_pi = (pi.lo if ln >= 0 else pi.hi), (pi.hi if hn >= 0 else pi.lo)
        ln, ld = ln * lo_pi.numerator, ld * lo_pi.denominator
        hn, hd = hn * hi_pi.numerator, hd * hi_pi.denominator
        if (hn * ld - ln * hd) * inverse_width <= hd * ld:
            return RatInterval(Fraction(ln, ld), Fraction(hn, hd))
        bits *= 2
        if bits > 1 << 22:  # pragma: no cover - hard safety stop
            raise RuntimeError("enclosure did not reach the requested width")
