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
When alpha1 == alpha2 the two radical parts collapse and the function is
pr(r) / r**(2*(m1+m2)-1) for a single rational polynomial pr in r.

Assembly is linear in the perturbation coefficients and runs in ints.  Per
family (its tuple of poles), `_FamilyIntegrals` tabulates the integral of
each monomial x**i * y**j once, as int numerators over one denominator; an
assembly sums those with the coefficients over one common denominator and
builds one `Fraction` per output coefficient.  The integrals of the
CACHED_FAMILIES most recently used families stay cached; an older family's
are dropped whole, so memory stays bounded on any stream of families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .intervals import RatInterval, pi_interval, poly_range, sqrt_interval
from .polynomials import Polynomial, as_rational


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
        if self.m1 < 1 or self.m2 < 1:
            raise ValueError("m1 and m2 must be positive integers")

    @property
    def h_max(self) -> Fraction:
        """Right end of the annulus of closed orbits."""
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
        if self.n < 0:
            raise ValueError("perturbation degree must be >= 0")
        self.box = as_rational(self.box)
        if self.box <= 0:
            raise ValueError("coefficient box bound must be positive")
        for name in ("a", "b"):
            grid = getattr(self, name)
            clean = {}
            for (i, j), value in grid.items():
                value = as_rational(value)
                if i < 0 or j < 0 or i + j > self.n:
                    raise ValueError(f"{name}[{i},{j}] outside 0 <= i+j <= {self.n}")
                if abs(value) > self.box:
                    raise ValueError(f"|{name}[{i},{j}]| exceeds the box bound {self.box}")
                if value != 0:
                    clean[(i, j)] = value
            setattr(self, name, clean)

    @property
    def is_zero(self) -> bool:
        return not self.a and not self.b


@dataclass(frozen=True)
class MelnikovNormalForm:
    """rad1/r1**(2*m1-1) + rad2/r2**(2*m2-1) + tail, in units of pi."""

    family: SystemFamily
    rad1: Polynomial
    rad2: Polynomial
    tail: Polynomial
    merged: bool = False

    @property
    def is_zero(self) -> bool:
        return self.rad1.is_zero and self.rad2.is_zero and self.tail.is_zero

    def center_value(self) -> Fraction:
        """Exact value at h = 0, where both radicals equal 1."""
        return self.rad1.eval(0) + self.rad2.eval(0) + self.tail.eval(0)

    def __add__(self, other: "MelnikovNormalForm") -> "MelnikovNormalForm":
        if other.family != self.family:
            raise AssemblyError("cannot add normal forms of different families")
        return MelnikovNormalForm(
            self.family,
            self.rad1 + other.rad1,
            self.rad2 + other.rad2,
            self.tail + other.tail,
            self.merged,
        )

    def scale(self, c) -> "MelnikovNormalForm":
        return MelnikovNormalForm(
            self.family, self.rad1.scale(c), self.rad2.scale(c), self.tail.scale(c), self.merged
        )


@dataclass(frozen=True)
class ConfluentNormalForm:
    """pr(r) / r**(2*m-1) with r = sqrt(1 - alpha**2 * h), in units of pi."""

    family: SystemFamily
    pr: Polynomial
    m: int

    @property
    def is_zero(self) -> bool:
        return self.pr.is_zero

    def center_value(self) -> Fraction:
        """Exact value at h = 0 (r = 1)."""
        return self.pr.eval(1)

    def __add__(self, other: "ConfluentNormalForm") -> "ConfluentNormalForm":
        if other.family != self.family:
            raise AssemblyError("cannot add normal forms of different families")
        return ConfluentNormalForm(self.family, self.pr + other.pr, self.m)

    def scale(self, c) -> "ConfluentNormalForm":
        return ConfluentNormalForm(self.family, self.pr.scale(c), self.m)


@dataclass(frozen=True)
class PartialFractionRow:
    """Exact expansion of x**k / ((1-a1*x)**m1 * (1-a2*x)**m2).

    tilde_a[j-1] weights 1/(1-a1*x)**j for j = 1..m1, tilde_b likewise for
    the second factor, and tail holds the polynomial part (empty unless
    k >= m1 + m2).
    """

    k: int
    tilde_a: tuple
    tilde_b: tuple
    tail: tuple


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

    Derived from the integration-by-parts recurrence
    (m-1)*w*J_m = (2m-3)*J_{m-1} - (m-2)*J_{m-2}, seeded by J_1 = 2*pi/r.
    """
    if m < 1:
        raise ValueError("radical power must be >= 1")
    w = Polynomial.x()
    u_prev2 = u_prev1 = Polynomial.constant(2)  # U_1, U_2
    for k in range(3, m + 1):
        u_prev2, u_prev1 = u_prev1, (
            u_prev1.scale(2 * k - 3) - (w * u_prev2).scale(k - 2)
        ).scale(Fraction(1, k - 1))
    return u_prev1


@dataclass(frozen=True)
class SingleFactorIntegral:
    """rad(h)/r**(2*m-1) + tail(h) with r = sqrt(1 - alpha**2*h), pi units."""

    alpha: Fraction
    m: int
    rad: Polynomial
    tail: Polynomial


def _u_poly(alpha: Fraction) -> Polynomial:
    """1 - alpha**2 * h as a polynomial in h."""
    return Polynomial((1, -(alpha * alpha)))


def _pole_weights(k: int, alpha: Fraction, m: int, beta: Fraction, mb: int) -> tuple:
    """Weights of 1/(1-alpha*x)**j, j = 1..m, in x**k/((1-alpha*x)**m*(1-beta*x)**mb).

    With t = 1 - alpha*x the function is
    alpha**(mb-k) * (1-t)**k * (c + d*t)**-mb / t**m, c = alpha - beta,
    d = beta, so the weight of 1/t**j is the Taylor coefficient of t**(m-j)
    in the numerator.  mb = 0 is the single-factor case.
    """
    c = alpha - beta
    ratio = -beta / c
    # (1 + (d/c)*t)**-mb, then times (1-t)**k, both truncated at t**(m-1)
    inverse = [Fraction(1)]
    for i in range(1, m):
        inverse.append(inverse[-1] * (mb + i - 1) * ratio / i)
    taylor = [
        sum((-1) ** l * math.comb(k, l) * inverse[i - l] for l in range(min(i, k) + 1))
        for i in range(m)
    ]
    scale = alpha ** (mb - k) / c**mb
    return tuple(scale * taylor[m - j] for j in range(1, m + 1))


def _expand(k: int, poles: tuple) -> tuple:
    """Partial fractions of x**k over the product of (1-alpha*x)**m for the
    one or two (alpha, m) in poles: the weights at each pole, then the
    coefficients of the polynomial part x**k // denominator."""
    weights = []
    denominator = Polynomial.one()
    for idx, (alpha, m) in enumerate(poles):
        beta, mb = poles[1 - idx] if len(poles) == 2 else (Fraction(0), 0)
        weights.append(_pole_weights(k, alpha, m, beta, mb))
        denominator = denominator * Polynomial((1, -alpha)) ** m
    return (*weights, (Polynomial.monomial(k) // denominator).coeffs)


def _lift(j: int, m: int, alpha: Fraction) -> Polynomial:
    """U_j(u) * u**(m-j) with u = 1 - alpha**2*h: the loop integral of
    dt/(1-alpha*x)**j over the common denominator r**(2m-1)."""
    u = _u_poly(alpha)
    return _radial_numerator(j).compose(u) * u ** (m - j)


def _add_scaled(total: list, part, f: int, shift: int = 0) -> None:
    """total += f * x**shift * part, in place, on int coefficient lists."""
    missing = shift + len(part) - len(total)
    if missing > 0:
        total.extend([0] * missing)
    for k, c in enumerate(part, start=shift):
        total[k] += f * c


def _polynomials(den: int, parts) -> list:
    """The int coefficient lists over den as `Polynomial`s."""
    return [Polynomial([Fraction(c, den) for c in part]) for part in parts]


class _FamilyIntegrals:
    """Loop integrals over one tuple of poles, memoised as they are needed.

    Each pole's lifts are `Polynomial`s; the integral of x**k over the
    poles' product and the table of monomials x**i * y**j hold their parts
    (one radical numerator per pole, then the polynomial tail in h) as int
    coefficient tuples over one positive denominator, `(den, parts)`.
    """

    def __init__(self, poles: tuple):
        self.poles = poles
        self._lifts, self._pure, self._table = {}, {}, {}

    def lift(self, idx: int, j: int) -> Polynomial:
        """`_lift` of power j at pole idx."""
        key = (idx, j)
        if key not in self._lifts:
            alpha, m = self.poles[idx]
            self._lifts[key] = _lift(j, m, alpha)
        return self._lifts[key]

    def pure(self, k: int) -> tuple:
        """Loop integral of x**k over the poles' product, dt."""
        if k not in self._pure:
            *weights, quotient = _expand(k, self.poles)
            parts = []
            for idx, pole_weights in enumerate(weights):
                rad = Polynomial.zero()
                for j, c in enumerate(pole_weights, start=1):
                    if c:
                        rad = rad + self.lift(idx, j).scale(c)
                parts.append(rad)
            tail = Polynomial.zero()
            for i, c in enumerate(quotient):
                if c:
                    tail = tail + circle_moment(i, 0).scale(c)
            parts.append(tail)
            den = math.lcm(*(c.denominator for p in parts for c in p.coeffs))
            self._pure[k] = den, tuple(
                tuple(c.numerator * (den // c.denominator) for c in p.coeffs) for p in parts
            )
        return self._pure[k]

    def monomial(self, i: int, j: int) -> tuple:
        """Loop integral of x**i * y**j over the poles' product, dt.

        Odd powers of y integrate to zero by the t -> pi - t symmetry; even
        powers expand binomially through y**2 = h - x**2.
        """
        if j % 2 == 1:
            return 1, ((),) * (len(self.poles) + 1)
        key = (i, j)
        if key not in self._table:
            kk = j // 2
            terms = [self.pure(i + 2 * l) for l in range(kk + 1)]
            den = math.lcm(*(d for d, _parts in terms))
            sums = [[] for _ in range(len(self.poles) + 1)]
            for l, (d, parts) in enumerate(terms):
                f = (-1) ** l * math.comb(kk, l) * (den // d)
                for total, part in zip(sums, parts):
                    _add_scaled(total, part, f, kk - l)
            self._table[key] = den, tuple(map(tuple, sums))
        return self._table[key]


@lru_cache(maxsize=CACHED_FAMILIES)
def _integrals(poles: tuple) -> _FamilyIntegrals:
    return _FamilyIntegrals(poles)


def _integrate(coeffs: PerturbCoeffs, poles: tuple) -> list:
    """The parts of the first-order integral, linear in the coefficients:
    a[i,j] weights the x**(i+1)*y**j integrand monomial and b[i,j] the
    x**i*y**(j+1) one.  The sum runs in ints over one common denominator."""
    integrals = _integrals(poles)
    terms = [(integrals.monomial(i + 1, j), v) for (i, j), v in coeffs.a.items()]
    terms += [(integrals.monomial(i, j + 1), v) for (i, j), v in coeffs.b.items()]
    den = math.lcm(*(d * v.denominator for (d, _parts), v in terms))
    sums = [[] for _ in range(len(poles) + 1)]
    for (d, parts), v in terms:
        f = v.numerator * (den // (d * v.denominator))
        for total, part in zip(sums, parts):
            _add_scaled(total, part, f)
    return _polynomials(den, sums)


def _poles(family: SystemFamily) -> tuple:
    return ((family.alpha1, family.m1), (family.alpha2, family.m2))


def pure_power_integral(m: int, alpha) -> SingleFactorIntegral:
    """Loop integral of dt / (1 - alpha*x)**m, m >= 1, in closed form."""
    alpha = as_rational(alpha)
    if m < 1:
        raise ValueError("power must be >= 1")
    return SingleFactorIntegral(alpha, m, _lift(m, m, alpha), Polynomial.zero())


def monomial_power_integral(k: int, m: int, alpha) -> SingleFactorIntegral:
    """Loop integral of x**k / (1 - alpha*x)**m dt."""
    alpha = as_rational(alpha)
    if k < 0 or m < 1:
        raise ValueError("need k >= 0 and m >= 1")
    rad, tail = _polynomials(*_integrals(((alpha, m),)).pure(k))
    return SingleFactorIntegral(alpha, m, rad, tail)


def partial_fractions(k: int, family: SystemFamily) -> PartialFractionRow:
    """Expand x**k over the two distinct linear factors of the family.

    Requires alpha1 != alpha2; the confluent case goes through
    monomial_power_integral with the single factor instead.
    """
    if family.is_confluent:
        raise AssemblyError("partial fractions need distinct alphas")
    if k < 0:
        raise ValueError("k must be >= 0")
    return PartialFractionRow(k, *_expand(k, _poles(family)))


def monomial_integral(i: int, j: int, family: SystemFamily) -> MelnikovNormalForm:
    """Loop integral of x**i * y**j / W dt in normal form (alpha1 != alpha2)."""
    if family.is_confluent:
        raise AssemblyError("confluent family: use the single-radical path")
    if i < 0 or j < 0:
        raise ValueError("exponents must be >= 0")
    rad1, rad2, tail = _polynomials(*_integrals(_poles(family)).monomial(i, j))
    return MelnikovNormalForm(family, rad1, rad2, tail, family.is_mirror)


def assemble_melnikov(family: SystemFamily, coeffs: PerturbCoeffs) -> MelnikovNormalForm:
    """Exact normal form of the first-order integral, alpha1 != alpha2."""
    if family.is_confluent:
        raise AssemblyError("confluent family passed to the two-radical assembly")
    rad1, rad2, tail = _integrate(coeffs, _poles(family))
    return MelnikovNormalForm(family, rad1, rad2, tail, family.is_mirror)


def assemble_confluent(family: SystemFamily, coeffs: PerturbCoeffs) -> ConfluentNormalForm:
    """Exact single-radical form for alpha1 == alpha2.

    The result is pr(r)/r**(2m-1) with m = m1 + m2: polynomial-in-h parts
    pick up the odd powers r**(2m-1) and above, the radical parts the even
    powers below 2m-1, and pr(1) = 0 since the function vanishes at h = 0.
    """
    if not family.is_confluent:
        raise AssemblyError("two distinct alphas passed to the confluent assembly")
    alpha = family.alpha1
    m = family.m1 + family.m2
    rad, tail = _integrate(coeffs, ((alpha, m),))
    # substitute h = (1 - r**2)/alpha**2 and clear to a single polynomial in r
    subst = Polynomial((1 / alpha**2, 0, -1 / alpha**2))
    pr = rad.compose(subst) + tail.compose(subst).shift_up(2 * m - 1)
    return ConfluentNormalForm(family, pr, m)


def assemble(family: SystemFamily, coeffs: PerturbCoeffs):
    """Dispatch to the confluent or two-radical assembly.

    Uncapped: only `cli.parse_spec` limits m1, m2 <= 16 and n <= 32."""
    if family.is_confluent:
        return assemble_confluent(family, coeffs)
    return assemble_melnikov(family, coeffs)


def scaled_value(nf, h: RatInterval, bits: int) -> RatInterval:
    """Enclosure of the normal-form value divided by pi over an h-interval.

    The h-interval must stay inside [0, h_max); radical enclosures are
    computed to ~2**-bits and widen naturally near the annulus edge.
    """
    fam = nf.family
    if h.lo < 0 or h.hi >= fam.h_max:
        raise ValueError("evaluation point outside [0, h_max)")
    if isinstance(nf, ConfluentNormalForm):
        w = poly_range(_u_poly(fam.alpha1), h)
        r = sqrt_interval(w, bits)
        return poly_range(nf.pr, r) / r.ipow(2 * nf.m - 1)
    r1 = sqrt_interval(poly_range(_u_poly(fam.alpha1), h), bits)
    r2 = sqrt_interval(poly_range(_u_poly(fam.alpha2), h), bits)
    total = poly_range(nf.tail, h)
    if not nf.rad1.is_zero:
        total = total + poly_range(nf.rad1, h) / r1.ipow(2 * fam.m1 - 1)
    if not nf.rad2.is_zero:
        total = total + poly_range(nf.rad2, h) / r2.ipow(2 * fam.m2 - 1)
    return total


def evaluate_normal_form(nf, h, precision: int = 30) -> RatInterval:
    """Rigorous enclosure of the integral value (pi included) at rational h,
    of width at most 10**-precision."""
    h = as_rational(h)
    if precision < 1:
        raise ValueError("precision must be a positive digit count")
    if h < 0 or h >= nf.family.h_max:
        raise ValueError("evaluation point outside [0, h_max)")
    if nf.is_zero:
        return RatInterval.point(0)
    target = Fraction(1, 10**precision)
    point = RatInterval.point(h)
    bits = 64
    while True:
        try:
            val = scaled_value(nf, point, bits) * pi_interval(bits)
        except ZeroDivisionError:
            val = None
        if val is not None and val.width <= target:
            return val
        bits *= 2
        if bits > 1 << 22:  # pragma: no cover - hard safety stop
            raise RuntimeError("enclosure did not reach the requested width")
