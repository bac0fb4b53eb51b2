"""Test-side oracles, independent of the certified machinery they check.

The gcd, Yun decomposition and Sturm chain here use plain rational
arithmetic (`Fraction` Euclid and `Fraction` remainders), not the modular
gcd over Z of `melcert.polynomials`, so they share no algorithm with the
code under test.  `oracle_taylor_shift` is Horner's
shift as the plain double loop, where `melcert.polynomials` runs each pass
as a running sum.
`OracleSturm` counts, isolates and refines roots by Sturm's theorem,
where `melcert.polynomials` counts sign variations in the Bernstein basis
and refines by bisection that skips along runs to one side;
`oracle_shrink_inside` moves an isolating interval off the window ends by
refine calls that each quarter its width, where `DescartesIsolator.inside`
walks the bisection tree once;
`descartes_bound` and `cauchy_root_bound` are the classical bounds the
tests check counts against.  The partial fractions here solve the dense
linear system for the coefficients, and the single-factor expansion
substitutes x = (1 - (1-alpha*x))/alpha binomially, where `melcert.melnikov`
steps a recurrence in k from the Taylor weights of 1/D at each pole.  The
eliminant here squares rational polynomials in h, where `melcert.zeros`
forms an integer norm with the radicands cleared of denominators.  `oracle_integrate` sums
the first-order integral monomial by monomial in `Fraction` polynomials,
each monomial from the integrals of x**k that these partial fractions,
radial numerators and Wallis moments give, where `melcert.melnikov`
collapses the integrand to one polynomial in h per power of x and per pole
before it multiplies by the int lifts.
The radial numerators here follow the integration-by-parts recurrence in
`Fraction` polynomials, where `melcert.melnikov` sums their closed form.
`oracle_point_enclosure` encloses the normal form at a point in
`RatInterval` arithmetic (exact polynomial values, `sqrt_interval`,
reciprocal powers, times `pi_interval`), where `melcert.melnikov` runs the
same rungs on int numerators and picks each endpoint by sign; a mirror
pair is summed exactly at the point first in both, and
`oracle_point_split`, which encloses its two parts one by one, is the
reference its width is checked against.  The
interval helpers it needs beyond `RatInterval`'s own ring operations
(`sqrt_interval`, `poly_range`, `ipow`, `reciprocal`, `divide`) live here,
since nothing in melcert encloses a value over a whole interval.
`oracle_point_sign` decides the sign at a rational point by value algebra
on the parts evaluated there, where `melcert.zeros` walks the form's tree
of int polynomials.  `oracle_row_reduce` eliminates on `Fraction` rows,
where `melcert.zeros` runs a fraction-free elimination on ints.
`oracle_field` evaluates the perturbation monomial by monomial from tables
of powers of x and y, where `melcert.flow` compiles Horner source for it.
`oracle_quadrature`, `oracle_section_rate` and `oracle_dop853` are the
flow's loops of one call per point: a per-node integrand call with its own
sin and cos, a rate closure over a compiled `pq`, and an integrator that
sums each stage through a loop, where `melcert.flow` and `melcert.dop853`
run generated straight-line kernels.  They do the same float operations in
the same order, so the two must agree bit for bit.
"""

import math
from fractions import Fraction
from functools import lru_cache

from melcert import dop853, flow
from melcert.flow import FlowError, QuadratureError
from melcert.intervals import RatInterval, pi_interval, sqrt_rational
from melcert.melnikov import ConfluentNormalForm, _u_poly
from melcert.polynomials import Polynomial, _primitive_ints, _scaled_at


def primitive_ints(p):
    """p as the root core's one format, the primitive int list that the
    public wrappers pass on; the tests build every `DescartesIsolator`,
    `squarefree_factors` and `zeros._candidates` call on it."""
    return _primitive_ints(p)


def oracle_gcd(a, b):
    """Monic gcd by the rational Euclidean algorithm (0 only if both zero)."""
    while not b.is_zero:
        a, b = b, (a % b)
        if not b.is_zero:
            b = b.monic()
    return a.monic() if not a.is_zero else a


def oracle_yun(p):
    """Yun decomposition on `oracle_gcd`: [(f1, 1), (f2, 2), ...], monic,
    pairwise coprime factors, multiplicity-0 entries omitted."""
    if p.degree <= 0:
        return []
    out = []
    g = oracle_gcd(p, p.derivative())
    b = p.exact_div(g)
    c = p.derivative().exact_div(g)
    d = c - b.derivative()
    i = 1
    while b.degree > 0:
        fi = oracle_gcd(b, d)
        if fi.degree > 0:
            out.append((fi, i))
        b = b.exact_div(fi)
        c = d.exact_div(fi)
        d = c - b.derivative()
        i += 1
    return out


def oracle_sturm_chain(p):
    """Sturm chain of (p, p') from rational remainders, each member scaled
    to primitive integers; ends at a constant or where a remainder
    vanishes.  Returned as integer coefficient lists, constant term first."""
    chain = [p.primitive()]
    d = p.derivative()
    if not d.is_zero:
        chain.append(d.primitive())
        while chain[-1].degree > 0:
            r = -(chain[-2] % chain[-1])
            if r.is_zero:
                break
            chain.append(r.primitive())
    return [[c.numerator for c in q.coeffs] for q in chain]


def _sign_at(ic, q):
    """Sign of the int polynomial ic (constant term first) at the rational q."""
    deg = len(ic) - 1
    acc, pw = 0, 1
    for k, c in enumerate(ic):
        if c:
            acc += c * pw * q.denominator ** (deg - k)
        pw *= q.numerator
    return (acc > 0) - (acc < 0)


def sign_changes(signs):
    nonzero = [s for s in signs if s]
    return sum(a != b for a, b in zip(nonzero, nonzero[1:]))


def oracle_taylor_shift(c, a):
    """Coefficients of c(x + a), constant term first: Horner's shift as the
    double loop, where `melcert.polynomials` runs each pass as a running
    sum."""
    c = list(c)
    n = len(c) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            c[j] += a * c[j + 1]
    return c


def descartes_bound(p):
    """Sign changes of the coefficient sequence: an upper bound, of the same
    parity, for the number of positive roots counted with multiplicity."""
    if p.is_zero:
        raise ValueError("Descartes bound of the zero polynomial")
    return sign_changes([(c > 0) - (c < 0) for c in p.coeffs])


def cauchy_root_bound(p):
    """1 + max |c_k| / |lead|: every real root lies in [-bound, bound]."""
    if p.is_zero:
        raise ValueError("root bound of the zero polynomial")
    if p.degree == 0:
        return Fraction(1)
    return 1 + max(abs(c) for c in p.coeffs[:-1]) / abs(p.leading)


class OracleSturm:
    """Sturm's theorem on `oracle_sturm_chain` of p's squarefree part.

    V(lo) - V(hi) counts the distinct roots in (lo, hi], even when an
    endpoint is a root.  Isolation bisects the window on the dyadic tree
    and stops at the first node holding at most one root; a midpoint that
    hits a root while its node holds another becomes a degenerate interval,
    and the split retreats to the nearest cut points with no other root
    between.  Refinement bisects by signs, or by counts while hi is a root.
    """

    def __init__(self, p):
        if p.degree > 0:
            p = p.exact_div(oracle_gcd(p, p.derivative()))
        self.chain = oracle_sturm_chain(p)

    def sign_at(self, x):
        return _sign_at(self.chain[0], x)

    def count(self, lo, hi):
        if lo >= hi:
            return 0
        variations = [sign_changes([_sign_at(ic, x) for ic in self.chain]) for x in (lo, hi)]
        return variations[0] - variations[1]

    def isolate(self, lo, hi):
        found = []

        def split(a, b):
            n = self.count(a, b) - (self.sign_at(b) == 0)  # in the open (a, b)
            if n == 0:
                return
            if n == 1:
                found.append(RatInterval(a, b))
                return
            mid = (a + b) / 2
            if self.sign_at(mid) != 0:
                split(a, mid)
                split(mid, b)
                return
            found.append(RatInterval(mid, mid))
            near = self.widen(mid, (b - a) / 4)
            split(a, near.lo)
            split(near.hi, b)

        if lo < hi:
            split(lo, hi)
            if self.sign_at(hi) == 0:
                found.append(RatInterval(hi, hi))
        return sorted(found, key=lambda r: (r.lo, r.hi))

    def widen(self, x, delta):
        while True:
            lo, hi = x - delta, x + delta
            if self.sign_at(lo) and self.sign_at(hi) and self.count(lo, hi) == 1:
                return RatInterval(lo, hi)
            delta /= 2

    def refine(self, iv, width):
        lo, hi = iv.lo, iv.hi
        s_hi = self.sign_at(hi)
        while hi - lo > width:
            mid = (lo + hi) / 2
            s = self.sign_at(mid)
            if s == 0:
                return RatInterval(mid, mid)
            if s == s_hi or (s_hi == 0 and self.count(lo, mid) == 1):
                hi, s_hi = mid, s
            else:
                lo = mid
        return RatInterval(lo, hi)


def oracle_shrink_inside(core, iv, lo, hi):
    """The cell around iv's root strictly inside (lo, hi) by refine calls
    that each quarter the width, where `DescartesIsolator.inside` walks the
    bisection tree once and skips along runs; an exact hit is widened."""
    width = iv.width
    while iv.lo <= lo or iv.hi >= hi:
        width = width / 4
        iv = core.refine(iv, width)
    if iv.lo == iv.hi:
        iv = core.widen(iv.lo, min(iv.lo - lo, hi - iv.lo) / 2)
    return iv


def oracle_eliminant(nf):
    """Primitive eliminant of a two-radical normal form, in `Fraction`s.

    With r**(2m-1) = u**(m-1)*r, a mirror pair is a positive multiple of
    p + q*r1, and so is any other form a*r2 + b*r1 + c*r1*r2 with b = 0
    (over r2) or with a = c = 0 (p = b, q = 0); it gives p**2 - q**2 u1, or
    p itself when q = 0 and q when p = 0, since each of those squarings is
    a square.  Any other form is squared twice, to inner**2 - 4 a**2 b**2
    u1 u2 with inner = c**2 u1 u2 - a**2 u2 - b**2 u1; with a = 0 or c = 0
    that is the square of inner + 2 a**2 u2, which is returned instead.
    """
    fam = nf.family
    u1 = Polynomial((1, -fam.alpha1**2))
    u2 = Polynomial((1, -fam.alpha2**2))
    a = nf.rad1 * u2 ** (fam.m2 - 1)
    b = nf.rad2 * u1 ** (fam.m1 - 1)
    c = nf.tail * u1 ** (fam.m1 - 1) * u2 ** (fam.m2 - 1)
    if nf.merged:
        m_bar = max(fam.m1, fam.m2)
        p = nf.rad1 * u1 ** (m_bar - fam.m1) + nf.rad2 * u1 ** (m_bar - fam.m2)
        q = nf.tail * u1 ** (m_bar - 1)
    elif b.is_zero:
        p, q = a, c
    elif a.is_zero and c.is_zero:
        p, q = b, Polynomial.zero()
    else:
        inner = c * c * u1 * u2 - a * a * u2 - b * b * u1
        if a.is_zero or c.is_zero:
            return (inner + (a * a * u2).scale(2)).primitive()
        return (inner * inner - (a * b * a * b * u1 * u2).scale(4)).primitive()
    if p.is_zero or q.is_zero:
        return (q if p.is_zero else p).primitive()
    return (p * p - q * q * u1).primitive()


def grid_scan_count(p, lo, hi, steps):
    """Distinct-root oracle on (lo, hi]: exact signs on a uniform grid.

    Counts grid points that are exact roots plus sign changes between
    consecutive nonzero signs.  Valid whenever adjacent roots of each
    squarefree factor are separated by more than one grid step; the
    multiplicity analysis runs the scan per Yun factor (`oracle_yun`) so
    even-order roots are seen too.
    """
    total = 0
    for factor, _mult in oracle_yun(p):
        den = math.lcm(*(c.denominator for c in factor.coeffs))
        ic = [int(c * den) for c in factor.coeffs]
        prev = _sign_at(ic, lo)
        count = 0
        if prev == 0:
            prev = None  # root at lo is excluded by the half-open convention
        for k in range(1, steps + 1):
            q = lo + (hi - lo) * k / steps
            s = _sign_at(ic, q)
            if s == 0:
                count += 1
                prev = None
            else:
                if prev is not None and s != prev:
                    count += 1
                prev = s
        total += count
    return total


def _inverse(matrix):
    """Exact Gauss-Jordan elimination of a square matrix against the
    identity: the rows of its inverse."""
    n = len(matrix)
    aug = [list(row) + [Fraction(int(r == c)) for c in range(n)] for r, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [v / pv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


@lru_cache(maxsize=None)
def _partial_fraction_inverse(alpha1, m1, alpha2, m2, size):
    """Inverse of the matrix whose columns are the coefficients, rows 0 to
    size - 1, of D/(1-alpha1*x)**j, D/(1-alpha2*x)**j and x**i * D, with D
    = (1-alpha1*x)**m1 * (1-alpha2*x)**m2 and i < size - m1 - m2."""
    f1 = Polynomial((1, -alpha1))
    f2 = Polynomial((1, -alpha2))
    basis = [f1 ** (m1 - j) * f2**m2 for j in range(1, m1 + 1)]
    basis += [f1**m1 * f2 ** (m2 - j) for j in range(1, m2 + 1)]
    full = f1**m1 * f2**m2
    basis += [full.shift_up(j) for j in range(size - m1 - m2)]
    return _inverse([[p.coeff(row) for p in basis] for row in range(size)])


def oracle_partial_fractions(k, alpha1, m1, alpha2, m2):
    """(tilde_a, tilde_b, tail) for x**k / ((1-alpha1*x)**m1 (1-alpha2*x)**m2)
    from the linear system that equates coefficients after clearing the
    denominator, whose solution for x**k is column k of the inverse;
    alpha1 != alpha2."""
    inverse = _partial_fraction_inverse(alpha1, m1, alpha2, m2, max(m1 + m2, k + 1))
    sol = [row[k] for row in inverse]
    return tuple(sol[:m1]), tuple(sol[m1 : m1 + m2]), tuple(sol[m1 + m2 :])


def _wallis(q):
    """Loop integral of sin(t)**q dt over pi, q even."""
    return Fraction(2 * math.prod(range(q - 1, 0, -2)), math.prod(range(q, 0, -2)))


def oracle_power_moment(p, alpha):
    """Loop integral of (1 - alpha*x)**p dt / pi for p >= 0, a polynomial in
    h, by the binomial expansion and the Wallis moments of sin**q."""
    out = Polynomial.zero()
    for q in range(0, p + 1, 2):
        out = out + Polynomial.monomial(q // 2, math.comb(p, q) * _wallis(q) * alpha**q)
    return out


def oracle_radial_numerator(m):
    """U_m(w), the loop integral of (1 - a*sin t)**-m dt over pi/r**(2m-1)
    with w = r**2 = 1 - a**2, by the integration-by-parts recurrence
    (m-1)*w*J_m = (2m-3)*J_{m-1} - (m-2)*J_{m-2}, seeded by J_1 = 2*pi/r."""
    w = Polynomial.x()
    u_prev2 = u_prev1 = Polynomial.constant(2)  # U_1, U_2
    for k in range(3, m + 1):
        u_prev2, u_prev1 = u_prev1, (
            u_prev1.scale(2 * k - 3) - (w * u_prev2).scale(k - 2)
        ).scale(Fraction(1, k - 1))
    return u_prev1


def oracle_single_factor(k, m, alpha):
    """(weights, tail) for x**k / (1-alpha*x)**m: weights[j-1] multiplies
    1/(1-alpha*x)**j, and tail is the loop integral of the polynomial part
    in h.  Substitutes x = (1 - (1-alpha*x))/alpha and expands binomially."""
    weights = [Fraction(0)] * m
    tail = Polynomial.zero()
    for j in range(k + 1):
        c = (-1) ** j * math.comb(k, j) / alpha**k
        if j < m:
            weights[m - j - 1] = c
        else:
            tail = tail + oracle_power_moment(j - m, alpha).scale(c)
    return tuple(weights), tail


def oracle_circle_moments(quotient):
    """Loop integral of sum_i quotient[i] * x**i dt over pi, in h: the
    Wallis moments of the even powers of x = sqrt(h)*sin(t)."""
    out = Polynomial.zero()
    for i, c in enumerate(quotient[::2]):
        out = out + Polynomial.monomial(i, c * _wallis(2 * i))
    return out


@lru_cache(maxsize=None)
def oracle_lift(j, m, alpha):
    """U_j(u) * u**(m-j), u = 1 - alpha**2 h: the loop integral of
    dt/(1-alpha*x)**j over pi, times r**(2m-1)."""
    u = Polynomial((1, -alpha * alpha))
    return oracle_radial_numerator(j).compose(u) * u ** (m - j)


@lru_cache(maxsize=None)
def oracle_power_parts(k, poles):
    """The parts of the loop integral of x**k over the poles' product, dt
    over pi, as `Fraction` polynomials: each pole's weights (the dense
    linear system for two poles, the binomial substitution for one) times
    `oracle_lift`, then the tail in h."""
    if len(poles) == 1:
        ((alpha, m),) = poles
        weights, tail = oracle_single_factor(k, m, alpha)
        pole_weights = [weights]
    else:
        (alpha1, m1), (alpha2, m2) = poles
        *pole_weights, quotient = oracle_partial_fractions(k, alpha1, m1, alpha2, m2)
        tail = oracle_circle_moments(quotient)
    parts = []
    for weights, (alpha, m) in zip(pole_weights, poles):
        rad = Polynomial.zero()
        for j, c in enumerate(weights, start=1):
            rad = rad + oracle_lift(j, m, alpha).scale(c)
        parts.append(rad)
    return (*parts, tail)


def oracle_monomial_parts(i, j, poles):
    """The parts of the loop integral of x**i * y**j over the poles' product
    as `Fraction` polynomials: zero for odd j, else the binomial expansion
    of y**2 = h - x**2 over `oracle_power_parts`."""
    sums = [Polynomial.zero()] * (len(poles) + 1)
    if j % 2 == 1:
        return sums
    kk = j // 2
    for l in range(kk + 1):
        hpow = Polynomial.monomial(kk - l, Fraction((-1) ** l * math.comb(kk, l)))
        parts = oracle_power_parts(i + 2 * l, tuple(poles))
        sums = [total + part * hpow for total, part in zip(sums, parts)]
    return sums


def oracle_integrate(coeffs, poles):
    """The parts of the first-order integral, each monomial's parts scaled by
    its coefficient and added in `Fraction` polynomials."""
    sums = [Polynomial.zero()] * (len(poles) + 1)
    terms = [((i + 1, j), v) for (i, j), v in coeffs.a.items()]
    terms += [((i, j + 1), v) for (i, j), v in coeffs.b.items()]
    for (i, j), value in terms:
        parts = oracle_monomial_parts(i, j, poles)
        sums = [total + part.scale(value) for total, part in zip(sums, parts)]
    return sums


def sqrt_interval(iv, bits):
    """Enclosure of sqrt(t) for every t in iv >= 0, the endpoints' roots
    enclosed to 2**-bits."""
    if iv.lo < 0:
        raise ValueError("square root of an interval reaching below zero")
    return RatInterval(sqrt_rational(iv.lo, bits).lo, sqrt_rational(iv.hi, bits).hi)


def poly_range(p, x):
    """Interval Horner evaluation: contains p(t) for every t in x.

    p is any polynomial with `coeffs` (constant term first) and `eval`.
    At a point it is the exact value p(x.lo)."""
    if x.lo == x.hi:
        return RatInterval.point(p.eval(x.lo))
    acc = RatInterval.point(0)
    for c in reversed(p.coeffs):
        acc = acc * x + RatInterval.point(c)
    return acc


def reciprocal(iv):
    if iv.lo <= 0 <= iv.hi:
        raise ZeroDivisionError("interval straddles zero")
    return RatInterval(1 / iv.hi, 1 / iv.lo)


def divide(a, b):
    return a * reciprocal(b)


def ipow(iv, n):
    """Enclosure of t**n over iv, for any integer n."""
    if n < 0:
        return reciprocal(ipow(iv, -n))
    if n == 0:
        return RatInterval.point(1)
    if n % 2 == 1 or iv.lo >= 0:
        return RatInterval(iv.lo**n, iv.hi**n)
    if iv.hi <= 0:
        return RatInterval(iv.hi**n, iv.lo**n)
    return RatInterval(Fraction(0), max(iv.lo**n, iv.hi**n))


def oracle_point_scaled(nf, h, bits):
    """The normal form over pi at the point h, by `RatInterval` arithmetic
    with the radicals enclosed to 2**-bits.

    A mirror pair (r1 == r2 = r) is first summed exactly at h into one
    part over the lower power r**k of the two, the other part divided by
    u**delta for r**(k + 2*delta) = u**delta * r**k, u = r**2; every other
    form is `oracle_point_split`.
    """
    fam = nf.family
    if not fam.is_mirror:
        return oracle_point_split(nf, h, bits)
    point = RatInterval.point(h)
    u = _u_poly(fam.alpha1).eval(h)
    (low, k), (high, k_high) = sorted(
        ((nf.rad1, 2 * fam.m1 - 1), (nf.rad2, 2 * fam.m2 - 1)), key=lambda part: part[1]
    )
    value = low.eval(h) + high.eval(h) / u ** ((k_high - k) // 2)
    r = sqrt_interval(RatInterval.point(u), bits)
    return poly_range(nf.tail, point) + divide(RatInterval.point(value), ipow(r, k))


def oracle_point_split(nf, h, bits):
    """`oracle_point_scaled` with each radical part enclosed on its own,
    a mirror pair's two parts as two radicals: the reference that the
    merged enclosure of a mirror pair is never wider than."""
    fam = nf.family
    point = RatInterval.point(h)
    if isinstance(nf, ConfluentNormalForm):
        r = sqrt_interval(poly_range(_u_poly(fam.alpha1), point), bits)
        return divide(poly_range(nf.pr, r), ipow(r, 2 * nf.m - 1))
    r1 = sqrt_interval(poly_range(_u_poly(fam.alpha1), point), bits)
    r2 = sqrt_interval(poly_range(_u_poly(fam.alpha2), point), bits)
    total = poly_range(nf.tail, point)
    if not nf.rad1.is_zero:
        total = total + divide(poly_range(nf.rad1, point), ipow(r1, 2 * fam.m1 - 1))
    if not nf.rad2.is_zero:
        total = total + divide(poly_range(nf.rad2, point), ipow(r2, 2 * fam.m2 - 1))
    return total


def oracle_point_enclosure(nf, h, precision):
    """The integral value (pi included) at h: the bits double from 64 until
    `oracle_point_scaled` times `pi_interval` is at most 10**-precision
    wide."""
    target = Fraction(1, 10**precision)
    bits = 64
    while True:
        val = oracle_point_scaled(nf, h, bits) * pi_interval(bits)
        if val.width <= target:
            return val
        bits *= 2


def _sign_sqrt(x, y, u):
    """Sign of x + y*sqrt(u) for ints or rationals x, y and u >= 0."""
    sx, sy = (x > 0) - (x < 0), ((y > 0) - (y < 0)) if u else 0
    if sx * sy >= 0:
        return sx or sy
    d = x * x - y * y * u
    return sx * ((d > 0) - (d < 0))


def oracle_point_sign(nf, h):
    """Exact sign of the normal form at rational h in [0, h_max), by value
    algebra on the parts evaluated at h.

    even(w) + sqrt(w)*odd(w) on the confluent form; otherwise the form has
    the sign of r2*X + B*r1 with X = A + C*r1, with ui = ti/e for ti =
    den*Ui(h) and e = d*den: the sign of X, of B and, when they differ, of
    X**2 u2 - B**2 u1, times e**2.
    """
    fam = nf.family
    if isinstance(nf, ConfluentNormalForm):
        w = 1 - fam.alpha1**2 * h
        even = Polynomial(nf.pr.coeffs[0::2]).eval(w)
        return _sign_sqrt(even, Polynomial(nf.pr.coeffs[1::2]).eval(w), w)
    v = nf.ints
    num, den = h.numerator, h.denominator
    k = max(map(len, (v.a, v.b, v.c))) - 1
    e = v.d * den
    t1, t2 = (_scaled_at(u, num, den, 1) for u in (v.u1, v.u2))
    a, b, c = (_scaled_at(part, num, den, k) for part in (v.a, v.b, v.c))
    sx, sb = _sign_sqrt(a * e, c, t1 * e), (b > 0) - (b < 0)
    if sx * sb >= 0:
        return sx or sb
    return sx * _sign_sqrt((a * a * e + c * c * t1) * t2 - b * b * t1 * e, 2 * a * c * t2, t1 * e)


def oracle_row_reduce(rows):
    """Gauss-Jordan elimination on `Fraction` rows: (reduced nonzero rows,
    pivot columns), the rows in reduced row echelon form."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        top = len(pivots)
        pick = next((i for i in range(top, len(rows)) if rows[i][col]), None)
        if pick is None:
            continue
        rows[top], rows[pick] = rows[pick], rows[top]
        pivot = rows[top][col]
        rows[top] = [x / pivot for x in rows[top]]
        for i, row in enumerate(rows):
            if i != top and row[col]:
                f = row[col]
                rows[i] = [x - f * y for x, y in zip(row, rows[top])]
        pivots.append(col)
    return rows[: len(pivots)], pivots


def oracle_field(coeffs):
    """Float evaluator of the perturbation: (P(x, y), Q(x, y)) at a point,
    summed term by term in (i, j) order over tables of powers."""
    terms = [
        (i, j, float(coeffs.a.get((i, j), 0)), float(coeffs.b.get((i, j), 0)))
        for i, j in sorted(coeffs.a.keys() | coeffs.b.keys())
    ]
    top = max((max(i, j) for i, j, _, _ in terms), default=0)

    def pq(x, y):
        xs, ys = [1.0], [1.0]
        for _ in range(top):
            xs.append(xs[-1] * x)
            ys.append(ys[-1] * y)
        p = q = 0.0
        for i, j, ca, cb in terms:
            mono = xs[i] * ys[j]
            p += ca * mono
            q += cb * mono
        return p, q

    return pq


def oracle_field_kernel(family, coeffs):
    """(pq, integrand) of a field, one call per point: pq(x, y) is
    (P(x, y), Q(x, y)) from the flow's Horner source, and integrand(x, y) is
    (x*P + y*Q) / ((1 - alpha1*x)**m1 * (1 - alpha2*x)**m2)."""
    terms = flow._field_terms(coeffs)
    p = flow._polynomial_source((i, j, a) for i, j, a, _ in terms)
    q = flow._polynomial_source((i, j, b) for i, j, _, b in terms)
    w = "*".join(
        f"(1.0 - {float(a)!r}*x)" + (f"**{m}" if m > 1 else "")
        for a, m in ((family.alpha1, family.m1), (family.alpha2, family.m2))
    )
    namespace = {"__builtins__": {}}
    exec(
        f"def pq(x, y):\n    return {p}, {q}\n"
        f"def integrand(x, y):\n    return (x*({p}) + y*({q})) / ({w})\n",
        namespace,
    )
    return namespace["pq"], namespace["integrand"]


def oracle_quadrature(family, coeffs, h):
    """`flow.numeric_melnikov` node by node: the same ladder and the same
    acceptance, one integrand call and one sin and cos per node."""
    if not (0 < h < float(family.h_max)):
        raise ValueError("orbit label outside the annulus")
    _, integrand = oracle_field_kernel(family, coeffs)
    root_h = math.sqrt(h)

    def level(nodes, half):
        values = []
        for j in nodes:
            t = math.pi * j / half
            values.append(integrand(root_h * math.sin(t), root_h * math.cos(t)))
        return math.fsum(values), math.fsum(map(abs, values))

    def settled(a, b, scale, tol):
        return abs(a - b) <= tol * max(abs(a), abs(b)) or abs(a - b) <= tol * scale

    n = flow.START_NODES
    total, mass = level(range(0, 2 * n, 2), n)
    prev = total * (2.0 * math.pi / n)
    while True:
        odd, odd_mass = level(range(1, 2 * n, 2), n)
        total, mass, n = total + odd, mass + odd_mass, 2 * n
        cur, scale = total * (2.0 * math.pi / n), mass * (2.0 * math.pi / n)
        if n >= flow.MIN_NODES and settled(cur, prev, scale, 1e-12):
            return cur
        if n == flow.MAX_NODES:
            if settled(cur, prev, scale, 1e-9):
                return cur
            raise QuadratureError(f"quadrature did not settle at h={h}")
        prev = cur


def oracle_section_rate(family, coeffs, eps, h0):
    """d(h - h0)/dtheta along the perturbed orbit as a closure over `pq`,
    with the flow's stops and their texts."""
    pq, _ = oracle_field_kernel(family, coeffs)
    a1, a2 = float(family.alpha1), float(family.alpha2)
    m1, m2 = family.m1, family.m2
    reach = max(abs(a1), abs(a2))

    def rate(theta, delta):
        h = h0 + delta
        if h <= 0.0:
            raise FlowError(f"orbit reached the center at angle {theta:.6f}")
        if not math.isfinite(h):
            raise FlowError(f"orbit label h={h} is beyond the range of a double at angle {theta:.6f}")
        root = math.sqrt(h)
        if 1.0 - reach * root < flow.SINGULAR_GUARD:
            raise FlowError(f"orbit reached the singular guard at h={h:.6f}")
        x, y = root * math.sin(theta), root * math.cos(theta)
        p, q = pq(x, y)
        turn = (1.0 - a1 * x) ** m1 * (1.0 - a2 * x) ** m2 * h + eps * (y * p - x * q)
        if turn <= 0.0:
            raise FlowError(
                f"the angle stopped increasing at angle {theta:.6f}, h={h:.6g}: "
                "the orbit does not return to the section"
            )
        return 2.0 * eps * h * (x * p + y * q) / turn

    return rate


def _dot(terms, k):
    """sum(c * k[j]) over the terms, added left to right from 0.0."""
    acc = 0.0
    for j, c in terms:
        acc += c * k[j]
    return acc


def oracle_dop853(fun, t, t_end, atol, rtol, error):
    """`dop853.integrate` with each step a loop over the stages that sums
    each tableau row through `_dot`."""
    stages = [dop853._terms(row) for row in dop853._STAGES]
    weights, error5, error3 = map(dop853._terms, (dop853._WEIGHTS, dop853._ERROR5, dop853._ERROR3))
    y, f = 0.0, fun(t, 0.0)
    step = min(t_end - t, dop853.FIRST_STEP)
    rejected, stop = False, None
    while t < t_end:
        last = step >= t_end - t
        h = t_end - t if last else step
        t_new = t_end if last else t + h
        try:
            k = [f]
            for node, terms in zip(dop853._NODES, stages):
                k.append(fun(t + node * h, y + h * _dot(terms, k)))
            y_new = y + h * _dot(weights, k)
            f_new = fun(t_new, y_new)
        except error as exc:
            stop, estimate = exc, math.inf
        else:
            err5 = _dot(error5, k)
            err3 = _dot(error3, k)
            scale = atol + rtol * max(abs(y), abs(y_new))
            if err5 == 0.0:
                estimate = 0.0
            elif scale == 0.0:
                estimate = math.inf
            else:
                denominator = scale * math.sqrt(err5 * err5 + 0.01 * err3 * err3)
                if denominator:
                    estimate = h * err5 * err5 / denominator
                else:  # it underflowed: the same ratio, without the squares
                    estimate = h * abs(err5) / scale * (abs(err5) / math.hypot(err5, 0.1 * err3))
        if estimate < 1.0:
            t, y, f = t_new, y_new, f_new
            factor = (
                min(dop853._MAX_FACTOR, dop853._SAFETY * estimate**-0.125)
                if estimate
                else dop853._MAX_FACTOR
            )
            step = h * (min(1.0, factor) if rejected else factor)
            rejected, stop = False, None
        else:
            step = h * max(dop853._MIN_FACTOR, dop853._SAFETY * estimate**-0.125)
            rejected = True
            if step < max(10 * math.ulp(t), math.ulp(t_end)):
                raise stop or error(
                    f"step size fell below 1 ulp of t_end={t_end} at t={t:.6f}"
                    if math.ulp(t_end) > 10 * math.ulp(t)
                    else f"step size fell below 10 ulp at {t:.6f}: the solution has a "
                    "singularity or a vertical tangent there"
                )
    return y


def oracle_displacement(family, coeffs, eps, h):
    """`flow.displacement` from `oracle_section_rate` and `oracle_dop853`."""
    if not (0 < h < float(family.h_max)):
        raise ValueError("orbit label outside the annulus")
    rate = oracle_section_rate(family, coeffs, eps, h)
    atol = flow.STEP_TOLERANCE * abs(eps) * h
    return oracle_dop853(rate, 0.0, 2.0 * math.pi, atol, flow.STEP_TOLERANCE, FlowError)
