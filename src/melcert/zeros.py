"""Certified zero counts for assembled normal forms on the open annulus.

The two-radical form, cleared to integer polynomials in h (numerators
A, B, C and radicands U1, U2 over one denominator d, the form's `ints`),
has as eliminant their norm over Z: the product of its radical conjugates,
formed in plain ints.  Every zero is a root of it, not conversely, so each
candidate is filtered by exact signs: at rational points (`point_sign`:
x + y*sqrt(u) by comparing x**2 with y**2 u), and, where the form keeps
its sign across a multiple eliminant root, at that algebraic root itself
(`_root_sign`, the same case split over polynomial signs).  No candidate
is left undecided, so count_lo == count_hi; the report keeps the range and
its empty `undecided` list.  The confluent form needs no squaring: its
zeros are the roots of a polynomial in r on (0, 1).  The zero test, the
eliminant and every exact sign read the form's one `ints` view.

Candidates come from the Descartes root core of `polynomials`: its one
squarefree decision, `squarefree_factors`, usually certifies the eliminant
squarefree by a gcd with its derivative modulo a prime, and one
`DescartesIsolator` on it isolates and refines every root; only when that
fails does a Yun decomposition run.  Every interval is a `RatInterval`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .intervals import RatInterval, as_rational
from .melnikov import (
    ConfluentNormalForm,
    MelnikovNormalForm,
    PerturbCoeffs,
    SystemFamily,
    assemble,
    monomial_integral,
    scaled_value,
)
from .polynomials import (
    DescartesIsolator,
    Polynomial,
    _content_free,
    _prod,
    _scaled_at,
    _sum,
    poly_gcd,
    squarefree_factors,
)

# Bits of the target values in zero prescription: they double up to the cap
PRESCRIBE_BITS = 64
MAX_PRESCRIBE_BITS = 1024


class PrescribeError(RuntimeError):
    """Raised when no verified coefficient vector realises the targets."""


def theorem_bound(family: SystemFamily, n: int):
    """Upper bound for the cycle count at perturbation degree n.

    4*((n+1)//2 + m1 + m2) - 7 for distinct alphas, n for the confluent
    family; None when the formula is not applicable (negative).
    """
    if n < 0:
        raise ValueError("perturbation degree must be >= 0")
    if family.is_confluent:
        value = n
    else:
        value = 4 * ((n + 1) // 2 + family.m1 + family.m2) - 7
    return value if value >= 0 else None


def eliminate_radicals(nf: MelnikovNormalForm) -> Polynomial:
    """Polynomial in h whose roots contain every zero of the normal form.

    Isolates the radical terms of the form's `ints` and squares, in plain
    ints.  A mirror pair needs a single squaring, d*A**2 - C**2 U1;
    otherwise two squarings give

        (C**2 U1 U2 - d*(A**2 U2 + B**2 U1))**2 - 4 d**2 A**2 B**2 U1 U2.

    Squaring is one-directional: roots that are not zeros of the original
    function are expected and filtered downstream.
    """
    if nf.is_zero:
        raise ValueError("cannot eliminate radicals of the zero form")
    v = nf.ints
    d, u1, u2, a, b, c = v.d, v.u1, v.u2, v.a, v.b, v.c
    if nf.merged:
        elim = _sum(_prod([d], a, a), _prod([-1], c, c, u1))
    else:
        a2u2, b2u1 = _prod(a, a, u2), _prod(b, b, u1)
        inner = _sum(_prod(c, c, u1, u2), _prod([-d], a2u2), _prod([-d], b2u1))
        elim = _sum(_prod(inner, inner), _prod([-4 * d * d], a2u2, b2u1))
    elim = Polynomial(_content_free(elim))
    if elim.is_zero:
        # cannot happen for a nonzero form: the four radical conjugates
        # multiply to this polynomial and none vanishes identically
        raise AssertionError("eliminant vanished for a nonzero normal form")
    return elim


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def _sign_rule(sx: int, sy: int, diff) -> int:
    """Sign of x + y*sqrt(u), u > 0, from the signs sx of x and sy of y
    and, called only when they differ, diff(): the sign of x**2 - y**2 u."""
    if sx * sy >= 0:
        return sx or sy
    return sx * diff()


def _sign_sqrt(x, y, u) -> int:
    """Exact sign of x + y*sqrt(u) for rationals (or ints) x, y and u >= 0."""
    return _sign_rule(_sign(x), _sign(y) if u else 0, lambda: _sign(x * x - y * y * u))


def point_sign(nf, h) -> int:
    """Exact sign (-1, 0 or +1) of the normal form at rational h in [0, h_max).

    The value is a positive multiple of an element of Q(r1, r2), so the
    sign of x + y*sqrt(u) decides it: even(w) + sqrt(w)*odd(w) on the
    confluent form, and r2*X + B*r1 with X = A + C*r1 otherwise, from the
    sign of X, the sign of B and, when they differ, the sign of
    X**2 u2 - B**2 u1, all read from the form's `ints`.
    """
    h = as_rational(h)
    fam = nf.family
    if not (0 <= h < fam.h_max):
        raise ValueError("point outside [0, h_max)")
    if isinstance(nf, ConfluentNormalForm):
        w = 1 - fam.alpha1**2 * h
        even = Polynomial(nf.pr.coeffs[0::2]).eval(w)
        return _sign_sqrt(even, Polynomial(nf.pr.coeffs[1::2]).eval(w), w)
    # in ints: the parts times den**k, and ui = Ui(h)/d = ti/e with
    # ti = den*Ui(h) and e = d*den, so x + y*sqrt(ui) has the sign of
    # x*e + y*sqrt(ti*e)
    v = nf.ints
    parts = (v.a, v.b, v.c)
    num, den = h.numerator, h.denominator
    k = max(map(len, parts)) - 1
    e = v.d * den
    t1, t2 = (_scaled_at(u, num, den, 1) for u in (v.u1, v.u2))
    a, b, c = (_scaled_at(part, num, den, k) for part in parts)
    # (r2*X)**2 - (B*r1)**2 = X**2 u2 - B**2 u1, times e**2
    return _sign_rule(
        _sign_sqrt(a * e, c, t1 * e),
        _sign(b),
        lambda: _sign_sqrt((a * a * e + c * c * t1) * t2 - b * b * t1 * e, 2 * a * c * t2, t1 * e),
    )


def exact_zero_at(nf, h) -> bool:
    """Decide exactly whether the normal form vanishes at rational h."""
    return point_sign(nf, h) == 0


@dataclass
class CertifiedZero:
    """One verified zero: an isolating h-interval plus how it was decided."""

    interval: RatInterval
    sign_verified: bool


@dataclass
class ZeroReport:
    status: str
    theorem_bound: object = None  # int or None ("not applicable")
    eliminant: Polynomial = None
    eliminant_var: str = "h"
    eliminant_degree: int = -1
    certified: list = field(default_factory=list)
    undecided: list = field(default_factory=list)  # kept in the schema; stays empty
    count_lo: int = 0
    count_hi: int = 0
    multiplicity_suspected: bool = False

    @property
    def decided(self) -> bool:
        return self.count_lo == self.count_hi


def _isolate_open(core: DescartesIsolator, lo: Fraction, hi: Fraction) -> list:
    """Isolating intervals for roots strictly inside (lo, hi)."""
    return [iv for iv in core.isolate(lo, hi) if iv.lo != hi]


def _shrink_inside(core: DescartesIsolator, iv: RatInterval, lo, hi) -> RatInterval:
    """Refine until the interval sits strictly inside (lo, hi)."""
    width = iv.width
    while iv.lo <= lo or iv.hi >= hi:
        width = width / 4
        iv = core.refine(iv, width)
    return iv


def _root_multiplicity(decomp, iv: RatInterval) -> int:
    # the endpoints are not roots, so exactly one Yun factor changes sign
    # across the interval (or vanishes at a degenerate one): if none of
    # the others does, it is the last
    for factor, mult in decomp[:-1]:
        if factor.eval(iv.lo) * factor.eval(iv.hi) <= 0:
            return mult
    return decomp[-1][1]


def _candidates(p: Polynomial, lo: Fraction, hi: Fraction):
    """One Descartes isolator of p's squarefree part, and (interval,
    multiplicity) for every root of p strictly inside (lo, hi), each
    interval shrunk strictly inside too; `squarefree_factors` decides.
    """
    decomp, core = squarefree_factors(p)
    out = []
    for iv in _isolate_open(core, lo, hi):
        iv = _shrink_inside(core, iv, lo, hi)
        out.append((iv, _root_multiplicity(decomp, iv)))
    return core, out


def _count_confluent(nf: ConfluentNormalForm, bound) -> ZeroReport:
    fam = nf.family
    pr_reduced = nf.pr.exact_div(Polynomial((1, -1)))  # forced root at r = 1
    alpha2 = fam.alpha1**2
    report_width = Fraction(1, 1 << 20)
    core, candidates = _candidates(pr_reduced, Fraction(0), Fraction(1))
    zeros = []
    for iv, _mult in candidates:
        iv = core.refine(iv, report_width)
        # map the r-interval back to h (h decreases as r grows)
        h_iv = RatInterval((1 - iv.hi**2) / alpha2, (1 - iv.lo**2) / alpha2)
        zeros.append(CertifiedZero(h_iv, True))
    zeros.sort(key=lambda z: (z.interval.lo, z.interval.hi))
    n = len(zeros)
    return ZeroReport(
        status="ok",
        theorem_bound=bound,
        eliminant=pr_reduced,
        eliminant_var="r",
        eliminant_degree=pr_reduced.degree,
        certified=zeros,
        count_lo=n,
        count_hi=n,
        multiplicity_suspected=any(mult > 1 for _iv, mult in candidates),
    )


def _sign_at_root(g: Polynomial, core: DescartesIsolator, iv: RatInterval, s: list) -> int:
    """Exact sign of the int polynomial s at h*, the one root of the
    squarefree g (the polynomial of `core`) strictly inside iv.

    gcd(g, s) divides g, so it has at most that one root in iv, a simple
    one: s vanishes at h* iff the gcd changes sign across iv.  Otherwise
    iv is refined until s has no root in (lo, hi], which holds h*, and the
    sign of s itself at hi is read (its squarefree part only counts the
    roots: its sign can differ).
    """
    p = Polynomial(s)
    common = poly_gcd(g, p)  # g itself when s is zero
    if common.eval(iv.lo) * common.eval(iv.hi) < 0:
        return 0
    roots = squarefree_factors(p)[1]
    while roots.count(iv.lo, iv.hi):
        iv = core.refine(iv, iv.width / 2)
    return _sign(p.eval(iv.hi))


def _root_sign(nf: MelnikovNormalForm, core: DescartesIsolator, iv: RatInterval) -> int:
    """Exact sign of the two-radical form at the eliminant root h* that the
    core isolates in iv: `point_sign`'s case split, with each polynomial's
    sign read at h* by `_sign_at_root` (Basu, Pollack & Roy, Algorithms in
    Real Algebraic Geometry, 2006, ch. 10).

    With ui = Ui/d the form has the sign of r2*X + B*r1, X = A + C*r1;
    d**2 ((r2*X)**2 - (B*r1)**2) = P + Q*r1 with P = (d A**2 + C**2 U1) U2
    - d B**2 U1 and Q = 2 d A C U2.
    """
    v = nf.ints
    d, u1, u2, a, b, c = v.d, v.u1, v.u2, v.a, v.b, v.c
    g = Polynomial(core._ic)  # the core's squarefree polynomial, as ints

    def sign(s: list) -> int:
        return _sign_at_root(g, core, iv, s)

    def sign_sqrt(x: list, y: list) -> int:
        # x + y*r1 with r1 = sqrt(U1/d): d x**2 - y**2 U1 decides
        return _sign_rule(
            sign(x), sign(y), lambda: sign(_sum(_prod([d], x, x), _prod([-1], y, y, u1)))
        )

    def sign_pq() -> int:
        p = _sum(_prod(_sum(_prod([d], a, a), _prod(c, c, u1)), u2), _prod([-d], b, b, u1))
        return sign_sqrt(p, _prod([2 * d], a, c, u2))

    return _sign_rule(sign_sqrt(a, c), sign(b), sign_pq)


def count_zeros(nf, n: int = None) -> ZeroReport:
    """Certified count of zeros of the normal form on the open annulus.

    Candidates come from the eliminant.  Each is confirmed by an exact
    sign change across its interval (sign_verified), by exact vanishing at
    a rational point, or, at a multiple eliminant root without a sign
    change, by the form's exact sign 0 at the root (a touching zero, not
    sign_verified); every other candidate is an artifact.  Every candidate
    is decided: count_lo == count_hi and `undecided` stays empty.
    """
    fam = nf.family
    bound = theorem_bound(fam, n) if n is not None else None
    if nf.is_zero:
        return ZeroReport(status="identically_zero", theorem_bound=bound)
    if isinstance(nf, ConfluentNormalForm):
        return _count_confluent(nf, bound)

    h_max = fam.h_max
    elim = eliminate_radicals(nf)
    # the center forces a root at h = 0; strip all of them
    first = next(k for k, c in enumerate(elim.coeffs) if c != 0)
    reduced = Polynomial(elim.coeffs[first:])
    report = ZeroReport(
        status="ok",
        theorem_bound=bound,
        eliminant=elim,
        eliminant_var="h",
        eliminant_degree=elim.degree,
    )
    report_width = h_max / Fraction(1 << 20)

    core, candidates = _candidates(reduced, Fraction(0), h_max)
    for iv, mult in candidates:
        if mult > 1:
            report.multiplicity_suspected = True
        iv = core.refine(iv, min(iv.width / 16, report_width))
        if iv.lo == iv.hi:
            # exact rational candidate: decide algebraically
            if exact_zero_at(nf, iv.lo):
                report.certified.append(CertifiedZero(iv, True))
            continue
        s_lo, s_hi = point_sign(nf, iv.lo), point_sign(nf, iv.hi)
        if s_lo * s_hi < 0:
            report.certified.append(CertifiedZero(iv, True))
        elif mult > 1 and _root_sign(nf, core, iv) == 0:
            # no sign change across a multiple eliminant root: the form
            # touches zero there iff its exact sign at the root is 0
            report.certified.append(CertifiedZero(iv, False))
        # else an artifact: equal signs at the ends of a simple eliminant
        # root, where a sign-preserving zero would have made it multiple,
        # or a nonzero exact sign at a multiple one

    report.certified.sort(key=lambda z: (z.interval.lo, z.interval.hi))
    report.count_lo = report.count_hi = len(report.certified)
    return report


def _effective_slots(n: int) -> list:
    """Coefficient slots that can influence the integral (parity filter)."""
    return [("b" if j % 2 else "a", i, j) for i in range(n + 1) for j in range(n + 1 - i)]


def _basis_forms(family: SystemFamily, slots):
    forms = []
    for kind, i, j in slots:
        if kind == "a":
            forms.append(monomial_integral(i + 1, j, family))
        else:
            forms.append(monomial_integral(i, j + 1, family))
    return forms


def _row_reduce(rows):
    """Gauss-Jordan elimination: (reduced nonzero rows, pivot columns)."""
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


def _independent(forms) -> list:
    """Indices of the earliest maximal linearly independent subset of forms.

    Each form is the vector of its `ints` parts a, b, c (over its den, a
    column scaling that moves no pivot): the parts of the function itself,
    since a mirror pair merges both radicals into a.
    """
    views = [f.ints for f in forms]
    widths = [max(len(getattr(v, part)) for v in views) for part in "abc"]
    columns = [
        [x for part, w in zip((v.a, v.b, v.c), widths) for x in [*part] + [0] * (w - len(part))]
        for v in views
    ]
    return _row_reduce(zip(*columns))[1]


def prescribe_zeros(family: SystemFamily, n: int, targets) -> PerturbCoeffs:
    """Coefficients whose integral has verified simple zeros at the targets.

    Exploits linearity.  The basis forms are reduced to an independent
    subset, whose size (the rank) caps the targets at rank - 1.  Each of
    its forms is evaluated at each target and rounded to a dyadic of
    `bits` bits; each free column of the exact echelon form then gives a
    null vector, scaled into |c| <= 1 and tried in slot order.  One is
    accepted only after count_zeros confirms exactly len(targets)
    sign-verified zeros whose isolating intervals contain the targets.
    The bits double from PRESCRIBE_BITS to MAX_PRESCRIBE_BITS before
    PrescribeError is raised.
    """
    targets = [as_rational(t) for t in targets]
    if len(set(targets)) != len(targets):
        raise ValueError("targets must be distinct")
    if not all(0 < t < family.h_max for t in targets):
        raise ValueError("targets must lie strictly inside the annulus")
    bound = theorem_bound(family, n)
    if bound is not None and len(targets) > bound:
        raise ValueError("more targets than the certified bound allows")
    if family.is_confluent:
        raise NotImplementedError("prescription targets the two-radical family")

    slots = _effective_slots(n)
    forms = _basis_forms(family, slots)
    basis = _independent(forms)
    if len(targets) >= len(basis):
        raise PrescribeError(
            f"basis rank {len(basis)}: a linear prescription places at most {len(basis) - 1} zeros"
        )
    bits = PRESCRIBE_BITS
    while bits <= MAX_PRESCRIBE_BITS:
        # the values times 2**bits, rounded: the same null space
        rows = [
            [round(scaled_value(forms[k], point, bits).mid * (1 << bits)) for k in basis]
            for point in map(RatInterval.point, targets)
        ]
        reduced, pivots = _row_reduce(rows)
        for free in (k for k in range(len(basis)) if k not in pivots):
            vec = {free: Fraction(1), **{p: -row[free] for row, p in zip(reduced, pivots)}}
            scale = max(map(abs, vec.values()))
            grids = {"a": {}, "b": {}}
            for k, v in vec.items():
                kind, i, j = slots[basis[k]]
                grids[kind][(i, j)] = v / scale
            coeffs = PerturbCoeffs(n=n, **grids)
            report = count_zeros(assemble(family, coeffs), n=n)
            ok = report.status == "ok" and report.decided and report.count_lo == len(targets)
            if ok and all(z.sign_verified for z in report.certified) and all(
                any(z.interval.contains(t) for z in report.certified) for t in targets
            ):
                return coeffs
        bits *= 2
    raise PrescribeError("verification never matched the requested zero set")
