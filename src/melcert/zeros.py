"""Certified zero counts for assembled normal forms on the open annulus.

The sign of a two-radical form is one tree of int polynomials in h, its
`sign_tree`, built once from its `ints` (numerators A, B, C and radicands
U1, U2 over one denominator d): each node decides the sign of x + y*r1 by
`_sign_rule`, from the signs of x, y and d*x**2 - y**2 U1.  The last of
these is the form's norm over Z, so its eliminant.  Every zero is a root
of it, not conversely, and `_tree_sign` filters each candidate by walking
the tree: at rational points (`point_sign`) and, where the form keeps its
sign across a multiple eliminant root, at that algebraic root itself
(`_root_sign`).  No candidate is left undecided, so count_lo == count_hi;
the report keeps the range and its empty `undecided` list.  The confluent
form needs no squaring: its zeros are the roots of a polynomial in r on
(0, 1), and a root of even multiplicity is a touching zero.

Candidates come from the Descartes root core of `polynomials`: its one
squarefree decision, `squarefree_factors`, usually certifies the eliminant
squarefree by a gcd with its derivative modulo a prime, and one
`DescartesIsolator` on it isolates and refines every root; only when that
fails does a Yun decomposition run.  Every interval is a `RatInterval`.
"""

from __future__ import annotations

import math
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
    _scaled_at,
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

    The disc of the last node of the form's `sign_tree`, cleared of its
    content: d*A**2 - C**2 U1 for a mirror pair, otherwise d*P**2 - Q**2 U1,
    the product of the form's radical conjugates in plain ints.

    Squaring is one-directional: roots that are not zeros of the original
    function are expected and filtered downstream.
    """
    if nf.is_zero:
        raise ValueError("cannot eliminate radicals of the zero form")
    elim = Polynomial(_content_free(nf.sign_tree[-1][2]))
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


def _tree_sign(tree: tuple, sign) -> int:
    """Sign of the form whose `sign_tree` is tree at a point where sign(s)
    is the sign of each int polynomial s: `_sign_rule` down the tree."""
    x, y, disc = tree[0]
    s = _sign_rule(sign(x), sign(y), lambda: sign(disc))
    if len(tree) == 1:
        return s
    x, y, disc = tree[2]
    return _sign_rule(s, sign(tree[1]), lambda: _sign_rule(sign(x), sign(y), lambda: sign(disc)))


def point_sign(nf, h) -> int:
    """Exact sign (-1, 0 or +1) of the normal form at rational h in [0, h_max).

    The value is a positive multiple of an element of Q(r1, r2), so
    `_sign_rule` decides it: on the form's `sign_tree`, with the sign of
    each polynomial at h, and on the confluent form even(w) +
    sqrt(w)*odd(w), read from its `ints`.
    """
    h = as_rational(h)
    fam = nf.family
    if not (0 <= h < fam.h_max):
        raise ValueError("point outside [0, h_max)")
    if isinstance(nf, ConfluentNormalForm):
        # even(w) and odd(w) times den**k, w = num/den: x**2 - y**2 w has
        # the sign of x**2 den - y**2 num
        _den, (ic,) = nf.ints
        w = 1 - fam.alpha1**2 * h
        num, den = w.numerator, w.denominator
        x, y = (_scaled_at(ic[j::2], num, den, len(ic) // 2) for j in (0, 1))
        return _sign_rule(_sign(x), _sign(y), lambda: _sign(x * x * den - y * y * num))
    num, den = h.numerator, h.denominator
    return _tree_sign(nf.sign_tree, lambda s: _sign(_scaled_at(s, num, den, len(s) - 1)))


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
    for iv, mult in candidates:
        iv = core.refine(iv, report_width)
        # map the r-interval back to h (h decreases as r grows)
        h_iv = RatInterval((1 - iv.hi**2) / alpha2, (1 - iv.lo**2) / alpha2)
        # r - 1 and r**(2m-1) keep their signs on (0, 1): the form changes
        # sign at the root iff its multiplicity is odd
        zeros.append(CertifiedZero(h_iv, mult % 2 == 1))
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
    core isolates in iv: its `sign_tree` walked with each polynomial's sign
    at h* from `_sign_at_root` (Basu, Pollack & Roy, Algorithms in Real
    Algebraic Geometry, 2006, ch. 10).
    """
    g = Polynomial(core._ic)  # the core's squarefree polynomial, as ints
    return _tree_sign(nf.sign_tree, lambda s: _sign_at_root(g, core, iv, s))


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
    """Fraction-free Gauss-Jordan elimination on int rows: (reduced nonzero
    rows, pivot columns).  Each reduced row is a primitive positive multiple
    of its row of the reduced row echelon form: its pivot entry is positive
    and every other pivot column holds 0.

    A pivot row with entry p clears column col from another row as
    (p/g)*row - (row[col]/g)*pivot_row, g = gcd(p, row[col]), and every
    row is kept primitive, so entries stay the size of the echelon form's
    own (Bareiss's entries are minors of the input, far larger here).
    """
    rows = [_content_free(list(row)) for row in rows]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        top = len(pivots)
        pick = next((i for i in range(top, len(rows)) if rows[i][col]), None)
        if pick is None:
            continue
        rows[top], rows[pick] = rows[pick], rows[top]
        pivot_row = rows[top]
        for i, row in enumerate(rows):
            if i != top and row[col]:
                g = math.gcd(pivot_row[col], row[col])
                p, f = pivot_row[col] // g, row[col] // g
                rows[i] = _content_free([p * x - f * y for x, y in zip(row, pivot_row)])
        pivots.append(col)
    return [row if row[col] > 0 else [-x for x in row] for row, col in zip(rows, pivots)], pivots


def _null_vectors(reduced, pivots, width: int):
    """One null vector of the reduced rows per free column, in column order,
    as {column: Fraction} scaled so that its largest |entry| is 1."""
    for free in (k for k in range(width) if k not in pivots):
        vec = {free: Fraction(1)}
        vec.update((p, Fraction(-row[free], row[p])) for row, p in zip(reduced, pivots))
        scale = max(map(abs, vec.values()))
        yield {k: v / scale for k, v in vec.items()}


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
        for vec in _null_vectors(reduced, pivots, len(basis)):
            grids = {"a": {}, "b": {}}
            for k, v in vec.items():
                kind, i, j = slots[basis[k]]
                grids[kind][(i, j)] = v
            coeffs = PerturbCoeffs(n=n, **grids)
            report = count_zeros(assemble(family, coeffs), n=n)
            ok = report.status == "ok" and report.decided and report.count_lo == len(targets)
            if ok and all(z.sign_verified for z in report.certified) and all(
                any(z.interval.contains(t) for z in report.certified) for t in targets
            ):
                return coeffs
        bits *= 2
    raise PrescribeError("verification never matched the requested zero set")
