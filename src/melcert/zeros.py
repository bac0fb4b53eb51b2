"""Certified zero counts for assembled normal forms on the open annulus.

The sign of a two-radical form is one tree of int polynomials in h, its
`sign_tree`, built once from its `ints` (numerators A, B, C and radicands
U1, U2 over one denominator d): each node decides the sign of x + y*r1 by
`_sign_rule`, from the signs of x, y and d*x**2 - y**2 U1.  The last node
gives the eliminant: that disc, or x (y) alone when y (x) vanishes.  Every
zero is a root of it, not conversely.  `_tree_sign` walks the tree at the
rational ends of each candidate's isolating interval (`point_sign`) and,
where the form keeps its sign across a multiple eliminant root, at that
root (`_root_sign`).  No candidate is left undecided, so count_lo ==
count_hi; the report keeps the range and its empty `undecided` list.  The
confluent form needs no squaring and no point sign: its zeros are the roots
of a polynomial in r on (0, 1), sign-verified where that polynomial changes
sign.  Zero prescription builds its basis forms by `assemble`, one per
coefficient slot set to 1 alone, and reads them at the targets through
`melnikov._point_rungs`, one kernel per form and target.

Candidates come from the Descartes root core of `polynomials`: its one
squarefree decision, `squarefree_factors`, usually certifies the eliminant
squarefree by a gcd with its derivative modulo a prime, and one
`DescartesIsolator` on it isolates and refines every root; only when that
fails is a gcd over Z taken, which also marks the multiple roots.  Every
interval is a `RatInterval`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .intervals import RatInterval, as_rational
from .melnikov import (
    ConfluentNormalForm,
    MelnikovNormalForm,
    PerturbCoeffs,
    SystemFamily,
    _point_rungs,
    assemble,
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
    try:
        n = operator.index(n)
    except TypeError:  # 2.5: no integer
        n = -1
    if n < 0:
        raise ValueError("perturbation degree must be >= 0")
    if family.is_confluent:
        value = n
    else:
        value = 4 * ((n + 1) // 2 + family.m1 + family.m2) - 7
    return value if value >= 0 else None


def eliminate_radicals(nf: MelnikovNormalForm) -> Polynomial:
    """Polynomial in h whose roots contain every zero of the normal form.

    The last node (x, y, disc) of the form's `sign_tree` decides its sign:
    every zero is a root of disc = d*x**2 - y**2 U1, the product of the
    conjugates x +- y*r1 (the form's norm over Z when B != 0), or of x (y)
    alone when y (x) vanishes, where disc has a square factor that would
    make every root look multiple.  Cleared of its content.

    Squaring is one-directional: roots that are not zeros of the original
    function are expected and filtered downstream.
    """
    if nf.is_zero:
        raise ValueError("cannot eliminate radicals of the zero form")
    x, y, disc = nf.sign_tree[-1]
    elim = Polynomial(_content_free(disc if x and y else x or y))
    if elim.is_zero:
        # cannot happen for a nonzero form: its last node keeps a nonzero
        # part, so neither conjugate x +- y*r1 vanishes identically
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


def point_sign(nf: MelnikovNormalForm, h) -> int:
    """Exact sign (-1, 0 or +1) of the two-radical form at rational h in
    [0, h_max): its `sign_tree` walked by `_tree_sign`, with the sign of
    each int polynomial at h.  The value is a positive multiple of an
    element of Q(r1, r2), so `_sign_rule` decides it.
    """
    h = as_rational(h)
    if not (0 <= h < nf.family.h_max):
        raise ValueError("point outside [0, h_max)")
    num, den = h.numerator, h.denominator
    return _tree_sign(nf.sign_tree, lambda s: _sign(_scaled_at(s, num, den, len(s) - 1)))


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
    """Refine until the interval sits strictly inside (lo, hi) with ends
    that are not roots, widening an exact rational hit."""
    width = iv.width
    while iv.lo <= lo or iv.hi >= hi:
        width = width / 4
        iv = core.refine(iv, width)
    if iv.lo == iv.hi:
        iv = core.widen(iv.lo, min(iv.lo - lo, hi - iv.lo) / 2)
    return iv


def _changes_sign(p: Polynomial, iv: RatInterval) -> bool:
    return p.eval(iv.lo) * p.eval(iv.hi) < 0


def _candidates(p: Polynomial, lo: Fraction, hi: Fraction):
    """One Descartes isolator of p's squarefree part, and (interval,
    multiple) for every root of p strictly inside (lo, hi), each interval
    from `_shrink_inside`; `squarefree_factors` decides multiple.
    """
    core, multiple = squarefree_factors(p)
    out = []
    for iv in _isolate_open(core, lo, hi):
        iv = _shrink_inside(core, iv, lo, hi)
        out.append((iv, multiple is not None and _changes_sign(multiple, iv)))
    return core, out


def _count_confluent(nf: ConfluentNormalForm, bound) -> ZeroReport:
    fam = nf.family
    pr_reduced = nf.pr.exact_div(Polynomial((1, -1)))  # forced root at r = 1
    alpha2 = fam.alpha1**2
    report_width = Fraction(1, 1 << 20)
    core, candidates = _candidates(pr_reduced, Fraction(0), Fraction(1))
    zeros = []
    for iv, _multiple in candidates:
        # r - 1 and r**(2m-1) keep their signs on (0, 1): the form changes
        # sign across iv iff pr_reduced does
        verified = _changes_sign(pr_reduced, iv)
        iv = core.refine(iv, report_width)
        # map the r-interval back to h (h decreases as r grows)
        h_iv = RatInterval((1 - iv.hi**2) / alpha2, (1 - iv.lo**2) / alpha2)
        zeros.append(CertifiedZero(h_iv, verified))
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
        multiplicity_suspected=any(multiple for _iv, multiple in candidates),
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
    if _changes_sign(common, iv):
        return 0
    roots = squarefree_factors(p)[0]
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

    One rule decides each eliminant root on its isolating interval, whose
    ends are not roots: an exact sign change of the form across it is a
    zero (sign_verified); without one, a multiple root where the form's
    exact sign is 0 is a touching zero (not sign_verified); anything else
    is an artifact.  Only zeros are refined to the report width.  Every
    candidate is decided: count_lo == count_hi, `undecided` stays empty.
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
    for iv, multiple in candidates:
        report.multiplicity_suspected |= multiple
        verified = point_sign(nf, iv.lo) * point_sign(nf, iv.hi) < 0
        # without a sign change the form touches zero at a multiple root
        # iff its exact sign there is 0; at a simple root (a sign-keeping
        # zero would make it multiple), or with a nonzero sign, an artifact
        if verified or (multiple and _root_sign(nf, core, iv) == 0):
            iv = core.refine(iv, min(iv.width / 16, report_width))
            report.certified.append(CertifiedZero(iv, verified))

    report.certified.sort(key=lambda z: (z.interval.lo, z.interval.hi))
    report.count_lo = report.count_hi = len(report.certified)
    return report


def _effective_slots(n: int) -> list:
    """Coefficient slots that can influence the integral (parity filter)."""
    return [("b" if j % 2 else "a", i, j) for i in range(n + 1) for j in range(n + 1 - i)]


def _basis_forms(family: SystemFamily, slots) -> list:
    """The form of each slot's coefficient set to 1 alone, by `assemble`."""
    return [assemble(family, PerturbCoeffs(n=i + j, **{kind: {(i, j): 1}})) for kind, i, j in slots]


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


def _scaled_mid(ends: tuple, bits: int) -> int:
    """2**bits times the midpoint of the int-pair ends of a `_point_rungs`
    rung, rounded half to even."""
    (ln, ld), (hn, hd) = ends
    return round(Fraction((ln * hd + hn * ld) << (bits - 1), ld * hd))


def prescribe_zeros(family: SystemFamily, n: int, targets) -> PerturbCoeffs:
    """Coefficients whose integral has verified simple zeros at the targets.

    Exploits linearity.  The basis forms are reduced to an independent
    subset, whose size (the rank) caps the targets at rank - 1.  Each of
    its forms gets one `_point_rungs` kernel per target, built once, and at
    each rung the midpoint of its enclosure is rounded to a dyadic of
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
    rungs = [[_point_rungs(forms[k], t) for k in basis] for t in targets]
    bits = PRESCRIBE_BITS
    while bits <= MAX_PRESCRIBE_BITS:
        # the values times 2**bits, rounded: the same null space
        rows = [[_scaled_mid(rung(bits), bits) for rung in row] for row in rungs]
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
