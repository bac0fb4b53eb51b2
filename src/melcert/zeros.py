"""Certified zero counts for assembled normal forms on the open annulus.

Each form names its own eliminant, whose roots hold every zero, and
`count_zeros` builds one report for both kinds around the kind's loop over
its roots.  A two-radical form decides its own sign (`tree_sign`), read
here at the rational ends of each candidate's isolating interval
(`point_sign`) and, where the form keeps its sign across a multiple root,
at that root (`_root_sign`).  A confluent form's zeros are the roots of
its eliminant in r on (0, 1), sign-verified where it changes sign.  No
candidate is left undecided, so count_lo == count_hi; the report keeps the
range and its empty `undecided` list.  Zero prescription builds its basis
forms by `assemble`, one per coefficient slot set to 1 alone, and reads
them at the targets through `melnikov._point_rungs`, one kernel per form
and target.

Candidates come from the Descartes root core of `polynomials`, which
takes the eliminant's primitive numerators as they are; every sign of an
int polynomial here is `_sign_at`.  Its squarefree decision,
`squarefree_factors`, takes gcd(p, p') by the one modular gcd, whose
certificate is exact, and gives the squarefree part and the multiple
roots.  One `DescartesIsolator` isolates and refines every root, moves
each candidate off the annulus ends (`inside`), and reads the sign at a
multiple root of each polynomial that `tree_sign` asks for from the
Bernstein coefficients on its cell (`sign_at_root`), with no second
squarefree decision.  Every interval is a `RatInterval`.
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
    _changes_sign,
    _content_free,
    _sign_at,
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


def eliminate_radicals(nf) -> Polynomial:
    """The form's `eliminant`, in h (two-radical) or r (confluent), cleared
    of its content: a polynomial whose roots contain every zero of the form.

    Squaring is one-directional: roots that are not zeros of the original
    function are expected and filtered downstream.
    """
    if nf.is_zero:
        raise ValueError("cannot eliminate radicals of the zero form")
    return Polynomial(_content_free(nf.eliminant))


def point_sign(nf: MelnikovNormalForm, h) -> int:
    """Exact sign (-1, 0 or +1) of the two-radical form at rational h in
    [0, h_max): its `tree_sign`, with the sign of each int polynomial at h.
    """
    h = as_rational(h)
    if not (0 <= h < nf.family.h_max):
        raise ValueError("point outside [0, h_max)")
    num, den = h.numerator, h.denominator
    return nf.tree_sign(lambda s: _sign_at(s, num, den))


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


def _candidates(ic: list, lo: Fraction, hi: Fraction):
    """One Descartes isolator of the squarefree part of the primitive int
    list ic, and (interval, multiple) for every root of ic strictly inside
    (lo, hi), each moved there by `inside`; `squarefree_factors` decides it.
    """
    core, multiple = squarefree_factors(ic)
    out = []
    for iv in _isolate_open(core, lo, hi):
        iv = core.inside(iv, lo, hi)
        out.append((iv, multiple is not None and _changes_sign(multiple, iv)))
    return core, out


def _confluent_zeros(nf: ConfluentNormalForm, ic: list, report: ZeroReport) -> None:
    """Add the confluent form's zeros, the roots of ic in r on (0, 1)."""
    alpha2 = nf.family.alpha1**2
    report_width = Fraction(1, 1 << 20)
    core, candidates = _candidates(ic, Fraction(0), Fraction(1))
    for iv, multiple in candidates:
        report.multiplicity_suspected |= multiple
        # r - 1 and r**(2m-1) keep their signs on (0, 1): the form changes
        # sign across iv iff ic does
        verified = _changes_sign(ic, iv)
        iv = core.refine(iv, report_width)
        # map the r-interval back to h (h decreases as r grows)
        h_iv = RatInterval((1 - iv.hi**2) / alpha2, (1 - iv.lo**2) / alpha2)
        report.certified.append(CertifiedZero(h_iv, verified))


def _root_sign(nf: MelnikovNormalForm, core: DescartesIsolator, iv: RatInterval) -> int:
    """Exact sign of the two-radical form at the eliminant root h* that the
    core isolates in iv: its `tree_sign`, with each polynomial's sign at h*
    from `sign_at_root` (Basu, Pollack & Roy, Algorithms in Real Algebraic
    Geometry, 2006, ch. 10).
    """
    return nf.tree_sign(lambda s: core.sign_at_root(iv, s))


def _two_radical_zeros(nf: MelnikovNormalForm, ic: list, report: ZeroReport) -> None:
    """Add the two-radical form's zeros among the roots of ic in h on (0, h_max).

    One rule decides each eliminant root on its isolating interval, whose
    ends are not roots: an exact sign change of the form across it is a
    zero (sign_verified); without one, a multiple root where the form's
    exact sign is 0 is a touching zero (not sign_verified); anything else
    is an artifact.  Only zeros are refined to the report width.
    """
    h_max = nf.family.h_max
    # the center forces a root at h = 0; strip all of them
    reduced = ic[next(k for k, c in enumerate(ic) if c) :]
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


def count_zeros(nf, n: int = None) -> ZeroReport:
    """Certified count of zeros of the normal form on the open annulus.

    One report for both kinds, around the kind's loop over the roots of
    `eliminate_radicals`.  Every candidate is decided: count_lo ==
    count_hi, `undecided` stays empty.
    """
    bound = theorem_bound(nf.family, n) if n is not None else None
    if nf.is_zero:
        return ZeroReport(status="identically_zero", theorem_bound=bound)
    elim = eliminate_radicals(nf)
    confluent = isinstance(nf, ConfluentNormalForm)
    var = "r" if confluent else "h"
    report = ZeroReport("ok", bound, elim, eliminant_var=var, eliminant_degree=elim.degree)
    ic = [c.numerator for c in elim.coeffs]
    (_confluent_zeros if confluent else _two_radical_zeros)(nf, ic, report)
    report.certified.sort(key=lambda z: (z.interval.lo, z.interval.hi))
    report.count_lo = report.count_hi = len(report.certified)
    return report


def _effective_slots(n: int) -> list:
    """Coefficient slots that can influence the integral (parity filter),
    one per integrand monomial: b[i,j] with i >= 1 weights x**i*y**(j+1),
    as the earlier a[i-1,j+1] does, so it is left out."""
    return [
        ("b" if j % 2 else "a", i, j)
        for i in range(n + 1)
        for j in range(n + 1 - i)
        if i == 0 or j % 2 == 0
    ]


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
    rung, rounded half to even: the floor of that plus 1/2, less one at an
    odd exact half."""
    (ln, ld), (hn, hd) = ends
    den = ld * hd
    q, r = divmod(((ln * hd + hn * ld) << bits) + den, 2 * den)
    return q - (not r and q & 1)


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
