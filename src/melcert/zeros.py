"""Certified zero counts for assembled normal forms on the open annulus.

The two-radical form, cleared to integer polynomials in h (numerators
A, B, C and radicands U1, U2 over one denominator d), has as eliminant
their norm over Z: the product of its radical conjugates, formed in plain
ints.  Every zero is a root of it, not conversely, so each candidate is
filtered by exact signs at rational points (`point_sign`: x + y*sqrt(u) by
comparing x**2 with y**2 u) and by enclosures on whole intervals.  The
confluent form needs no squaring: its zeros are the roots of a polynomial
in r on (0, 1).  Counts are a [count_lo, count_hi] range that collapses
whenever every candidate is decided.  `count_zeros` clears the form once
(`_int_parts`) and hands that to the eliminant and to every exact sign.

Candidates come from the Descartes root core of `polynomials`: a gcd of the
eliminant and its derivative modulo a prime usually certifies it
squarefree, and one `DescartesIsolator` on it isolates and refines every
root; only when that fails does a Yun decomposition run.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .intervals import RatInterval
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
    Interval,
    Polynomial,
    _content_free,
    _scaled_at,
    as_rational,
    modular_squarefree,
    squarefree_decomposition,
)


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


def _sum(*terms) -> list:
    return [sum(cs) for cs in itertools.zip_longest(*terms, fillvalue=0)]


def _int_parts(nf: MelnikovNormalForm) -> tuple:
    """Radical-free numerators of the two-radical form as int lists in h.

    Returns (d, U1, U2, (A, B, C)).  Ui = d*(1 - alphai**2 h) with d the
    least positive integer making both integral, and rad1, rad2, tail are
    cleared by one positive integer.  With r**(2m-1) = u**(m-1)*r the form
    is a positive multiple of A*r2 + B*r1 + C*r1*r2.  A mirror pair
    (r1 = r2) is merged over r1**(2*max(m1, m2)-1) into r1*(A + C*r1),
    with B = 0.
    """
    fam = nf.family
    m1, m2 = fam.m1, fam.m2
    squares = (fam.alpha1**2, fam.alpha2**2)
    d = math.lcm(*(sq.denominator for sq in squares))
    u1, u2 = ([d, -(d * sq).numerator] for sq in squares)
    polys = (nf.rad1, nf.rad2, nf.tail)
    den = math.lcm(*(c.denominator for p in polys for c in p.coeffs))
    rad1, rad2, tail = ([c.numerator * (den // c.denominator) for c in p.coeffs] for p in polys)
    if nf.merged:
        mb = max(m1, m2)
        a = _sum(
            _prod(rad1, [d ** (m1 - 1)], *[u1] * (mb - m1)),
            _prod(rad2, [d ** (m2 - 1)], *[u1] * (mb - m2)),
        )
        return d, u1, u2, (a, [], _prod(tail, *[u1] * (mb - 1)))
    a = _prod(rad1, [d ** (m1 - 1)], *[u2] * (m2 - 1))
    b = _prod(rad2, [d ** (m2 - 1)], *[u1] * (m1 - 1))
    c = _prod(tail, *[u1] * (m1 - 1), *[u2] * (m2 - 1))
    return d, u1, u2, (a, b, c)


def eliminate_radicals(nf: MelnikovNormalForm, cleared: tuple = None) -> Polynomial:
    """Polynomial in h whose roots contain every zero of the normal form.

    Isolates the radical terms of `_int_parts` and squares, in plain ints.
    A mirror pair needs a single squaring, d*A**2 - C**2 U1; otherwise two
    squarings give

        (C**2 U1 U2 - d*(A**2 U2 + B**2 U1))**2 - 4 d**2 A**2 B**2 U1 U2.

    Squaring is one-directional: roots that are not zeros of the original
    function are expected and filtered downstream.  `cleared` is
    `_int_parts(nf)` when the caller holds it already.
    """
    if nf.is_zero:
        raise ValueError("cannot eliminate radicals of the zero form")
    d, u1, u2, (a, b, c) = cleared or _int_parts(nf)
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


def _sign_sqrt(x, y, u) -> int:
    """Exact sign of x + y*sqrt(u) for rationals (or ints) x, y and u >= 0."""
    sx = (x > 0) - (x < 0)
    sy = (y > 0) - (y < 0) if u else 0
    if sx * sy >= 0:
        return sx or sy
    diff = x * x - y * y * u
    return sx * ((diff > 0) - (diff < 0))


def point_sign(nf, h, cleared: tuple = None) -> int:
    """Exact sign (-1, 0 or +1) of the normal form at rational h in [0, h_max).

    The value is a positive multiple of an element of Q(r1, r2), so the
    sign of x + y*sqrt(u) decides it: even(w) + sqrt(w)*odd(w) on the
    confluent form, and r2*X + B*r1 with X = A + C*r1 otherwise, from the
    sign of X, the sign of B and, when they differ, the sign of
    X**2 u2 - B**2 u1.  `cleared` is `_int_parts(nf)` of a two-radical
    form when the caller holds it already.
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
    d, u1, u2, parts = cleared or _int_parts(nf)
    num, den = h.numerator, h.denominator
    k = max(map(len, parts)) - 1
    e = d * den
    t1, t2 = (_scaled_at(u, num, den, 1) for u in (u1, u2))
    a, b, c = (_scaled_at(part, num, den, k) for part in parts)
    s_x, s_b = _sign_sqrt(a * e, c, t1 * e), (b > 0) - (b < 0)
    if s_x * s_b >= 0:
        return s_x or s_b
    # (r2*X)**2 - (B*r1)**2 = X**2 u2 - B**2 u1, times e**2
    return s_x * _sign_sqrt((a * a * e + c * c * t1) * t2 - b * b * t1 * e, 2 * a * c * t2, t1 * e)


def exact_zero_at(nf, h, cleared: tuple = None) -> bool:
    """Decide exactly whether the normal form vanishes at rational h."""
    return point_sign(nf, h, cleared) == 0


@dataclass
class CertifiedZero:
    """One verified zero: an isolating h-interval plus how it was decided."""

    interval: Interval
    sign_verified: bool


@dataclass
class ZeroReport:
    status: str
    theorem_bound: object = None  # int or None ("not applicable")
    eliminant: Polynomial = None
    eliminant_var: str = "h"
    eliminant_degree: int = -1
    certified: list = field(default_factory=list)
    undecided: list = field(default_factory=list)
    count_lo: int = 0
    count_hi: int = 0
    multiplicity_suspected: bool = False

    @property
    def decided(self) -> bool:
        return self.count_lo == self.count_hi


def certified_sign(nf, h: Interval, bits: int, max_bits: int):
    """Sign of the normal form (pi dropped) on the whole h-interval.

    A point gets its exact `point_sign`.  A wider interval tries
    enclosures at bits, 2*bits, ... up to max_bits and returns the first
    settled sign, +1 or -1; None means every enclosure still straddled
    zero.
    """
    if h.lo == h.hi:
        return point_sign(nf, h.lo)
    box = RatInterval(h.lo, h.hi)
    while bits <= max_bits:
        try:
            s = scaled_value(nf, box, bits).sign()
        except ZeroDivisionError:
            s = None
        if s is not None:
            return s
        bits *= 2
    return None


def _isolate_open(core: DescartesIsolator, lo: Fraction, hi: Fraction) -> list:
    """Isolating intervals for roots strictly inside (lo, hi)."""
    return [iv for iv in core.isolate(lo, hi) if iv.lo != hi]


def _shrink_inside(core: DescartesIsolator, iv: Interval, lo: Fraction, hi: Fraction) -> Interval:
    """Refine until the interval sits strictly inside (lo, hi)."""
    width = iv.width
    while iv.lo <= lo or iv.hi >= hi:
        width = width / 4
        iv = core.refine(iv, width)
    return iv


def _root_multiplicity(decomp, iv: Interval) -> int:
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
    interval shrunk strictly inside too.

    The modular certificate usually shows p squarefree, and the isolator
    is built on p itself; only when it does not does a Yun decomposition
    supply the multiplicities and, as the product of its factors, the
    squarefree part.
    """
    if modular_squarefree(p):
        decomp = [(p, 1)]
        core = DescartesIsolator(p)
    else:
        decomp = squarefree_decomposition(p)
        core = DescartesIsolator(math.prod((f for f, _m in decomp), start=Polynomial.one()))
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
        h_iv = Interval((1 - iv.hi**2) / alpha2, (1 - iv.lo**2) / alpha2)
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


def count_zeros(nf, n: int = None, max_bits: int = 1 << 13) -> ZeroReport:
    """Certified count of zeros of the normal form on the open annulus.

    Candidates come from the eliminant; each is confirmed by a certified
    sign change (or exact vanishing at a rational point), discarded when a
    rigorous enclosure excludes zero, or left in the undecided margin
    between count_lo and count_hi once refinement reaches the width cap
    h_max / 10**30.
    """
    fam = nf.family
    bound = theorem_bound(fam, n) if n is not None else None
    if nf.is_zero:
        return ZeroReport(status="identically_zero", theorem_bound=bound)
    if isinstance(nf, ConfluentNormalForm):
        return _count_confluent(nf, bound)

    h_max = fam.h_max
    # clear the form once: the eliminant and every exact sign below use it
    cleared = _int_parts(nf)
    elim = eliminate_radicals(nf, cleared)
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
    width_cap = h_max / Fraction(10**30)
    report_width = h_max / Fraction(1 << 20)

    core, candidates = _candidates(reduced, Fraction(0), h_max)
    for iv, mult in candidates:
        if mult > 1:
            report.multiplicity_suspected = True
        iv = core.refine(iv, min(iv.width / 16, report_width))
        if iv.lo == iv.hi:
            # exact rational candidate: decide algebraically
            if exact_zero_at(nf, iv.lo, cleared):
                report.certified.append(CertifiedZero(iv, True))
            continue
        s_lo, s_hi = point_sign(nf, iv.lo, cleared), point_sign(nf, iv.hi, cleared)
        if s_lo * s_hi < 0:
            report.certified.append(CertifiedZero(iv, True))
            continue
        if s_lo * s_hi > 0 and mult == 1:
            # equal signs at the endpoints of a simple eliminant root: a
            # sign-preserving zero would have made the root multiple, so
            # this candidate is an artifact
            continue
        # around a multiple root, try to prove the form nonzero on the
        # whole shrinking interval; an endpoint zero, or reaching the
        # width cap, leaves the candidate undecided
        bits = 256
        while s_lo * s_hi > 0 and iv.width > width_cap:
            iv = core.refine(iv, iv.width / Fraction(256))
            if certified_sign(nf, iv, bits, bits):
                break
            bits = min(bits * 2, max_bits)
        else:
            report.undecided.append(iv)

    report.certified.sort(key=lambda z: (z.interval.lo, z.interval.hi))
    report.undecided.sort(key=lambda r: (r.lo, r.hi))
    report.count_lo = len(report.certified)
    report.count_hi = report.count_lo + len(report.undecided)
    return report


def _effective_slots(n: int) -> list:
    """Coefficient slots that can influence the integral (parity filter)."""
    slots = []
    for i in range(n + 1):
        for j in range(n + 1 - i):
            if j % 2 == 0:
                slots.append(("a", i, j))
            else:
                slots.append(("b", i, j))
    return slots


def _coeffs_from_vector(n: int, slots, values, box) -> PerturbCoeffs:
    a, b = {}, {}
    for (kind, i, j), v in zip(slots, values):
        if v == 0:
            continue
        (a if kind == "a" else b)[(i, j)] = v
    return PerturbCoeffs(n=n, a=a, b=b, box=box)


def _basis_forms(family: SystemFamily, slots):
    forms = []
    for kind, i, j in slots:
        if kind == "a":
            forms.append(monomial_integral(i + 1, j, family))
        else:
            forms.append(monomial_integral(i, j + 1, family))
    return forms


def prescribe_zeros(
    family: SystemFamily, n: int, targets, box=Fraction(1)
) -> PerturbCoeffs:
    """Coefficients whose integral has verified simple zeros at the targets.

    Exploits linearity: the basis forms are evaluated at each target with
    certified enclosures, a unit null vector of the resulting system is
    rationalised, and the candidate is accepted only after count_zeros
    confirms exactly len(targets) sign-verified zeros whose isolating
    intervals contain the targets.  Raises PrescribeError otherwise.
    """
    box = as_rational(box)
    targets = [as_rational(t) for t in targets]
    h_max = family.h_max
    if len(set(targets)) != len(targets):
        raise ValueError("targets must be distinct")
    for t in targets:
        if not (0 < t < h_max):
            raise ValueError("targets must lie strictly inside the annulus")
    bound = theorem_bound(family, n)
    if bound is not None and len(targets) > bound:
        raise ValueError("more targets than the certified bound allows")
    if family.is_confluent:
        raise NotImplementedError("prescription targets the two-radical family")

    slots = _effective_slots(n)
    forms = _basis_forms(family, slots)

    if not targets:
        for idx, form in enumerate(forms):
            if form.is_zero:
                continue
            values = [Fraction(0)] * len(slots)
            values[idx] = box
            coeffs = _coeffs_from_vector(n, slots, values, box)
            report = count_zeros(assemble(family, coeffs), n=n)
            if report.status == "ok" and report.count_lo == report.count_hi == 0:
                return coeffs
        raise PrescribeError("no single-slot instance verified as zero-free")

    import numpy as np  # only the float SVD below needs it

    for bits, denom_cap in ((256, 1 << 48), (512, 1 << 80), (768, 1 << 120)):
        rows = []
        for t in targets:
            point = RatInterval.point(t)
            rows.append(
                [float(scaled_value(f, point, bits).mid) if not f.is_zero else 0.0 for f in forms]
            )
        matrix = np.array(rows, dtype=float)
        _, _, vh = np.linalg.svd(matrix)
        for row in range(len(vh) - 1, len(targets) - 1, -1):
            vec = vh[row]
            scale = max(abs(v) for v in vec)
            if scale == 0:
                continue
            values = [
                Fraction(float(v / scale)).limit_denominator(denom_cap) * box
                for v in vec
            ]
            if all(v == 0 for v in values):
                continue
            coeffs = _coeffs_from_vector(n, slots, values, box)
            if coeffs.is_zero:
                continue
            nf = assemble(family, coeffs)
            if nf.is_zero:
                continue
            report = count_zeros(nf, n=n)
            if report.status != "ok" or not report.decided:
                continue
            if report.count_lo != len(targets):
                continue
            if not all(z.sign_verified for z in report.certified):
                continue
            hits = all(
                any(z.interval.contains(t) for z in report.certified) for t in targets
            )
            if hits:
                return coeffs
    raise PrescribeError("verification never matched the requested zero set")
