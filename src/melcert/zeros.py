"""Certified zero counts for assembled normal forms on the open annulus.

The two-radical form is cleared of square roots by isolating the radical
terms and squaring twice; every zero of the original function is a root of
the resulting eliminant polynomial, but not conversely, so each candidate
root is filtered by rigorous sign evaluation.  The collapsed single-radical
form needs no squaring: its zeros are exactly the roots of a polynomial in
r on (0, 1).  Counts are reported as a [count_lo, count_hi] range that
collapses whenever every candidate is decided.

Candidates come from the Descartes root core of `polynomials`: a gcd of the
eliminant and its derivative modulo a prime usually certifies it
squarefree, and one `DescartesIsolator` on it isolates and refines every
root.  Only when that certificate fails does a Yun decomposition supply
the multiplicities and the squarefree part to isolate.
"""

from __future__ import annotations

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
    _u_poly,
)
from .polynomials import (
    DescartesIsolator,
    Interval,
    Polynomial,
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


def _cleared_parts(nf: MelnikovNormalForm) -> tuple:
    """Radical-free numerators of the two-radical form, polynomials in h.

    With r**(2m-1) = (1-alpha**2 h)**(m-1) * r over a common denominator, a
    mirror pair (one radical s = r1) is a positive multiple of p + q*s and
    gives (p, q); otherwise the form is a positive multiple of
    A*r2 + B*r1 + C*r1*r2 and this gives (A, B, C).
    """
    fam = nf.family
    u1 = _u_poly(fam.alpha1)
    u2 = _u_poly(fam.alpha2)
    if nf.merged:
        m_bar = max(fam.m1, fam.m2)
        p = nf.rad1 * u1 ** (m_bar - fam.m1) + nf.rad2 * u1 ** (m_bar - fam.m2)
        return p, nf.tail * u1 ** (m_bar - 1)
    a = nf.rad1 * u2 ** (fam.m2 - 1)
    b = nf.rad2 * u1 ** (fam.m1 - 1)
    c = nf.tail * u1 ** (fam.m1 - 1) * u2 ** (fam.m2 - 1)
    return a, b, c


def eliminate_radicals(nf: MelnikovNormalForm) -> Polynomial:
    """Polynomial in h whose roots contain every zero of the normal form.

    Isolates the radical terms of `_cleared_parts` and squares.  A mirror
    pair needs a single squaring, p**2 - q**2 u1; otherwise two squarings
    give

        (C**2 u1 u2 - A**2 u2 - B**2 u1)**2 - 4 A**2 B**2 u1 u2.

    Squaring is one-directional: roots that are not zeros of the original
    function are expected and filtered downstream.
    """
    if nf.is_zero:
        raise ValueError("cannot eliminate radicals of the zero form")
    fam = nf.family
    u1 = _u_poly(fam.alpha1)
    u2 = _u_poly(fam.alpha2)
    parts = _cleared_parts(nf)
    if nf.merged:
        p, q = parts
        elim = p * p - q * q * u1
    else:
        a, b, c = parts
        inner = c * c * u1 * u2 - a * a * u2 - b * b * u1
        elim = inner * inner - (a * b * a * b * u1 * u2).scale(4)
    if elim.is_zero:
        # cannot happen for a nonzero form: the four radical conjugates
        # multiply to this polynomial and none vanishes identically
        raise AssertionError("eliminant vanished for a nonzero normal form")
    return elim.primitive()


def _is_square(q: Fraction) -> bool:
    if q < 0:
        return False
    n, d = q.numerator, q.denominator
    return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d


def _sqrt_exact(q: Fraction) -> Fraction:
    return Fraction(math.isqrt(q.numerator), math.isqrt(q.denominator))


def exact_zero_at(nf, h) -> bool:
    """Decide exactly whether the normal form vanishes at rational h.

    Works in the field generated by the radical values: with both radicals
    irrational a vanishing combination forces component coefficients to
    vanish, and square radicands reduce to rational arithmetic.
    """
    h = as_rational(h)
    fam = nf.family
    if not (0 <= h < fam.h_max):
        raise ValueError("point outside [0, h_max)")
    if isinstance(nf, ConfluentNormalForm):
        w = Fraction(1) - fam.alpha1**2 * h
        even = Polynomial(nf.pr.coeffs[0::2])
        odd = Polynomial(nf.pr.coeffs[1::2])
        if _is_square(w):
            return nf.pr.eval(_sqrt_exact(w)) == 0
        return even.eval(w) == 0 and odd.eval(w) == 0

    u1 = Fraction(1) - fam.alpha1**2 * h
    u2 = Fraction(1) - fam.alpha2**2 * h
    parts = [part.eval(h) for part in _cleared_parts(nf)]
    if nf.merged:
        # value scales to p + q*s with s = sqrt(u1) > 0
        p, q = parts
        if _is_square(u1):
            return p + q * _sqrt_exact(u1) == 0
        return p == 0 and q == 0

    a, b, c = parts
    sq1, sq2 = _is_square(u1), _is_square(u2)
    if sq1 and sq2:
        return a * _sqrt_exact(u2) + b * _sqrt_exact(u1) + c * _sqrt_exact(u1 * u2) == 0
    if sq1:
        t1 = _sqrt_exact(u1)
        return (a + c * t1) == 0 and b == 0
    if sq2:
        t2 = _sqrt_exact(u2)
        return (b + c * t2) == 0 and a == 0
    if a == 0 and c == 0:
        return b == 0
    if a == 0 or b == 0:
        # s1*(b + c*s2) or s2*(a + c*s1) with the inner radical irrational
        return False if c != 0 else (a == 0 and b == 0)
    if c == 0:
        return a * a * u2 == b * b * u1 and (a > 0) != (b > 0)
    # a, c (and b) nonzero with both radicands irrational: vanishing would
    # make one radical rational
    return False


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

    Tries enclosures at bits, 2*bits, ... up to max_bits and returns the
    first settled sign: +1/-1, or 0 for an exact zero at a point.  None
    means every enclosure still straddled zero.
    """
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
    width_cap = h_max / Fraction(10**30)
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
        s_lo = certified_sign(nf, Interval(iv.lo, iv.lo), 64, max_bits)
        s_hi = certified_sign(nf, Interval(iv.hi, iv.hi), 64, max_bits)
        decided = False
        if s_lo in (1, -1) and s_hi in (1, -1):
            if s_lo * s_hi < 0:
                report.certified.append(CertifiedZero(iv, True))
                continue
            if mult == 1:
                # equal certified signs at the endpoints of a simple
                # eliminant root: a sign-preserving zero would have made
                # the root multiple, so this candidate is an artifact
                continue
            bits = 256
            while iv.width > width_cap:
                iv = core.refine(iv, iv.width / Fraction(256))
                if certified_sign(nf, iv, bits, bits) in (1, -1):
                    decided = True  # rigorously nonzero on the whole interval
                    break
                bits = min(bits * 2, max_bits)
        if not decided:
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
