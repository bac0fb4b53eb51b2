"""Numerical ground truth: quadrature of the averaged integral and direct
integration of the perturbed system with section-return cycle detection.

Everything here is double precision by design; it is the oracle and the
detector that exercise the exact pipeline, never the certifier.

A section return (`displacement`) is integrated in angle form.  With
theta = atan2(x, y) as the independent variable the positive y-axis is
theta = 0 (mod 2*pi), so one return is the fixed interval [0, 2*pi], and
the state is the deviation h - h0 of the orbit label, whose rate is
O(eps).  The displacement is thus integrated directly rather than taken as
the difference of two O(1) numbers.  The integrator is the scalar
Dormand-Prince 8(5,3) of `dop853`.  Each step's local error in the
deviation is held below STEP_TOLERANCE * (|eps| * h0 + |h - h0|); the only
setting is eps, in `FlowConfig`.

The quadrature is a trapezoid rule with nested doubling: it starts at
START_NODES nodes, accepts agreement from MIN_NODES on and raises
QuadratureError if it has not settled at MAX_NODES.

Quadrature and section returns evaluate the field through one compiled
kernel per field, `_field_kernel`.  Its source is generated from the
coefficient doubles: P and Q are Horner in y over rows that are Horner in x,
and the quadrature integrand is one fused expression over them.  The source
holds only float reprs of finite doubles, ints, x and y, and runs with no
builtins, so `compile` turns the same doubles into straight-line bytecode
and nothing else.  The last kernel is kept (a one-entry memo keyed on the
doubles), because a caller evaluates one field many times: a quadrature
ladder, or the section returns of a cycle scan.

The module is pure Python: it loads no numpy, and it takes only the family
and coefficient records from `melnikov`, so the oracle shares no arithmetic
with the exact path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from .melnikov import PerturbCoeffs, SystemFamily

SINGULAR_GUARD = 1e-6
# Trapezoid node counts of numeric_melnikov: first level, fewest accepted, cap
START_NODES = 32
MIN_NODES = 128
MAX_NODES = 1 << 18
# Relative local error bound of each integration step
STEP_TOLERANCE = 1e-10


class QuadratureError(RuntimeError):
    pass


class FlowError(RuntimeError):
    pass


@dataclass
class FlowConfig:
    """Integration settings; the section is fixed: the positive y-axis,
    crossed with increasing x (the orbit's t = 0 point)."""

    epsilon: float = 1e-3

    def __post_init__(self):
        # epsilon == 0 is allowed: it exercises the conservative flow; NaN
        # fails the test, since it compares false with everything
        if not abs(self.epsilon) < 1:
            raise ValueError("epsilon must be small")


@dataclass
class DetectedCycle:
    h_label: float
    stability: str  # "attracting" | "repelling" | "undecided"


@dataclass
class CycleReport:
    cycles: list = field(default_factory=list)
    grid: list = field(default_factory=list)
    epsilon: float = 0.0
    failures: dict = field(default_factory=dict)  # grid index -> message


def _double(name: str, value) -> float:
    """A coefficient as a double; ValueError names one beyond its range."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"coefficient {name} is beyond the range of a double") from None


def _horner(var: str, terms) -> str:
    """Source of the sum of c * var**k over (k, c), k ascending, by Horner's
    rule; a gap in k multiplies by var that many times.  "0.0" if empty."""
    if not terms:
        return "0.0"
    top, acc = terms[-1]
    for k, c in reversed(terms[:-1]):
        acc = f"{c} + {'*'.join([var] * (top - k))}*({acc})"
        top = k
    return acc if top == 0 else f"{'*'.join([var] * top)}*({acc})"


def _polynomial_source(entries) -> str:
    """Source of the sum of c * x**i * y**j over (i, j, c) sorted by (i, j):
    Horner in y over rows that are Horner in x.  Zero doubles are left out,
    as adding their products changes no sum."""
    rows = {}
    for i, j, c in entries:
        if c:
            rows.setdefault(j, []).append((i, repr(c)))
    return _horner("y", [(j, f"({_horner('x', row)})") for j, row in sorted(rows.items())])


def _kernel_source(terms, a1: float, m1: int, a2: float, m2: int) -> str:
    """Source of the kernel functions `pq` and `integrand` of one field."""
    p = _polynomial_source((i, j, a) for i, j, a, _ in terms)
    q = _polynomial_source((i, j, b) for i, j, _, b in terms)
    w = "*".join(
        f"(1.0 - {a!r}*x)" + (f"**{m}" if m > 1 else "") for a, m in ((a1, m1), (a2, m2))
    )
    return (
        f"def pq(x, y):\n    return {p}, {q}\n"
        f"def integrand(x, y):\n    return (x*({p}) + y*({q})) / ({w})\n"
    )


@functools.lru_cache(maxsize=1)
def _compiled_kernel(terms, a1: float, m1: int, a2: float, m2: int):
    """(pq, integrand) compiled from `_kernel_source`, with no builtins.

    The memo keeps the last field only: its callers evaluate one field
    many times in a row, and compiling one costs as much as some hundreds
    of kernel calls.  Keys compare as doubles, so 0.0 and -0.0 meet; both are left
    out of the source, which is the same for either."""
    namespace = {"__builtins__": {}}
    exec(compile(_kernel_source(terms, a1, m1, a2, m2), "<flow kernel>", "exec"), namespace)
    return namespace["pq"], namespace["integrand"]


def _field_terms(coeffs: PerturbCoeffs):
    """((i, j, a_ij, b_ij), ...) as doubles, sorted by (i, j).

    Every coefficient is converted, so one that has no double value raises
    ValueError naming it."""
    return tuple(
        (
            i,
            j,
            _double(f"a[{i},{j}]", coeffs.a.get((i, j), 0)),
            _double(f"b[{i},{j}]", coeffs.b.get((i, j), 0)),
        )
        for i, j in sorted(coeffs.a.keys() | coeffs.b.keys())
    )


def _field_kernel(family: SystemFamily, coeffs: PerturbCoeffs):
    """The field's compiled float kernels (pq, integrand): pq(x, y) is
    (P(x, y), Q(x, y)), and integrand(x, y) is the quadrature integrand
    (x*P + y*Q) / ((1 - alpha1*x)**m1 * (1 - alpha2*x)**m2).

    Every coefficient is converted before anything is compiled, so one
    that has no double value raises ValueError here."""
    return _compiled_kernel(
        _field_terms(coeffs), float(family.alpha1), family.m1, float(family.alpha2), family.m2
    )


def numeric_melnikov(family: SystemFamily, coeffs: PerturbCoeffs, h: float) -> float:
    """Trapezoidal quadrature of the first-order averaged integral.

    The integrand is smooth and periodic, so the trapezoid rule on [0, 2*pi)
    converges fast.  It starts at START_NODES nodes, and each doubling
    evaluates only the new odd nodes, so no node is evaluated twice.  Once
    there are at least MIN_NODES nodes, two successive values that agree to
    1e-12 (relative, or at the integrand's scale) are accepted.  At
    MAX_NODES the last two values must agree to 1e-9, or QuadratureError
    is raised.
    """
    if not (0 < h < float(family.h_max)):
        raise ValueError("orbit label outside the annulus")
    _, integrand = _field_kernel(family, coeffs)
    root_h = math.sqrt(h)

    def level(nodes, half):
        """Sums of f and |f| over the nodes t = pi*j/half, j in nodes."""
        values = []
        for j in nodes:
            t = math.pi * j / half
            values.append(integrand(root_h * math.sin(t), root_h * math.cos(t)))
        return math.fsum(values), math.fsum(map(abs, values))

    # near a zero of the integral the relative criterion can never fire, so
    # agreement is also accepted at the scale of the integrand itself
    def settled(a, b, scale, tol):
        return abs(a - b) <= tol * max(abs(a), abs(b)) or abs(a - b) <= tol * scale

    n = START_NODES
    total, mass = level(range(0, 2 * n, 2), n)
    prev = total * (2.0 * math.pi / n)
    while True:
        odd, odd_mass = level(range(1, 2 * n, 2), n)
        total, mass, n = total + odd, mass + odd_mass, 2 * n
        cur, scale = total * (2.0 * math.pi / n), mass * (2.0 * math.pi / n)
        if n >= MIN_NODES and settled(cur, prev, scale, 1e-12):
            return cur
        if n == MAX_NODES:
            if settled(cur, prev, scale, 1e-9):
                return cur
            raise QuadratureError(f"quadrature did not settle at h={h}")
        prev = cur


def _section_rate(family: SystemFamily, coeffs: PerturbCoeffs, eps: float, h0: float):
    """d(h - h0)/dtheta along the perturbed orbit, theta = atan2(x, y).

    With x = sqrt(h)*sin(theta), y = sqrt(h)*cos(theta) and w the slowing
    factor, dh/dtheta = 2*eps*h*(x*P + y*Q) / (w*h + eps*(y*P - x*Q)).
    """
    pq, _ = _field_kernel(family, coeffs)
    a1, a2 = float(family.alpha1), float(family.alpha2)
    m1, m2 = family.m1, family.m2
    reach = max(abs(a1), abs(a2))

    def rate(theta, delta):
        h = h0 + delta
        if h <= 0.0:
            raise FlowError(f"orbit reached the center at angle {theta:.6f}")
        root = math.sqrt(h)
        # |x| <= sqrt(h) on the whole circle, so this guards every stage
        if 1.0 - reach * root < SINGULAR_GUARD:
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


def displacement(
    family: SystemFamily, coeffs: PerturbCoeffs, cfg: FlowConfig, h: float
) -> float:
    """Change of the orbit label h = x**2 + y**2 over one section return.

    It is integrated directly over theta in [0, 2*pi], not taken as a
    difference of two labels, so it is exactly 0.0 when the perturbation
    vanishes and keeps its relative accuracy at small epsilon.  To first
    order it is 2*eps times the averaged integral.  A step-size failure at
    some angle usually means that h(theta) turns vertical there: the
    orbit's angle is about to stop increasing.
    """
    from . import dop853

    if not (0 < h < float(family.h_max)):
        raise ValueError("orbit label outside the annulus")
    rate = _section_rate(family, coeffs, cfg.epsilon, h)
    atol = STEP_TOLERANCE * abs(cfg.epsilon) * h
    return dop853.integrate(rate, 0.0, 2.0 * math.pi, atol, STEP_TOLERANCE, FlowError)


def find_limit_cycles(
    family: SystemFamily, coeffs: PerturbCoeffs, cfg: FlowConfig, grid
) -> CycleReport:
    """Scan the displacement over the grid and bisect each sign change.

    Grid points where the integration fails are recorded per index and
    skipped; detection resolution is the final bisection width.
    """
    grid = [float(g) for g in grid]
    h_max = float(family.h_max)
    for g in grid:
        if not (0 < g < h_max):
            raise ValueError("grid must lie strictly inside the annulus")
    report = CycleReport(grid=list(grid), epsilon=cfg.epsilon)
    values = {}
    for idx, g in enumerate(grid):
        try:
            values[idx] = displacement(family, coeffs, cfg, g)
        except FlowError as exc:
            report.failures[idx] = str(exc)
    resolution = max(1e-4 * h_max, 16 * STEP_TOLERANCE)
    for idx in range(len(grid) - 1):
        if idx not in values or idx + 1 not in values:
            continue
        lo, hi = grid[idx], grid[idx + 1]
        d_lo, d_hi = values[idx], values[idx + 1]
        if d_lo == 0.0 or d_lo * d_hi >= 0:
            continue
        try:
            while hi - lo > resolution:
                mid = 0.5 * (lo + hi)
                d_mid = displacement(family, coeffs, cfg, mid)
                if d_mid == 0.0:
                    lo = hi = mid
                    break
                if d_lo * d_mid < 0:
                    hi, d_hi = mid, d_mid
                else:
                    lo, d_lo = mid, d_mid
        except FlowError as exc:
            report.failures[idx] = f"bisection: {exc}"
            continue
        if d_lo > 0 > d_hi:
            stability = "attracting"
        elif d_lo < 0 < d_hi:
            stability = "repelling"
        else:
            stability = "undecided"
        report.cycles.append(DetectedCycle(0.5 * (lo + hi), stability))
    report.cycles.sort(key=lambda c: c.h_label)
    return report
