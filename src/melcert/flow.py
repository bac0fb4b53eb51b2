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

Quadrature and section returns each evaluate the field through a kernel
compiled per field from source generated from the coefficient doubles: P
and Q are Horner in y over rows that are Horner in x.  The quadrature kernel
`level(r, nodes)` is one list comprehension over a trapezoid level's
(sin t, cos t) pairs that returns the integrand at each node; the section
kernel `section_rate(eps, h0)` returns the right-hand side of a return,
P, Q, the slowing weight and all of its stops inline.  The source holds only
float reprs of finite doubles, ints and local names, and runs with no
builtins (the section rate sees sqrt, sin, cos and `_stop`, which raises its
FlowError), so `compile` turns the same doubles into straight-line bytecode
and nothing else.  Each kind keeps its last kernel (a one-entry memo keyed
on the doubles), because a caller evaluates one field many times: a
quadrature ladder, or the section returns of a cycle scan.  The two memos
are apart: a quadrature compiles no section source, and quadratures of
other fields leave a scan's rate in place.

The module is pure Python: it loads no numpy, and it takes only the family
and coefficient records from `melnikov`, so the oracle shares no arithmetic
with the exact path.
"""

from __future__ import annotations

import functools
import math
import sys
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


# in the text of an error whose value has no double
BEYOND_DOUBLES = "is beyond the range of a double"


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
    stability: str  # "attracting" | "repelling"


@dataclass
class CycleReport:
    cycles: list = field(default_factory=list)
    failures: dict = field(default_factory=dict)  # grid index -> message


def _double(name: str, value) -> float:
    """A coefficient as a double; ValueError names one beyond its range."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"coefficient {name} {BEYOND_DOUBLES}") from None


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


def _weight_source(a1: float, m1: int, a2: float, m2: int) -> str:
    """Source of (1 - a1*x)**m1 * (1 - a2*x)**m2; a power 1 is left out."""
    return "*".join(
        f"(1.0 - {a!r}*x)" + (f"**{m}" if m > 1 else "") for a, m in ((a1, m1), (a2, m2))
    )


def _level_source(terms, a1: float, m1: int, a2: float, m2: int) -> str:
    """Source of `level(r, nodes)`: the quadrature integrand
    (x*P + y*Q) / ((1 - a1*x)**m1 * (1 - a2*x)**m2) at x = r*s, y = r*c for
    each (s, c) in nodes, as a list."""
    p = _polynomial_source((i, j, a) for i, j, a, _ in terms)
    q = _polynomial_source((i, j, b) for i, j, _, b in terms)
    return (
        "def level(r, nodes):\n"
        f"    return [(x*({p}) + y*({q})) / ({_weight_source(a1, m1, a2, m2)})"
        " for s, c in nodes for x in (r*s,) for y in (r*c,)]\n"
    )


def _section_source(terms, a1: float, m1: int, a2: float, m2: int) -> str:
    """Source of `section_rate(eps, h0)`, which returns `rate(theta, delta)`:
    d(h - h0)/dtheta along the perturbed orbit, theta = atan2(x, y).

    With x = sqrt(h)*sin(theta), y = sqrt(h)*cos(theta) and w the slowing
    factor, dh/dtheta = 2*eps*h*(x*P + y*Q) / (w*h + eps*(y*P - x*Q)).  It
    raises FlowError, through `stop`, at the center, once h is not a finite
    double, at the singular guard (|x| <= sqrt(h) on the whole circle, so
    one test guards every stage) and where the angle stops increasing."""
    p = _polynomial_source((i, j, a) for i, j, a, _ in terms)
    q = _polynomial_source((i, j, b) for i, j, _, b in terms)
    reach = max(abs(a1), abs(a2))
    return (
        "def section_rate(eps, h0):\n"
        "    def rate(theta, delta):\n"
        "        h = h0 + delta\n"
        f"        if h <= 0.0:\n            stop({_CENTER}, theta, h)\n"
        f"        if not h <= {sys.float_info.max!r}:\n            stop({_RANGE}, theta, h)\n"
        "        root = sqrt(h)\n"
        f"        if 1.0 - {reach!r}*root < {SINGULAR_GUARD!r}:\n"
        f"            stop({_GUARD}, theta, h)\n"
        "        x = root*sin(theta)\n"
        "        y = root*cos(theta)\n"
        f"        p = {p}\n"
        f"        q = {q}\n"
        f"        turn = {_weight_source(a1, m1, a2, m2)}*h + eps*(y*p - x*q)\n"
        f"        if turn <= 0.0:\n            stop({_TURN}, theta, h)\n"
        "        return 2.0*eps*h*(x*p + y*q) / turn\n"
        "    return rate\n"
    )


# What stops a section rate, by the int its source passes to `_stop`
_CENTER, _RANGE, _GUARD, _TURN = range(4)
_STOPS = (
    "orbit reached the center at angle {theta:.6f}",
    "orbit label h={h} " + BEYOND_DOUBLES + " at angle {theta:.6f}",
    "orbit reached the singular guard at h={h:.6f}",
    "the angle stopped increasing at angle {theta:.6f}, h={h:.6g}: "
    "the orbit does not return to the section",
)


def _stop(kind: int, theta: float, h: float):
    raise FlowError(_STOPS[kind].format(theta=theta, h=h))


def _compile(source: str, name: str, **names):
    """The function `name` defined by `source`, run with no builtins and
    only `names` besides."""
    namespace = {"__builtins__": {}, **names}
    exec(compile(source, f"<flow {name}>", "exec"), namespace)
    return namespace[name]


# Each kernel keeps the last field only (see the module docstring):
# compiling one costs as much as some hundreds of evaluations.  Keys compare
# as doubles, so 0.0 and -0.0 meet; both are left out of the source, which
# is the same for either.
@functools.lru_cache(maxsize=1)
def _level_kernel(terms, a1: float, m1: int, a2: float, m2: int):
    return _compile(_level_source(terms, a1, m1, a2, m2), "level")


@functools.lru_cache(maxsize=1)
def _section_kernel(terms, a1: float, m1: int, a2: float, m2: int):
    return _compile(
        _section_source(terms, a1, m1, a2, m2),
        "section_rate",
        sqrt=math.sqrt,
        sin=math.sin,
        cos=math.cos,
        stop=_stop,
    )


def _field_terms(coeffs: PerturbCoeffs):
    """((i, j, a_ij, b_ij), ...) as doubles, sorted by (i, j).

    Every coefficient is converted, so one that has no double value raises
    ValueError naming it: the first in (i, j) order, a before b.  Names are
    formatted only then, since a scan converts the field at every return."""
    a, b = coeffs.a, coeffs.b
    keys = sorted(a.keys() | b.keys())
    try:
        return tuple((i, j, float(a.get((i, j), 0)), float(b.get((i, j), 0))) for i, j in keys)
    except OverflowError:
        for i, j in keys:
            _double(f"a[{i},{j}]", a.get((i, j), 0))
            _double(f"b[{i},{j}]", b.get((i, j), 0))
        raise


def _field(family: SystemFamily, coeffs: PerturbCoeffs) -> tuple:
    """(terms, alpha1, m1, alpha2, m2) with the alphas as doubles: what
    the kernels of a field are compiled from, and their memo key.

    Every coefficient is converted before anything is compiled, so one
    that has no double value raises ValueError here."""
    return _field_terms(coeffs), float(family.alpha1), family.m1, float(family.alpha2), family.m2


def _nodes(start: int, half: int) -> tuple:
    """(sin t, cos t) at the trapezoid nodes t = pi*j/half, for j from
    start to 2*half in steps of 2."""
    return tuple(
        (math.sin(t), math.cos(t)) for t in (math.pi * j / half for j in range(start, 2 * half, 2))
    )


# the levels that most quadratures reach are built once; larger ones, which
# only orbits near h_max need, are built per call rather than kept
_cached_nodes = functools.lru_cache(maxsize=None)(_nodes)
CACHED_NODES = 1024


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
    kernel = _level_kernel(*_field(family, coeffs))
    root_h = math.sqrt(h)

    def level(start, half):
        """Sums of f and |f| over the nodes t = pi*j/half, j = start, start + 2, ..."""
        nodes = (_cached_nodes if half <= CACHED_NODES else _nodes)(start, half)
        values = kernel(root_h, nodes)
        return math.fsum(values), math.fsum(map(abs, values))

    # near a zero of the integral the relative criterion can never fire, so
    # agreement is also accepted at the scale of the integrand itself
    def settled(a, b, scale, tol):
        return abs(a - b) <= tol * max(abs(a), abs(b)) or abs(a - b) <= tol * scale

    n = START_NODES
    total, mass = level(0, n)
    prev = total * (2.0 * math.pi / n)
    while True:
        odd, odd_mass = level(1, n)
        total, mass, n = total + odd, mass + odd_mass, 2 * n
        cur, scale = total * (2.0 * math.pi / n), mass * (2.0 * math.pi / n)
        if n >= MIN_NODES and settled(cur, prev, scale, 1e-12):
            return cur
        if n == MAX_NODES:
            if settled(cur, prev, scale, 1e-9):
                return cur
            raise QuadratureError(f"quadrature did not settle at h={h}")
        prev = cur


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
    rate = _section_kernel(*_field(family, coeffs))(cfg.epsilon, h)
    atol = STEP_TOLERANCE * abs(cfg.epsilon) * h
    return dop853.integrate(rate, 0.0, 2.0 * math.pi, atol, STEP_TOLERANCE, FlowError)


def find_limit_cycles(
    family: SystemFamily, coeffs: PerturbCoeffs, cfg: FlowConfig, grid
) -> CycleReport:
    """Scan the displacement over the grid, strictly increasing inside the
    annulus, and bisect each sign change.

    Grid points where the integration fails are recorded per index and
    skipped; detection resolution is the final bisection width.
    """
    grid = [float(g) for g in grid]
    h_max = float(family.h_max)
    for g in grid:
        if not (0 < g < h_max):
            raise ValueError("grid must lie strictly inside the annulus")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    report = CycleReport()
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
        # signs are compared, not multiplied: a product of two tiny
        # displacements can underflow to 0.0 and hide their signs
        if d_lo == 0.0 or d_hi == 0.0 or (d_lo > 0) == (d_hi > 0):
            continue
        # displacement returns a number or raises (dop853.integrate rejects
        # every step with a NaN error estimate), so lo keeps d_lo's sign
        # and hi d_hi's, and d_lo's sign alone is the stability
        attracting = d_lo > 0
        try:
            while hi - lo > resolution:
                mid = 0.5 * (lo + hi)
                d_mid = displacement(family, coeffs, cfg, mid)
                if d_mid == 0.0:
                    lo = hi = mid
                    break
                if (d_mid > 0) == attracting:
                    lo = mid
                else:
                    hi = mid
        except FlowError as exc:
            report.failures[idx] = f"bisection: {exc}"
            continue
        stability = "attracting" if attracting else "repelling"
        report.cycles.append(DetectedCycle(0.5 * (lo + hi), stability))
    report.cycles.sort(key=lambda c: c.h_label)
    return report
