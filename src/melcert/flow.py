"""Numerical ground truth: quadrature of the averaged integral and direct
integration of the perturbed system with section-return cycle detection.

Everything here is double precision by design; it is the oracle and the
detector that exercise the exact pipeline, never the certifier.  numpy and
scipy are imported on the first numeric call, so importing this module (and
the exact pipeline that never makes such a call) does not load them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .melnikov import PerturbCoeffs, SystemFamily

SINGULAR_GUARD = 1e-6


class QuadratureError(RuntimeError):
    pass


class FlowError(RuntimeError):
    pass


@dataclass
class FlowConfig:
    """Integration settings; the section is fixed: the positive y-axis,
    crossed with increasing x (the orbit's t = 0 point)."""

    epsilon: float = 1e-3
    step_tolerance: float = 1e-10
    max_return_time: float = 100.0

    def __post_init__(self):
        # epsilon == 0 is allowed: it exercises the conservative flow
        if abs(self.epsilon) >= 1:
            raise ValueError("epsilon must be small")
        if self.step_tolerance <= 0 or self.max_return_time <= 0:
            raise ValueError("tolerances must be positive")


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


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on the first call."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


def _float_tables(family: SystemFamily, coeffs: PerturbCoeffs):
    a1, a2 = float(family.alpha1), float(family.alpha2)
    terms_a = [(i, j, float(v)) for (i, j), v in sorted(coeffs.a.items())]
    terms_b = [(i, j, float(v)) for (i, j), v in sorted(coeffs.b.items())]
    return a1, a2, terms_a, terms_b


def _poly_sum(terms, x, y):
    total = 0.0
    for i, j, c in terms:
        total = total + c * x**i * y**j
    return total


def numeric_melnikov(
    family: SystemFamily, coeffs: PerturbCoeffs, h: float, nodes: int = 512
) -> float:
    """Trapezoidal quadrature of the first-order averaged integral.

    The integrand is smooth and periodic, so the node count is doubled
    until two successive values agree to 1e-12 relative (cap 2**18).
    """
    if not (0 < h < float(family.h_max)):
        raise ValueError("orbit label outside the annulus")
    if nodes < 4 or nodes & (nodes - 1):
        raise ValueError("node count must be a power of two >= 4")
    import numpy as np

    a1, a2, terms_a, terms_b = _float_tables(family, coeffs)
    m1, m2 = family.m1, family.m2
    root_h = math.sqrt(h)

    def value(n: int):
        t = np.arange(n) * (2.0 * math.pi / n)
        x = root_h * np.sin(t)
        y = root_h * np.cos(t)
        w = (1.0 - a1 * x) ** m1 * (1.0 - a2 * x) ** m2
        f = (x * _poly_sum(terms_a, x, y) + y * _poly_sum(terms_b, x, y)) / w
        return float(f.mean()) * 2.0 * math.pi, float(np.abs(f).mean()) * 2.0 * math.pi

    # near a zero of the integral the relative criterion can never fire, so
    # agreement is also accepted at the scale of the integrand itself
    def settled(a, b, scale, tol):
        return abs(a - b) <= tol * max(abs(a), abs(b)) or abs(a - b) <= tol * scale

    prev, scale = value(nodes)
    n = nodes
    while n < (1 << 18):
        n *= 2
        cur, scale = value(n)
        if settled(cur, prev, scale, 1e-12):
            return cur
        prev = cur
    final, scale = value(1 << 18)
    if settled(final, prev, scale, 1e-9):
        return final
    raise QuadratureError(f"quadrature did not settle at h={h}")


def _vector_field(family: SystemFamily, coeffs: PerturbCoeffs, cfg: FlowConfig):
    a1, a2, terms_a, terms_b = _float_tables(family, coeffs)
    m1, m2 = family.m1, family.m2
    eps = cfg.epsilon

    def rhs(_t, state):
        x, y = state
        f1 = 1.0 - a1 * x
        f2 = 1.0 - a2 * x
        if abs(f1) < SINGULAR_GUARD or abs(f2) < SINGULAR_GUARD:
            raise FlowError(f"trajectory reached the singular guard at x={x:.6f}")
        w = f1**m1 * f2**m2
        return (
            y + eps * _poly_sum(terms_a, x, y) / w,
            -x + eps * _poly_sum(terms_b, x, y) / w,
        )

    return rhs


def integrate_to_section(
    family: SystemFamily, coeffs: PerturbCoeffs, cfg: FlowConfig, start
) -> tuple:
    """Flow the perturbed system to its next positive-y-axis crossing.

    The crossing (x = 0 with dx/dt > 0, which happens at y > 0 on the
    near-circular orbits) is located by the integrator's event root solve.
    """
    x0, y0 = float(start[0]), float(start[1])
    if x0 * x0 + y0 * y0 >= float(family.h_max):
        raise FlowError("start point outside the annulus of closed orbits")
    rhs = _vector_field(family, coeffs, cfg)

    def section(_t, state):
        return state[0]

    section.terminal = True
    section.direction = 1.0

    t_start, state = 0.0, (x0, y0)
    if abs(x0) < 1e-12:
        # already on the section: run a short eventless leg first so the
        # event fires on the true return, not on the start point
        lead = solve_ivp(
            rhs,
            (0.0, 0.5),
            state,
            method="DOP853",
            rtol=cfg.step_tolerance,
            atol=cfg.step_tolerance * 1e-3,
        )
        if not lead.success:
            raise FlowError(f"integration failed: {lead.message}")
        t_start, state = 0.5, tuple(lead.y[:, -1])
    sol = solve_ivp(
        rhs,
        (t_start, cfg.max_return_time),
        state,
        method="DOP853",
        rtol=cfg.step_tolerance,
        atol=cfg.step_tolerance * 1e-3,
        events=section,
        dense_output=True,
    )
    if not sol.success:
        raise FlowError(f"integration failed: {sol.message}")
    if not sol.t_events[0].size:
        raise FlowError("section was not reached before max_return_time")
    xs, ys = sol.y_events[0][0]
    if ys <= 0:
        raise FlowError("section crossing happened at nonpositive y")
    return float(xs), float(ys)


def displacement(
    family: SystemFamily, coeffs: PerturbCoeffs, cfg: FlowConfig, h: float
) -> float:
    """Change of the orbit label h = x**2 + y**2 over one section return.

    To first order this is a positive multiple of epsilon times the
    averaged integral; only its sign and zero locations are relied upon.
    """
    if not (0 < h < float(family.h_max)):
        raise ValueError("orbit label outside the annulus")
    xs, ys = integrate_to_section(family, coeffs, cfg, (0.0, math.sqrt(h)))
    return xs * xs + ys * ys - h


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
        except (FlowError, QuadratureError) as exc:
            report.failures[idx] = str(exc)
    resolution = max(1e-4 * h_max, 16 * cfg.step_tolerance)
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
        except (FlowError, QuadratureError) as exc:
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
