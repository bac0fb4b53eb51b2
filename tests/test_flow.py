"""Numerical oracle and limit-cycle detection."""

import math
from fractions import Fraction as F

import pytest

from melcert.dop853 import integrate
from melcert.flow import (
    FlowConfig,
    FlowError,
    QuadratureError,
    displacement,
    find_limit_cycles,
    numeric_melnikov,
)
from melcert.melnikov import (
    PerturbCoeffs,
    SystemFamily,
    assemble,
    evaluate_normal_form,
)
from melcert.zeros import count_zeros, prescribe_zeros

FAM = SystemFamily(F(1, 2), F(-1, 3), 1, 1)
BASIC = PerturbCoeffs(n=2, a={(0, 0): F(1), (2, 0): F(1, 4)}, b={(0, 1): F(1, 3)})


class TestNumericMelnikov:
    def test_zero_coefficients(self):
        assert numeric_melnikov(FAM, PerturbCoeffs(n=2), 0.5) == 0.0

    def test_vanishes_toward_center(self):
        # integrand scales like sqrt(h), so the integral drains to zero
        small = numeric_melnikov(FAM, BASIC, 1e-10)
        assert abs(small) < 1e-4

    def test_agrees_with_certified_evaluation(self):
        co = PerturbCoeffs(n=0, a={(0, 0): F(1)})
        nf = assemble(FAM, co)
        num = numeric_melnikov(FAM, co, 0.5)
        enc = evaluate_normal_form(nf, F(1, 2), precision=20)
        assert abs(num - float(enc.mid)) <= 1e-9 * abs(num)

    def test_rejects_out_of_annulus(self):
        with pytest.raises(ValueError):
            numeric_melnikov(FAM, BASIC, float(FAM.h_max) + 0.1)

    def test_unsettled_at_the_node_cap_raises(self):
        # the pole of the integrand nears the circle as h -> h_max; at
        # 1 - 1e-12 the values at 2**17 and 2**18 nodes still disagree
        fam = SystemFamily(F(1, 2), F(-1, 3), 2, 2)
        co = PerturbCoeffs(
            n=4,
            a={(0, 0): F(1), (2, 1): F(-1, 3), (4, 0): F(1, 5)},
            b={(0, 1): F(1, 3), (1, 2): F(2, 7)},
        )
        h_max = float(fam.h_max)
        with pytest.raises(QuadratureError):
            numeric_melnikov(fam, co, h_max * (1 - 1e-12))
        h = h_max * (1 - 1e-6)
        value = float(evaluate_normal_form(assemble(fam, co), F(h), precision=20).mid)
        assert abs(numeric_melnikov(fam, co, h) - value) <= 1e-9 * abs(value)


class TestSectionReturn:
    def test_start_outside_annulus_rejected(self):
        with pytest.raises(ValueError, match="outside the annulus"):
            displacement(FAM, BASIC, FlowConfig(epsilon=0.0), 2.1**2)


class TestDisplacement:
    def test_zero_eps_gives_zero_displacement(self):
        cfg = FlowConfig(epsilon=0.0)
        assert abs(displacement(FAM, BASIC, cfg, 1.0)) <= 1e-7

    def test_sign_matches_averaged_integral(self):
        # first-order theory: displacement ~ eps * positive_const * integral
        cfg = FlowConfig(epsilon=1e-3)
        for k in range(1, 21):
            h = 0.05 + (3.0 - 0.05) * (k - 1) / 19
            d = displacement(FAM, BASIC, cfg, h)
            m = numeric_melnikov(FAM, BASIC, h)
            assert d * m > 0, f"sign mismatch at h={h}"

    def test_displacement_scales_linearly_in_eps(self):
        h = 1.0
        d1 = displacement(FAM, BASIC, FlowConfig(epsilon=1e-3), h)
        d2 = displacement(FAM, BASIC, FlowConfig(epsilon=5e-4), h)
        assert abs(d1 / d2 - 2.0) < 0.05

    def test_vanishing_field_gives_exactly_zero(self):
        assert displacement(FAM, PerturbCoeffs(n=2), FlowConfig(epsilon=1e-3), 1.0) == 0.0
        assert displacement(FAM, BASIC, FlowConfig(epsilon=0.0), 1.0) == 0.0

    def test_linear_response_matches_certified_value(self):
        # the angle form integrates the O(eps) deviation itself, so at tiny
        # eps displacement/(2*eps) is the averaged integral, pi included
        eps = 1e-8
        nf = assemble(FAM, BASIC)
        for h in (0.3, 1.0, 2.0, 3.2):
            value = float(evaluate_normal_form(nf, F(h), precision=20).mid)
            d = displacement(FAM, BASIC, FlowConfig(epsilon=eps), h)
            assert abs(d / (2 * eps) - value) <= 1e-5 * abs(value), h


class TestFindLimitCycles:
    def test_zero_perturbation_finds_nothing(self):
        cfg = FlowConfig(epsilon=1e-3)
        grid = [0.2 + 0.35 * k for k in range(10)]
        report = find_limit_cycles(FAM, PerturbCoeffs(n=1), cfg, grid)
        assert report.cycles == []

    def test_two_prescribed_zeros_two_cycles(self):
        targets = [FAM.h_max / 4, FAM.h_max / 2]
        coeffs = prescribe_zeros(FAM, 2, targets)
        zero_report = count_zeros(assemble(FAM, coeffs), n=2)
        cfg = FlowConfig(epsilon=1e-3)
        h_max = float(FAM.h_max)
        grid = [h_max * (0.05 + 0.9 * k / 39) for k in range(40)]
        report = find_limit_cycles(FAM, coeffs, cfg, grid)
        assert len(report.cycles) == 2
        tol = 5e-3 * h_max
        for cycle, zero in zip(report.cycles, zero_report.certified):
            lo, hi = float(zero.interval.lo), float(zero.interval.hi)
            assert lo - tol <= cycle.h_label <= hi + tol
        stabilities = {c.stability for c in report.cycles}
        assert stabilities <= {"attracting", "repelling"}

    def test_merged_family_prescription_to_cycles(self):
        # alpha2 == -alpha1 shares one radical (single-squaring eliminant);
        # the whole prescribe -> certify -> detect chain must still close
        fam = SystemFamily(F(1, 2), F(-1, 2), 1, 2)
        targets = [fam.h_max / 3, fam.h_max * 5 / 8]
        coeffs = prescribe_zeros(fam, 3, targets)
        zero_report = count_zeros(assemble(fam, coeffs), n=3)
        assert zero_report.count_lo == zero_report.count_hi == 2
        h_max = float(fam.h_max)
        grid = [h_max * (0.05 + 0.9 * k / 39) for k in range(40)]
        report = find_limit_cycles(fam, coeffs, FlowConfig(epsilon=5e-4), grid)
        assert len(report.cycles) == 2
        tol = 5e-3 * h_max
        for cycle, zero in zip(report.cycles, zero_report.certified):
            lo, hi = float(zero.interval.lo), float(zero.interval.hi)
            assert lo - tol <= cycle.h_label <= hi + tol

    def test_confluent_one_zero_one_cycle(self):
        # seed picked so the single-radical instance has exactly one
        # certified zero comfortably inside the annulus
        from melcert.sampling import draw_coeffs, rng_for

        fam = SystemFamily(F(1, 2), F(1, 2), 1, 1)
        coeffs = draw_coeffs(rng_for(9000, 16), 2)
        zero_report = count_zeros(assemble(fam, coeffs), n=2)
        assert zero_report.count_lo == zero_report.count_hi == 1
        h_max = float(fam.h_max)
        grid = [h_max * (0.05 + 0.9 * k / 39) for k in range(40)]
        report = find_limit_cycles(fam, coeffs, FlowConfig(epsilon=1e-3), grid)
        assert len(report.cycles) == 1
        z = zero_report.certified[0]
        tol = 5e-3 * h_max
        assert float(z.interval.lo) - tol <= report.cycles[0].h_label <= float(z.interval.hi) + tol

    @pytest.mark.parametrize("eps", [1e-4, 1e-5])
    def test_six_prescribed_zeros_six_cycles(self, eps):
        # equally spaced zeros give lobes from about 1e-9 to 1e-3, so the
        # inner cycles show only if the displacement keeps its relative
        # accuracy at small eps
        fam = SystemFamily(F(1, 2), F(-1, 3), 2, 1)
        coeffs = prescribe_zeros(fam, 4, [fam.h_max * i / 7 for i in range(1, 7)])
        zero_report = count_zeros(assemble(fam, coeffs), n=4)
        assert zero_report.count_lo == zero_report.count_hi == 6
        h_max = float(fam.h_max)
        grid = [h_max * (0.05 + 0.9 * k / 95) for k in range(96)]
        report = find_limit_cycles(fam, coeffs, FlowConfig(epsilon=eps), grid)
        assert len(report.cycles) == 6
        tol = 5e-3 * h_max
        for cycle, zero in zip(report.cycles, zero_report.certified):
            lo, hi = float(zero.interval.lo), float(zero.interval.hi)
            assert lo - tol <= cycle.h_label <= hi + tol

    def test_grid_outside_annulus_rejected(self):
        cfg = FlowConfig(epsilon=1e-3)
        with pytest.raises(ValueError):
            find_limit_cycles(FAM, BASIC, cfg, [5.0])


def test_singular_guard_trips_before_the_line():
    # an orbit grazing x = 1/alpha1 = 2 must abort instead of evaluating
    # the vector field inside the guard distance
    cfg = FlowConfig(epsilon=0.0)
    h = float(FAM.h_max) * (1 - 1e-9)
    with pytest.raises(FlowError, match="guard"):
        displacement(FAM, BASIC, cfg, h)


class TestRobustness:
    # x' = y - eps/w, y' = -x: the equilibrium sits on the positive y-axis
    REVERSED = PerturbCoeffs(n=0, a={(0, 0): F(-1)})

    def test_start_moving_backwards_is_a_flow_error(self):
        # x' < 0 at (0, 0.01): the start does not cross the section forwards
        with pytest.raises(FlowError, match="angle stopped increasing at angle 0.000000"):
            displacement(FAM, self.REVERSED, FlowConfig(epsilon=0.9), 1e-4)

    def test_orbit_spiralling_out_to_the_line_is_a_flow_error(self):
        # with +eps/w the focus at (0, -0.9) repels, and the orbit from
        # (0, 0.01) grows until it meets the singular guard
        coeffs = PerturbCoeffs(n=0, a={(0, 0): F(1)})
        with pytest.raises(FlowError, match="singular guard"):
            displacement(FAM, coeffs, FlowConfig(epsilon=0.9), 1e-4)

    def test_orbit_around_an_off_center_equilibrium_is_a_flow_error(self):
        # the orbit through (0, sqrt(0.012)) circles (0, 0.1) without
        # enclosing the origin, so its angle turns back near 0.095
        with pytest.raises(FlowError, match="angle stopped increasing") as info:
            displacement(FAM, self.REVERSED, FlowConfig(epsilon=0.1), 0.012)
        angle = float(str(info.value).split("at angle ")[1].split(",")[0])
        assert 0.05 < angle < 0.1

    def test_cycle_scan_records_the_failure_per_grid_point(self):
        report = find_limit_cycles(FAM, self.REVERSED, FlowConfig(epsilon=0.1), [0.012, 0.015])
        assert report.cycles == []
        assert sorted(report.failures) == [0, 1]
        assert all("angle stopped increasing" in msg for msg in report.failures.values())

    def test_coefficient_beyond_double_range_is_a_value_error(self):
        huge = F(10**400)
        coeffs = PerturbCoeffs(n=1, a={(0, 0): F(1)}, b={(1, 0): -huge}, box=huge)
        with pytest.raises(ValueError, match=r"coefficient b\[1,0\] is beyond the range"):
            displacement(FAM, coeffs, FlowConfig(epsilon=1e-3), 0.5)
        with pytest.raises(ValueError, match=r"coefficient b\[1,0\] is beyond the range"):
            numeric_melnikov(FAM, coeffs, 0.5)
        # so a cycle scan raises it instead of recording a failure
        with pytest.raises(ValueError, match=r"b\[1,0\]"):
            find_limit_cycles(FAM, coeffs, FlowConfig(epsilon=1e-3), [0.5, 1.0])

    def test_step_floor_ends_in_flow_error(self):
        # y' = (1 + y)**2 blows up at t = 1: steps shrink to 10 ulp there
        with pytest.raises(FlowError, match="step size fell below 10 ulp at 1.0"):
            integrate(lambda _t, y: (1.0 + y) ** 2, 0.0, 2.0, 1e-10, 1e-10, FlowError)

    def test_fold_in_the_angle_ends_at_the_step_floor(self):
        # x' = y + x**2/(2w), y' = -x from h = 1/2: the angle peaks near
        # 1.9562 at h = 3.1 and turns back, so h(theta) has a vertical
        # tangent there that no step can follow
        coeffs = PerturbCoeffs(n=2, a={(2, 0): F(1)})
        with pytest.raises(FlowError, match="10 ulp at 1.956"):
            displacement(FAM, coeffs, FlowConfig(epsilon=0.5), 0.5)

    def test_integrator_matches_a_closed_form(self):
        # y' = cos(t) * (1 + y) has y = exp(sin t) - 1; an 8th-order method
        # reaches 1e-10 in about 20 steps of 12 evaluations
        calls = []

        def rate(t, y):
            calls.append(t)
            return math.cos(t) * (1.0 + y)

        y = integrate(rate, 0.0, 2.0, 1e-12, 1e-12, FlowError)
        assert abs(y - math.expm1(math.sin(2.0))) <= 1e-10
        assert len(calls) <= 400
