"""Numerical oracle and limit-cycle detection."""

import ast
import math
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from melcert import dop853, flow
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
from oracles import (
    oracle_displacement,
    oracle_dop853,
    oracle_field,
    oracle_field_kernel,
    oracle_quadrature,
    oracle_section_rate,
)

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


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), float("-inf"), 1.0, -1.5])
def test_epsilon_that_is_not_small_rejected(eps):
    # NaN compares false with every bound, so only a test that fails closed rejects it
    with pytest.raises(ValueError, match="epsilon must be small"):
        FlowConfig(epsilon=eps)


class TestFieldKernel:
    """The compiled kernels against the loop `oracle_field` and exact values.

    P and Q are read from the Horner source both kernels inline
    (`oracle_field_kernel` compiles it alone), the integrand from the
    quadrature kernel at r = 1.  Both sides are held to a bound fixed from
    the doubles' unit roundoff u: each monomial of x**i * y**j passes
    through at most 4n + 4 roundings in Horner's rule and n + T in the loop
    (T terms), so |error| <= (4n + T + 8) u times the sum of
    |c|*|x|**i*|y|**j.  Points keep |alpha*x| <= 1/2, so each factor
    1 - alpha*x is rounded to within 6u relative and the denominator to
    (6(m1 + m2) + 4)u.  Results below the normal range may lose to
    underflow what 2**-1060 covers, after the 1/w <= 2**6 growth.
    """

    U = 2.0**-53
    TINY = 2.0**-1060
    # 3 * 2**-1074 is subnormal, and -10**-400 rounds to -0.0
    COEFF = st.one_of(
        st.fractions(min_value=-1, max_value=1, max_denominator=10**6),
        st.sampled_from([F(3, 2**1074), F(-1, 10**400), F(1), F(-1)]),
    )
    ALPHA = st.sampled_from([F(1, 2), F(-1, 2), F(-1, 3), F(1, 4), F(3, 7), F(-1, 5)])
    POINT = st.floats(min_value=-1, max_value=1)
    # what each generated source may name besides numbers: its arguments
    # and locals, and for the section rate its namespace
    LEVEL_NAMES = {"r", "nodes", "s", "c", "x", "y"}
    SECTION_NAMES = {
        "eps", "h0", "rate", "theta", "delta", "h", "root", "x", "y", "p", "q", "turn",
        "sqrt", "sin", "cos", "stop",
    }

    @staticmethod
    def exact(grid, x, y):
        """(value, scale) of sum c*x**i*y**j over the doubles, in Fractions."""
        x, y = F(x), F(y)
        value = scale = F(0)
        for (i, j), c in grid.items():
            c = F(c)
            value += c * x**i * y**j
            scale += abs(c) * abs(x) ** i * abs(y) ** j
        return value, scale

    @staticmethod
    def assert_arithmetic(source, names):
        """The source is arithmetic on numbers and the given names only."""
        tree = ast.parse(source)
        assert {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} <= names
        assert all(
            type(n.value) in (float, int) for n in ast.walk(tree) if isinstance(n, ast.Constant)
        )

    def check(self, fam, co, points):
        pq, _ = oracle_field_kernel(fam, co)
        level = flow._level_kernel(*flow._field(fam, co))
        oracle = oracle_field(co)
        terms = flow._field_terms(co)
        grid_p = {(i, j): a for i, j, a, _ in terms}
        grid_q = {(i, j): b for i, j, _, b in terms}
        a1, a2 = float(fam.alpha1), float(fam.alpha2)
        gamma = (4 * co.n + len(terms) + 8) * self.U
        for x, y in points:
            p, q = pq(x, y)
            po, qo = oracle(x, y)
            ep, sp = self.exact(grid_p, x, y)
            eq, sq = self.exact(grid_q, x, y)
            for got, ref, want, scale in ((p, po, ep, sp), (q, qo, eq, sq)):
                bound = gamma * scale + self.TINY
                assert abs(F(got) - want) <= bound, (x, y, got, want)
                assert abs(F(got) - F(ref)) <= 2 * bound, (x, y, got, ref)
            w = (1 - F(a1) * F(x)) ** fam.m1 * (1 - F(a2) * F(x)) ** fam.m2
            want = (F(x) * ep + F(y) * eq) / w
            scale = (abs(F(x)) * sp + abs(F(y)) * sq) / w
            bound = (gamma + (6 * (fam.m1 + fam.m2) + 4) * self.U) * scale + self.TINY
            ref = (x * po + y * qo) / ((1.0 - a1 * x) ** fam.m1 * (1.0 - a2 * x) ** fam.m2)
            [got] = level(1.0, [(x, y)])
            assert abs(F(got) - want) <= bound, (x, y, got, want)
            assert abs(F(got) - F(ref)) <= 2 * bound, (x, y, got, ref)
        field = (terms, a1, fam.m1, a2, fam.m2)
        self.assert_arithmetic(flow._level_source(*field), self.LEVEL_NAMES)
        self.assert_arithmetic(flow._section_source(*field), self.SECTION_NAMES)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_against_loop_oracle_and_exact_values(self, data):
        n = data.draw(st.integers(0, 6), label="n")
        shape = data.draw(st.sampled_from(["grid", "rows in x", "columns in y"]), label="shape")
        slots = [
            (i, j)
            for i in range(n + 1)
            for j in range(n + 1 - i)
            if shape == "grid" or (shape == "rows in x" and j == 0) or (shape == "columns in y" and i == 0)
        ]
        # sparse or missing entries, in either component
        a = data.draw(st.dictionaries(st.sampled_from(slots), self.COEFF), label="a")
        b = data.draw(st.dictionaries(st.sampled_from(slots), self.COEFF), label="b")
        fam = SystemFamily(
            data.draw(self.ALPHA), data.draw(self.ALPHA),
            data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)),
        )
        points = data.draw(st.lists(st.tuples(self.POINT, self.POINT), min_size=1, max_size=4))
        self.check(fam, PerturbCoeffs(n=n, a=a, b=b), points)

    def test_full_grid_at_the_degree_limit(self):
        # n = 32 is the spec limit: 561 terms, nested 33 deep in each variable
        n = 32
        slots = [(i, j) for i in range(n + 1) for j in range(n + 1 - i)]
        assert len(slots) == 561
        co = PerturbCoeffs(
            n=n,
            a={(i, j): F((-1) ** (i + j) * (i + 1), 64 * (j + 2)) for i, j in slots},
            b={(i, j): F(j - i, 97 * (i + 3)) or F(1, 5) for i, j in slots},
        )
        fam = SystemFamily(F(1, 2), F(-1, 3), 16, 16)
        points = [(0.0, 0.0), (1.0, -1.0), (-0.75, 0.5), (0.3, 0.9), (-1.0, -1.0)]
        self.check(fam, co, points)
        # the section rate compiles at this depth too, and runs the loop's doubles
        rate = flow._section_kernel(*flow._field(fam, co))(1e-3, 0.5)
        reference = oracle_section_rate(fam, co, 1e-3, 0.5)
        for theta, delta in ((0.0, 0.0), (1.0, 1e-4), (4.0, -2e-3)):
            assert rate(theta, delta).hex() == reference(theta, delta).hex()

    def test_dop853_step_source_is_arithmetic(self):
        self.assert_arithmetic(
            dop853._step_source(),
            {"fun", "t", "y", "f", "h", "t_new", "y_new", "f_new"} | {f"k{i}" for i in range(12)},
        )

    def test_the_memo_keeps_the_last_field_only(self):
        flow._level_kernel.cache_clear()
        flow._section_kernel.cache_clear()
        first = flow._level_kernel(*flow._field(FAM, BASIC))
        assert flow._level_kernel(*flow._field(FAM, BASIC)) is first
        other = flow._level_kernel(*flow._field(FAM, PerturbCoeffs(n=1, a={(1, 0): F(1)})))
        assert other is not first
        assert flow._level_kernel.cache_info().currsize == 1
        # a quadrature compiles no section rate
        numeric_melnikov(FAM, BASIC, 0.5)
        assert flow._section_kernel.cache_info().misses == 0
        # a scan interleaved with other fields' quadratures compiles its rate once
        others = [PerturbCoeffs(n=1, a={(1, 0): F(1, k)}) for k in (2, 3)]
        cfg = FlowConfig(epsilon=1e-3)
        for k, h in enumerate((0.5, 1.0, 1.5, 2.0)):
            displacement(FAM, BASIC, cfg, h)
            numeric_melnikov(FAM, others[k % 2], h)
        info = flow._section_kernel.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 3, 1)


class TestKernelsMatchTheLoops:
    """The generated kernels against the per-call loops of `oracles`: the
    same float operations in the same order, so every double and every
    FlowError text must agree bit for bit."""

    ALPHA = st.sampled_from([F(1, 2), F(-1, 2), F(-1, 3), F(1, 4), F(3, 7), F(-1, 5), F(2, 3)])
    COEFF = st.fractions(min_value=-1, max_value=1, max_denominator=1000)
    EPS = st.one_of(st.sampled_from([1e-3, 0.05, 0.3, -0.3]), st.floats(-0.3, 0.3))

    @staticmethod
    def outcome(run, *args):
        try:
            return "value", run(*args).hex()
        except (FlowError, QuadratureError) as exc:
            return type(exc).__name__, str(exc)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_quadrature_and_returns_are_bit_identical(self, data):
        n = data.draw(st.integers(0, 6), label="n")
        slots = st.sampled_from([(i, j) for i in range(n + 1) for j in range(n + 1 - i)])
        co = PerturbCoeffs(
            n=n,
            a=data.draw(st.dictionaries(slots, self.COEFF, max_size=6), label="a"),
            b=data.draw(st.dictionaries(slots, self.COEFF, max_size=6), label="b"),
        )
        fam = SystemFamily(
            data.draw(self.ALPHA), data.draw(self.ALPHA),
            data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)),
        )
        h = float(fam.h_max) * data.draw(st.floats(0.01, 0.9), label="h/h_max")
        eps = data.draw(self.EPS, label="eps")
        assert self.outcome(numeric_melnikov, fam, co, h) == self.outcome(
            oracle_quadrature, fam, co, h
        )
        assert self.outcome(displacement, fam, co, FlowConfig(epsilon=eps), h) == self.outcome(
            oracle_displacement, fam, co, eps, h
        )

    @pytest.mark.parametrize(
        "fam, co, eps, h, message",
        [
            (FAM, PerturbCoeffs(n=0, a={(0, 0): F(-1)}), 0.9, 1e-4, "angle stopped increasing"),
            (FAM, PerturbCoeffs(n=0, a={(0, 0): F(1)}), 0.9, 1e-4, "singular guard"),
            (FAM, PerturbCoeffs(n=2, a={(2, 0): F(1)}), 0.5, 0.5, "10 ulp"),
            (FAM, BASIC, 0.0, float(FAM.h_max) * (1 - 1e-9), "singular guard"),
            (
                SystemFamily(F(1, 10**150), F(-1, 10**150), 1, 1),
                PerturbCoeffs(n=2, a={(0, 0): F(1), (2, 0): F(-1, 3)}, b={(0, 1): F(1, 5)}),
                1e-3,
                5e299,
                "beyond the range of a double",
            ),
        ],
        ids=["turn", "guard", "fold", "grazing", "overflow"],
    )
    def test_flow_error_texts_are_identical(self, fam, co, eps, h, message):
        kind, text = self.outcome(displacement, fam, co, FlowConfig(epsilon=eps), h)
        assert (kind, text) == self.outcome(oracle_displacement, fam, co, eps, h)
        assert kind == "FlowError" and message in text


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

    @pytest.mark.parametrize("eps", [1e-200, -1e-300])
    def test_error_sums_whose_squares_underflow(self, eps):
        # the step's error sums are O(eps), so their squares underflow to
        # 0.0; the step control still reads their ratio to the tolerance
        nf = assemble(FAM, BASIC)
        value = float(evaluate_normal_form(nf, F(1), precision=20).mid)
        d = displacement(FAM, BASIC, FlowConfig(epsilon=eps), 1.0)
        assert abs(d / (2 * eps) - value) <= 1e-5 * abs(value)


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

    @pytest.mark.parametrize("grid", [[1.5, 1.0, 0.5], [0.5, 1.0, 1.0, 1.5]])
    def test_grid_not_strictly_increasing_is_refused(self, grid):
        # bisection reads the stability from the left end of each pair, so
        # a reversed grid would flip it; the scan refuses before any orbit
        with pytest.raises(ValueError, match="grid must be strictly increasing"):
            find_limit_cycles(FAM, BASIC, FlowConfig(epsilon=1e-3), grid)

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

    def test_bisection_failure_is_recorded_without_a_cycle(self, monkeypatch):
        # the grid values change sign on [0.5, 1.5], but the first midpoint
        # fails: the failure is kept under the left grid index
        def fake(family, coeffs, cfg, h):
            if h not in (0.5, 1.5, 2.5):
                raise FlowError(f"no return at h={h}")
            return 1.0 - h

        monkeypatch.setattr(flow, "displacement", fake)
        report = find_limit_cycles(FAM, BASIC, FlowConfig(), [0.5, 1.5, 2.5])
        assert report.cycles == []
        assert report.failures == {0: "bisection: no return at h=1.0"}

    @pytest.mark.parametrize("slope, stability", [(-1.0, "attracting"), (1.0, "repelling")])
    def test_exact_zero_at_a_midpoint_ends_the_bisection(self, monkeypatch, slope, stability):
        calls = []

        def fake(family, coeffs, cfg, h):
            calls.append(h)
            return slope * (h - 1.0)

        monkeypatch.setattr(flow, "displacement", fake)
        report = find_limit_cycles(FAM, BASIC, FlowConfig(), [0.5, 1.5])
        assert calls == [0.5, 1.5, 1.0]
        assert [(c.h_label, c.stability) for c in report.cycles] == [(1.0, stability)]
        assert report.failures == {}

    @pytest.mark.parametrize("slope, stability", [(-1.0, "attracting"), (1.0, "repelling")])
    def test_tiny_displacements_keep_their_signs(self, monkeypatch, slope, stability):
        # the end values' product, -2.5e-401, underflows to -0.0: compared
        # by sign, they still bracket the cycle, and d_lo's sign decides
        def fake(family, coeffs, cfg, h):
            return 1e-200 * slope * (h - 0.7)

        monkeypatch.setattr(flow, "displacement", fake)
        report = find_limit_cycles(FAM, BASIC, FlowConfig(), [0.2, 1.2])
        assert [c.stability for c in report.cycles] == [stability]
        assert abs(report.cycles[0].h_label - 0.7) < 1e-4 * float(FAM.h_max)
        assert report.failures == {}


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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("start", [0.0, 1.0])
    def test_non_finite_rate_ends_in_flow_error(self, value, start):
        # from t = start on the rate has no finite value: every step there
        # has a NaN error estimate and is rejected, so no NaN is returned;
        # at t = 0 one ulp of t_end is the larger floor, and it is named
        def rate(t, y):
            return value if t >= start else math.cos(t)

        floor = "10 ulp at 1.0" if start else re.escape("1 ulp of t_end=2.0 at t=0.000000")
        with pytest.raises(FlowError, match=f"step size fell below {floor}"):
            integrate(rate, 0.0, 2.0, 1e-10, 1e-10, FlowError)

    def test_huge_finite_rate_ends_in_flow_error(self):
        # the stage round-off of y' = 1e307 shrinks the steps to about
        # 1e-273 near t = 0, below any floor relative to t alone; the floor
        # relative to t_end stops them, and the message names that floor
        # with no guess at a singularity
        text = re.escape("step size fell below 1 ulp of t_end=2.0 at t=0.000000")
        for run in (integrate, oracle_dop853):
            with pytest.raises(FlowError, match=f"^{text}$"):
                run(lambda _t, _y: 1e307, 0.0, 2.0, 1e-10, 1e-10, FlowError)

    @pytest.mark.parametrize(
        "a_key, b_key, name", [((1, 0), (0, 1), "b[0,1]"), ((0, 1), (0, 1), "a[0,1]")]
    )
    def test_first_coefficient_without_a_double_is_named(self, a_key, b_key, name):
        # of two coefficients beyond the doubles, the first in (i, j)
        # order, a before b, is named
        huge = F(10**400)
        coeffs = PerturbCoeffs(n=1, a={a_key: huge}, b={b_key: -huge}, box=huge)
        with pytest.raises(ValueError, match=f"coefficient {re.escape(name)} is beyond"):
            flow._field_terms(coeffs)

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
