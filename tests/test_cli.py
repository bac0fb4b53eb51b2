"""Spec-file parsing, report rendering, and command contracts."""

import json
import os
import pathlib
import random
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction as F

import pytest

from melcert.cli import (
    MAX_M,
    MAX_N,
    MAX_PRECISION,
    SETTINGS,
    SpecError,
    build_parser,
    decimal_str,
    main,
    parse_spec,
    report_normal_form,
    report_sample_curve,
    report_verify,
    report_zeros,
    sample_curve_csv,
    sci_str,
)
from melcert.flow import numeric_melnikov

REPO = pathlib.Path(__file__).resolve().parent.parent
INSTANCES = REPO / "instances"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

BASIC = (INSTANCES / "n2_basic.spec").read_text()
TWO_ZEROS = (INSTANCES / "two_zeros.spec").read_text()
CONFLUENT = (INSTANCES / "confluent_n3.spec").read_text()


def curve_csv(spec, points):
    return sample_curve_csv(report_sample_curve(replace(spec, points=points)))


class TestParsing:
    def test_decimal_strings_parse_exactly(self):
        spec = parse_spec(
            "[family]\nalpha1 = 0.5\nalpha2 = -0.25\nm1 = 1\nm2 = 1\n"
            "[perturbation]\nn = 1\na_0_0 = 0.125\n"
        )
        assert spec.family.alpha1 == F(1, 2)
        assert spec.coeffs.a[(0, 0)] == F(1, 8)

    def test_zero_alpha_rejected(self):
        with pytest.raises(SpecError):
            parse_spec(
                "[family]\nalpha1 = 0\nalpha2 = 1\nm1 = 1\nm2 = 1\n"
                "[perturbation]\nn = 1\n"
            )

    def test_out_of_range_index_rejected(self):
        with pytest.raises(SpecError, match="outside"):
            parse_spec(
                "[family]\nalpha1 = 1/2\nalpha2 = 1\nm1 = 1\nm2 = 1\n"
                "[perturbation]\nn = 1\na_3_0 = 1\n"
            )

    def test_box_violation_rejected(self):
        with pytest.raises(SpecError, match="box"):
            parse_spec(
                "[family]\nalpha1 = 1/2\nalpha2 = 1\nm1 = 1\nm2 = 1\n"
                "[perturbation]\nn = 1\nbox = 1\na_0_0 = 3/2\n"
            )

    def test_oversized_exponents_and_degree_rejected(self):
        family = "[family]\nalpha1 = 1/2\nalpha2 = 1\nm1 = {m1}\nm2 = {m2}\n"
        pert = "[perturbation]\nn = {n}\n"
        at_limit = parse_spec(family.format(m1=MAX_M, m2=MAX_M) + pert.format(n=MAX_N))
        assert (at_limit.family.m1, at_limit.coeffs.n) == (MAX_M, MAX_N)
        for m1, m2, n, where in (
            (MAX_M + 1, 1, 1, r"\[family\] m1"),
            (1, 1000, 1, r"\[family\] m2"),
            (1, 1, MAX_N + 1, r"\[perturbation\] n"),
        ):
            with pytest.raises(SpecError, match=where):
                parse_spec(family.format(m1=m1, m2=m2) + pert.format(n=n))

    @pytest.mark.parametrize(
        "line, bad",
        [
            ("alpha1 = 1/2", "alpha1 = 1_0/30"),
            ("m1 = 1", "m1 = 1_0"),
            ("b_0_1 = 1/3", "b_0_1 = 0.3_3"),
            ("eps = 1/1000", "eps = 1/1_000"),
            ("precision = 30", "precision = 3_0"),
        ],
    )
    def test_underscores_rejected_in_every_number(self, line, bad):
        # Fraction takes PEP 515 underscores only from Python 3.11 on, int
        # on every version: refused in both, a spec reads the same on all
        text = BASIC.replace(line, bad)
        assert text != BASIC
        with pytest.raises(SpecError, match="not an (integer|exact rational): '.*_"):
            parse_spec(text)

    def test_decimal_exponent_bounded_by_the_digit_limit(self, monkeypatch):
        # the interpreter's limit on int strings, 4300 by default, bounds
        # the exponent too: Fraction would build 10**exponent first
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
        coeff = BASIC.replace("b_0_1 = 1/3", "b_0_1 = {}")
        assert parse_spec(coeff.format("1e-4300")).coeffs.b[(0, 1)] == F(1, 10**4300)
        assert parse_spec(coeff.format("-2.5E-0004300")).coeffs.b[(0, 1)] == F(-25, 10**4301)
        for raw in ("1e-4301", "1E+100000000", "2.5e-000000000000099999", "1e" + "9" * 5000):
            with pytest.raises(SpecError, match=r"b_0_1: decimal exponent exceeds the limit 4300"):
                parse_spec(coeff.format(raw))
        with pytest.raises(SpecError, match=r"eps: decimal exponent exceeds the limit 4300"):
            parse_spec(BASIC.replace("eps = 1/1000", "eps = 1e-5000"))
        # a disabled limit (0) bounds no exponent
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
        assert parse_spec(coeff.format("1e-4301")).coeffs.b[(0, 1)] == F(1, 10**4301)

    def test_oversized_precision_rejected(self):
        text = BASIC.replace("precision = 30", "precision = {}")
        assert parse_spec(text.format(MAX_PRECISION)).precision == MAX_PRECISION
        with pytest.raises(SpecError, match=r"\[settings\] precision: .* exceeds the limit"):
            parse_spec(text.format(MAX_PRECISION + 1))

    def test_malformed_key_rejected(self):
        with pytest.raises(SpecError, match="a_i_j"):
            parse_spec(
                "[family]\nalpha1 = 1/2\nalpha2 = 1\nm1 = 1\nm2 = 1\n"
                "[perturbation]\nn = 1\nc_0_0 = 1\n"
            )

    @pytest.mark.parametrize("key", ["a_00_0", "b_0_01", "a_\u0663_0"])
    def test_non_canonical_index_rejected(self, key, tmp_path, capsys):
        # a_00_0 would otherwise be read as a[0,0] and silently replace the
        # a_0_0 beside it; configparser rejects only identical keys
        spec = tmp_path / "leading_zero.spec"
        spec.write_text(
            "[family]\nalpha1 = 1/2\nalpha2 = 1\nm1 = 1\nm2 = 1\n"
            f"[perturbation]\nn = 1\na_0_0 = 1\n{key} = -1\n"
        )
        assert main(["normal-form", "--spec", str(spec)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: [perturbation] {key}: expected a_i_j or b_i_j\n"

    def test_missing_section_rejected(self):
        with pytest.raises(SpecError, match="family"):
            parse_spec("[perturbation]\nn = 1\n")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("points = 1", r"\[settings\] points: must be >= 2"),
            ("samples = 0", r"\[settings\] samples: must be >= 1"),
            ("grid = 0", r"\[settings\] grid: must be >= 8"),
            ("grid = 7", r"\[settings\] grid: must be >= 8"),
        ],
    )
    def test_settings_rejected_at_parse_time(self, line, message):
        key = line.split()[0]
        text = re.sub(rf"^{key} = .*$", "", BASIC, flags=re.M) + line + "\n"
        with pytest.raises(SpecError, match=message):
            parse_spec(text)


class TestFormatting:
    def test_decimal_truncation(self):
        assert decimal_str(F(1, 3), 6) == "0.333333"
        assert decimal_str(F(-7, 4), 4) == "-1.7500"

    def test_scientific(self):
        assert sci_str(F(1, 10**31)) == "1.00e-31"
        assert sci_str(F(0)) == "0"
        assert sci_str(F(-250)) == "-2.50e+02"

    def test_scientific_matches_digit_count_reference(self):
        # the former formatter, which read the exponent off the digit
        # strings and so failed beyond 4300 digits
        def by_digit_count(q, sig=3):
            sign = "-" if q < 0 else ""
            n, d = abs(q.numerator), q.denominator
            exp = len(str(n)) - len(str(d))
            scaled = n * 10 ** (sig - exp) // d if exp <= sig else n // (d * 10 ** (exp - sig))
            while scaled >= 10**sig:
                scaled //= 10
                exp += 1
            digits = str(scaled)
            return f"{sign}{digits[0]}.{digits[1:]}e{exp - 1:+03d}"

        rng = random.Random(1234)
        values = [F(10**k) for k in range(-40, 41)] + [F(10**k - 1) for k in range(1, 40)]
        for _ in range(2000):
            num = rng.randrange(1, 10 ** rng.randint(1, 400)) * rng.choice((1, -1))
            values.append(F(num, rng.randrange(1, 10 ** rng.randint(1, 400))))
        for q in values:
            for sig in (1, 3, 5):
                assert sci_str(q, sig) == by_digit_count(q, sig), (q, sig)

    def test_scientific_beyond_string_conversion_limit(self):
        assert sci_str(F(3, 10**5000)) == "3.00e-5000"
        assert sci_str(F(-(10**5000) * 7, 3)) == "-2.33e+5000"


@pytest.mark.parametrize(
    "line, code, out",
    [
        ("b_0_1 = 1e-100000000", 1, "error: [perturbation] b_0_1: decimal exponent exceeds"),
        ("alpha1 = 1_0/30", 1, "error: [family] alpha1: not an exact rational: '1_0/30'"),
        ("b_0_1 = 1e-4300", 0, "status: ok"),
    ],
)
def test_oversized_numbers_exit_at_once(tmp_path, line, code, out):
    # b_0_1 = 1e-100000000 kept the parser building 10**100000000 until it
    # was killed; each spec runs in a fresh interpreter under a time limit
    key = line.split(" = ")[0]
    spec = tmp_path / "spec"
    spec.write_text(re.sub(rf"(?m)^{key} = .*$", line, BASIC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "melcert", "zeros", "--spec", str(spec)],
        capture_output=True, text=True, env=env, timeout=20,
    )
    assert proc.returncode == code, proc.stderr
    first, *rest = (proc.stdout + proc.stderr).splitlines()
    assert first.startswith(out)
    assert not (code and rest)  # an error is one line


@pytest.mark.parametrize(
    "command, key, flag",
    [
        ("sample-curve", "points", None),
        ("sample-curve", "points", "--points"),
        ("verify", "grid", None),
        ("scan", "samples", None),
        ("scan", "samples", "--samples"),
    ],
)
def test_oversized_settings_exit_at_once(tmp_path, command, key, flag):
    # grid, points and samples of 10**5 or more ran until they were
    # killed; one past the cap is refused before any work, from the spec
    # file or from the flag, so no oversized value is ever run here
    cap = SETTINGS[key][2]
    assert getattr(parse_spec(re.sub(rf"(?m)^{key} = .*$", f"{key} = {cap}", TWO_ZEROS)), key) == cap
    spec = tmp_path / "spec"
    if flag:
        spec.write_text(TWO_ZEROS)
        args, label = [flag, str(cap + 1)], flag
    else:
        spec.write_text(re.sub(rf"(?m)^{key} = .*$", f"{key} = {cap + 1}", TWO_ZEROS))
        args, label = [], f"[settings] {key}"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "melcert", command, "--spec", str(spec), *args],
        capture_output=True, text=True, env=env, timeout=20,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: {label}: {cap + 1} exceeds the limit {cap}\n"


class TestReports:
    def test_normal_form_golden(self, capsys):
        rc = main(["normal-form", "--spec", str(INSTANCES / "n2_basic.spec")])
        assert rc == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN / "n2_basic_normal_form.txt").read_text()

    def test_normal_form_json_mirror(self):
        spec = parse_spec(BASIC)
        report = report_normal_form(spec)
        blob = json.loads(json.dumps(report))
        assert blob["status"] == "ok"
        assert blob["rad1"] == ["16/5", "2/5"]
        assert blob["center_value"] == "0"

    def test_zeros_on_prescribed_instance(self):
        spec = parse_spec(TWO_ZEROS)
        report = report_zeros(spec)
        assert report["status"] == "ok"
        assert report["bound"] == 5
        assert report["count_lo"] == report["count_hi"] == 2

    def test_zeros_constant_sign(self):
        report = report_zeros(parse_spec(BASIC))
        assert report["count_lo"] == report["count_hi"] == 0

    def test_zeros_confluent_bound(self):
        report = report_zeros(parse_spec(CONFLUENT))
        assert report["bound"] == 3
        assert report["eliminant_var"] == "r"

    def test_normal_form_confluent_shows_forced_root(self):
        report = report_normal_form(parse_spec(CONFLUENT))
        assert report["status"] == "ok"
        assert report["pr_at_1"] == "0"
        assert report["term_count"] <= 6  # 2s+2 with s=2

    def test_verify_confluent_zero_free_matches(self, capsys):
        rc = main(
            [
                "verify",
                "--spec",
                str(INSTANCES / "confluent_n3.spec"),
                "--eps",
                "1/1000",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "verdict: match" in out
        assert "detected cycles: 0" in out

    def test_identically_zero_is_status_not_error(self, capsys):
        text = (
            "[family]\nalpha1 = 1/2\nalpha2 = -1/3\nm1 = 1\nm2 = 1\n"
            "[perturbation]\nn = 2\nb_0_0 = 1\n"  # parity makes this vanish
        )
        spec = parse_spec(text)
        report = report_zeros(spec)
        assert report["status"] == "identically_zero"

    def test_zero_perturbation_verify_reports_no_cycles(self):
        text = (
            "[family]\nalpha1 = 1/2\nalpha2 = -1/3\nm1 = 1\nm2 = 1\n"
            "[perturbation]\nn = 2\n\n[settings]\neps = 1/1000\n"
        )
        report = report_verify(parse_spec(text))
        assert report["status"] == "identically_zero"
        assert report["verdict"] == "zero-function"

    def test_verify_requires_eps(self):
        spec = parse_spec(BASIC)
        spec.eps = None
        with pytest.raises(SpecError, match="eps"):
            report_verify(spec)


class TestCommands:
    def test_verify_two_zero_instance_matches(self, capsys):
        rc = main(["verify", "--spec", str(INSTANCES / "two_zeros.spec")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verdict: match" in out

    def test_scan_deterministic_bytes(self, tmp_path):
        out1 = tmp_path / "scan1.csv"
        out2 = tmp_path / "scan2.csv"
        args = [
            "scan",
            "--spec",
            str(INSTANCES / "n2_basic.spec"),
            "--samples",
            "6",
            "--seed",
            "123",
            "--format",
            "csv",
        ]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_scan_rows_respect_bound(self, tmp_path):
        out = tmp_path / "scan.csv"
        rc = main(
            [
                "scan",
                "--spec",
                str(INSTANCES / "n2_basic.spec"),
                "--samples",
                "8",
                "--seed",
                "5",
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rows = out.read_text().strip().splitlines()
        header = rows[0].split(",")
        for line in rows[1:]:
            row = dict(zip(header, line.split(",")))
            if row["status"] == "ok":
                assert int(row["count_hi"]) <= int(row["bound"])

    def test_sample_curve_zero_instance_is_flat(self):
        text = (
            "[family]\nalpha1 = 1/2\nalpha2 = -1/3\nm1 = 1\nm2 = 1\n"
            "[perturbation]\nn = 2\n"
        )
        spec = parse_spec(text)
        csv = curve_csv(spec, 5)
        lines = csv.strip().splitlines()
        assert lines[0] == "# status: identically_zero"
        for line in lines[2:]:
            assert line.split(",")[1].strip("0.-") == ""

    @pytest.mark.parametrize(
        "alpha2, coeff",
        [("-1/3", ""), ("1/2", ""), ("-1/2", "a_0_0 = 1\n")],
        ids=["two_radical", "confluent", "mirror_cancelling"],
    )
    def test_sample_curve_zero_forms_print_exact_zeros(self, alpha2, coeff):
        text = f"[family]\nalpha1 = 1/2\nalpha2 = {alpha2}\nm1 = 1\nm2 = 1\n[perturbation]\nn = 2\n"
        lines = curve_csv(parse_spec(text + coeff), 4).strip().splitlines()
        assert lines[:2] == ["# status: identically_zero", "h,phi_mid,phi_width"]
        for line in lines[2:]:
            _h, mid, width = line.split(",")
            assert mid.strip("0.") == "" and width == "0"

    def test_sample_curve_matches_numeric_oracle(self):
        spec = parse_spec(BASIC)
        csv = curve_csv(spec, 8)
        lines = csv.strip().splitlines()[1:]
        for line in lines:
            h_str, mid_str, _w = line.split(",")
            h, mid = float(h_str), float(mid_str)
            oracle = numeric_melnikov(spec.family, spec.coeffs, h)
            assert abs(mid - oracle) <= 1e-9 * max(1.0, abs(oracle))

    def test_sample_curve_constant_sign_never_changes(self):
        spec = parse_spec(BASIC)
        csv = curve_csv(spec, 24)
        values = [float(line.split(",")[1]) for line in csv.strip().splitlines()[1:]]
        assert all(v > 0 for v in values) or all(v < 0 for v in values)

    def test_sample_curve_at_high_precision(self, capsys):
        # the enclosure widths here have numerators and denominators far
        # beyond 4300 decimal digits
        spec = str(INSTANCES / "n2_basic.spec")
        rc = main(["sample-curve", "--spec", spec, "--precision", "400", "--points", "2"])
        assert rc == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 2
        for row in rows:
            h, mid, width = row.split(",")
            assert len(mid.partition(".")[2]) == 400
            assert F(width.replace("e", "E")) <= F(1, 10**400)

    def test_precision_above_limit_exits_1(self, capsys):
        spec = str(INSTANCES / "n2_basic.spec")
        too_many = MAX_PRECISION + 1
        rc = main(["sample-curve", "--spec", spec, "--precision", str(too_many)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: --precision: {too_many} exceeds the limit {MAX_PRECISION}\n"

    def test_sample_curve_deterministic(self):
        spec = parse_spec(BASIC)
        assert curve_csv(spec, 12) == curve_csv(spec, 12)

    def test_verify_mismatch_exits_2(self, monkeypatch, capsys):
        # force a wrong detection result to exercise the exit-code contract
        from melcert.flow import CycleReport

        monkeypatch.setattr(
            "melcert.flow.find_limit_cycles",
            lambda fam, co, cfg, grid: CycleReport(),
        )
        rc = main(["verify", "--spec", str(INSTANCES / "two_zeros.spec")])
        assert rc == 2
        assert "mismatch" in capsys.readouterr().err

    def test_verify_scan_with_every_grid_point_failed_exits_2(self, tmp_path, capsys):
        # a huge a[0,0] throws every orbit onto the singular line: the
        # count is 0 and no cycle is detected, but nothing was checked
        big = "1" + "0" * 300
        spec = tmp_path / "huge.spec"
        spec.write_text(
            "[family]\nalpha1 = 1/2\nalpha2 = -1/3\nm1 = 1\nm2 = 1\n"
            f"[perturbation]\nn = 2\nbox = {big}\na_0_0 = {big}\nb_0_1 = 1\n"
        )
        assert main(["verify", "--spec", str(spec), "--eps", "1/1000"]) == 2
        captured = capsys.readouterr()
        assert "grid point 0 failed" in captured.out
        assert "verdict: mismatch" in captured.out

    def test_verify_failure_inside_the_grid_exits_2(self, monkeypatch, capsys):
        # a failed point below the last integrated one leaves a gap in the
        # scan; failures only next to h_max (confluent_n3) still match
        from melcert.flow import CycleReport

        monkeypatch.setattr(
            "melcert.flow.find_limit_cycles",
            lambda fam, co, cfg, grid: CycleReport(failures={3: "forced"}),
        )
        assert main(["verify", "--spec", str(INSTANCES / "n2_basic.spec")]) == 2
        assert "verdict: mismatch" in capsys.readouterr().out

    def test_scan_200_samples_within_budget(self, tmp_path):
        # contract: the basic n=2 configuration finishes 200 samples in
        # under five minutes; in practice it is a couple dozen seconds
        import time

        t0 = time.time()
        rc = main(
            [
                "scan",
                "--spec",
                str(INSTANCES / "n2_basic.spec"),
                "--samples",
                "200",
                "--seed",
                "77",
                "--format",
                "csv",
                "--out",
                str(tmp_path / "scan.csv"),
            ]
        )
        elapsed = time.time() - t0
        assert rc == 0
        assert elapsed < 300, f"scan took {elapsed:.0f}s"

    def test_bad_spec_path_exits_nonzero(self, capsys):
        rc = main(["zeros", "--spec", "/nonexistent.spec"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_spec_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.spec"
        bad.write_text("[family]\nalpha1 = 0\nalpha2 = 1\nm1 = 1\nm2 = 1\n[perturbation]\nn = 1\n")
        rc = main(["zeros", "--spec", str(bad)])
        assert rc == 1

    def test_oversized_spec_exits_1_with_message(self, tmp_path, capsys):
        big = tmp_path / "big.spec"
        big.write_text(
            "[family]\nalpha1 = 1/2\nalpha2 = -1/3\nm1 = 1000\nm2 = 1\n"
            "[perturbation]\nn = 2\na_0_0 = 1\n"
        )
        rc = main(["normal-form", "--spec", str(big)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [family] m1: ")
        assert "Traceback" not in err

    def test_mirror_parts_that_cancel_are_the_zero_function(self, tmp_path, capsys):
        # alpha2 = -alpha1 with an integrand odd in x: rad1 = 2 and rad2 = -2
        # over the one shared radical, so the sum vanishes identically
        spec = tmp_path / "mirror.spec"
        spec.write_text(
            "[family]\nalpha1 = 1/2\nalpha2 = -1/2\nm1 = 1\nm2 = 1\n"
            "[perturbation]\nn = 2\na_0_0 = 1\n"
        )
        assert main(["zeros", "--spec", str(spec), "--format", "json"]) == 0
        zeros = json.loads(capsys.readouterr().out)
        assert zeros["status"] == "identically_zero"
        assert main(["verify", "--spec", str(spec), "--eps", "1/1000", "--format", "json"]) == 0
        verify = json.loads(capsys.readouterr().out)
        assert (verify["verdict"], verify["cycles"]) == ("zero-function", [])

    def test_unparsable_eps_exits_nonzero(self, capsys):
        rc = main(
            ["verify", "--spec", str(INSTANCES / "two_zeros.spec"), "--eps", "1/0"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--eps" in err
        assert "Traceback" not in err

    @staticmethod
    def _no_integration(monkeypatch):
        def fail(*_args, **_kwargs):
            raise AssertionError("the flow ran")

        monkeypatch.setattr("melcert.flow.find_limit_cycles", fail)

    @pytest.mark.parametrize("eps", ["1e400", "-1e400", "1e-400"])
    def test_eps_without_a_double_exits_1_from_the_spec(self, eps, tmp_path, capsys, monkeypatch):
        # overflow, and underflow to eps = 0.0, end before any integration
        self._no_integration(monkeypatch)
        spec = tmp_path / "eps.spec"
        spec.write_text(TWO_ZEROS.replace("eps = 1/1000", f"eps = {eps}"))
        assert main(["verify", "--spec", str(spec)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: eps ") and "double" in captured.err
        assert captured.out == ""
        # the commands that do not use eps are unaffected
        assert main(["zeros", "--spec", str(spec)]) == 0
        assert "certified count: [2, 2]" in capsys.readouterr().out

    @pytest.mark.parametrize("alpha", ["1e-400", "1e400"])
    def test_h_max_without_a_double_exits_1(self, alpha, tmp_path, capsys, monkeypatch):
        # h_max = 1/alpha**2 overflows a double at 1e-400 and underflows to
        # 0.0 at 1e400: the error names h_max, not the grid
        self._no_integration(monkeypatch)
        spec = tmp_path / "h_max.spec"
        spec.write_text(
            TWO_ZEROS.replace("alpha1 = 1/2", f"alpha1 = {alpha}").replace(
                "alpha2 = -1/3", f"alpha2 = -{alpha}"
            )
        )
        assert main(["verify", "--spec", str(spec)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: h_max ") and "double" in captured.err
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == ""
        # the exact commands do not use its double
        assert main(["zeros", "--spec", str(spec)]) == 0

    @pytest.mark.parametrize("eps", ["1e400", "1e-400", "1e-310"])
    def test_eps_without_a_double_exits_1_from_the_flag(self, eps, capsys, monkeypatch):
        self._no_integration(monkeypatch)
        rc = main(["verify", "--spec", str(INSTANCES / "two_zeros.spec"), "--eps", eps])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: eps ") and "double" in err

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("a_0_0 = 1\n", "a_0_0 = 1%\n", "[perturbation] a_0_0: not an exact rational: '1%'"),
            ("a_0_0 = 1\n", "a_0_0 = %(n)s\n",
             "[perturbation] a_0_0: not an exact rational: '%(n)s'"),
            ("[family]", "[DEFAULT]\nseed = 4\n\n[family]",
             "[DEFAULT]: not a section of a spec file"),
        ],
    )
    def test_spec_values_are_read_as_written(self, old, new, message, tmp_path, capsys):
        # no %-interpolation, and no [DEFAULT] keys copied into the sections
        spec = tmp_path / "raw.spec"
        spec.write_text(BASIC.replace(old, new, 1))
        assert main(["zeros", "--spec", str(spec)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("m2 = 1\n", "m2 = 1\nmm2 = 5\n",
             "[family] mm2: expected alpha1, alpha2, m1 or m2"),
            ("[perturbation]", "[setting]\neps = 5\nprecision = 3\n\n[perturbation]",
             "[setting]: not a section of a spec file"),
            ("[family]", "[Family]\nm1 = 2\n\n[family]",
             "[Family]: not a section of a spec file"),
        ],
        ids=["family key", "settings misspelt", "section case"],
    )
    def test_misspelt_section_or_family_key_exits_1(self, old, new, message, tmp_path, capsys):
        # a line the parser would otherwise ignore ends in an error, never
        # in a count that silently left it out
        spec = tmp_path / "misspelt.spec"
        spec.write_text(BASIC.replace(old, new, 1))
        assert main(["zeros", "--spec", str(spec)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_coefficient_without_a_double_exits_1_in_verify(self, tmp_path, capsys):
        big = "1" + "0" * 400
        spec = tmp_path / "huge.spec"
        spec.write_text(
            "[family]\nalpha1 = 1/2\nalpha2 = -1/3\nm1 = 1\nm2 = 1\n"
            f"[perturbation]\nn = 2\nbox = {big}\na_0_0 = -{big}\nb_0_1 = 1\n"
        )
        assert main(["verify", "--spec", str(spec), "--eps", "1/1000"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: coefficient a[0,0] is beyond the range of a double\n"
        assert captured.out == ""

    def test_orbits_beyond_the_doubles_exit_1_in_verify(self, tmp_path, capsys):
        # h_max = 1e300 is a double, but x*P overflows on every grid orbit
        spec = tmp_path / "overflow.spec"
        spec.write_text(
            "[family]\nalpha1 = 1e-150\nalpha2 = -1e-150\nm1 = 1\nm2 = 1\n"
            "[perturbation]\nn = 2\na_0_0 = 1\na_2_0 = -1/3\nb_0_1 = 1/5\n"
            "[settings]\neps = 1/1000\n"
        )
        assert main(["verify", "--spec", str(spec)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: every grid orbit leaves the range of a double (h_max = 1e+300): "
            "verify cannot integrate a section return\n"
        )
        assert captured.out == ""

    def test_epsilon_near_the_double_floor_verifies(self, capsys):
        # the integrator's error sums are O(eps) and their squares underflow
        spec = str(INSTANCES / "n2_basic.spec")
        assert main(["verify", "--spec", spec, "--eps", "1e-200"]) == 0
        captured = capsys.readouterr()
        assert "verdict: match" in captured.out
        assert captured.err == ""

    def test_misspelt_setting_exits_1(self, tmp_path, capsys):
        spec = tmp_path / "misspelt.spec"
        spec.write_text(BASIC.replace("precision = 30", "precison = 3"))
        assert main(["sample-curve", "--spec", str(spec)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: [settings] precison: unknown setting\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["zeros", "scan"])
    def test_unwritable_out_exits_1_with_message(self, command, tmp_path, capsys):
        target = tmp_path / "missing" / "out.txt"
        rc = main([command, "--spec", str(INSTANCES / "n2_basic.spec"), "--out", str(target)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {target}: ")
        assert "Traceback" not in captured.err
        # scan's stdout summary follows a successful write only
        assert captured.out == ""
        assert not target.parent.exists()


# one bad value per setting a command takes as a flag
BAD_VALUES = {
    "eps": "0",
    "precision": str(MAX_PRECISION + 1),
    "points": "1",
    "seed": "x",
    "samples": "0",
}
FLAGS = {
    "normal-form": ((), ("text", "json")),
    "zeros": (("precision",), ("text", "json")),
    "verify": (("eps",), ("text", "json")),
    "scan": (("samples", "seed"), ("csv", "text", "json")),
    "sample-curve": (("points", "precision"), None),
}


class TestSettingFlags:
    @pytest.mark.parametrize(
        "command, key", [(c, k) for c, (keys, _fmt) in FLAGS.items() for k in keys]
    )
    def test_flag_and_spec_key_give_one_message(self, command, key, tmp_path, capsys):
        bad = BAD_VALUES[key]
        spec = tmp_path / "bad.spec"
        spec.write_text(re.sub(rf"^{key} = .*$", f"{key} = {bad}", BASIC, flags=re.M))
        assert main([command, "--spec", str(spec)]) == 1
        from_spec = capsys.readouterr()
        basic = str(INSTANCES / "n2_basic.spec")
        assert main([command, "--spec", basic, f"--{key}", bad]) == 1
        from_flag = capsys.readouterr()
        assert from_spec.err.startswith(f"error: [settings] {key}: ")
        assert from_flag.err == from_spec.err.replace(f"[settings] {key}", f"--{key}")
        assert from_spec.out == from_flag.out == ""

    def test_each_command_has_its_flags_and_formats(self):
        commands = build_parser()._subparsers._group_actions[0].choices
        assert set(commands) == set(FLAGS)
        for name, (keys, formats) in FLAGS.items():
            actions = {a.dest: a for a in commands[name]._actions if a.dest != "help"}
            assert set(actions) == {"spec", "out", *keys, *(("format",) if formats else ())}
            if formats:
                assert tuple(actions["format"].choices) == formats
