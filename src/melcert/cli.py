"""Command-line front end: parse instance files, run the pipeline, report.

Instance files are flat key-value text with three sections::

    [family]
    alpha1 = 1/2        # rationals as p/q or exact decimal strings
    alpha2 = -1/3
    m1 = 1
    m2 = 1

    [perturbation]
    n = 2
    box = 1
    a_0_0 = 1           # a_i_j / b_i_j, zero when omitted
    b_0_1 = -0.25

    [settings]          # optional defaults for the commands
    eps = 1/1000
    precision = 30
    points = 200
    grid = 40
    seed = 1
    samples = 20

Subcommands: normal-form, zeros, verify, scan, sample-curve.  Every report
has a JSON mirror (--format json); scan and sample-curve emit CSV rows.
Exit status is nonzero exactly for validation errors, verification
mismatches, or internal failures.
"""

from __future__ import annotations

import argparse
import configparser
import io
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .flow import FlowConfig, FlowError, QuadratureError, find_limit_cycles
from .melnikov import (
    ConfluentNormalForm,
    PerturbCoeffs,
    SystemFamily,
    assemble,
    evaluate_normal_form,
)
from .polynomials import format_poly
from .sampling import draw_coeffs, rng_for
from .zeros import count_zeros, theorem_bound


# Largest accepted exponents and perturbation degree.  Assembly time grows
# steeply with both (normal-form on a 2-core Xeon, Python 3.11: 0.25 s at
# m1 = m2 = 16, 1 s at n = 32 with a full grid, 2.3 s at both), so larger
# specs are refused up front instead of running for minutes.
MAX_M = 16
MAX_N = 32
# Largest accepted digit count: one sample-curve point takes about 0.1 s at
# 1000 digits and about 1.6 s at 4000 (same machine).
MAX_PRECISION = 1000


class SpecError(ValueError):
    """Instance file failed to parse or validate."""


_COEFF_KEY = re.compile(r"^([ab])_(\d+)_(\d+)$")


@dataclass
class InstanceSpec:
    family: SystemFamily
    coeffs: PerturbCoeffs
    eps: Fraction = None
    precision: int = 30
    points: int = 200
    grid: int = 40
    seed: int = 0
    samples: int = 20


def _rational(section: str, key: str, raw: str) -> Fraction:
    try:
        return Fraction(raw.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecError(f"[{section}] {key}: not an exact rational: {raw!r}") from exc


def _integer(section: str, key: str, raw: str) -> int:
    try:
        return int(raw.strip())
    except ValueError as exc:
        raise SpecError(f"[{section}] {key}: not an integer: {raw!r}") from exc


def _at_most(section: str, key: str, raw: str, limit: int) -> int:
    value = _integer(section, key, raw)
    if value > limit:
        raise SpecError(f"[{section}] {key}: {value} exceeds the limit {limit}")
    return value


def parse_spec(text: str) -> InstanceSpec:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise SpecError(f"spec file is not valid key-value text: {exc}") from exc

    for required in ("family", "perturbation"):
        if not parser.has_section(required):
            raise SpecError(f"missing [{required}] section")
    fam_sec = parser["family"]
    for key in ("alpha1", "alpha2", "m1", "m2"):
        if key not in fam_sec:
            raise SpecError(f"[family] {key}: missing")
    alphas = [_rational("family", key, fam_sec[key]) for key in ("alpha1", "alpha2")]
    ms = [_at_most("family", key, fam_sec[key], MAX_M) for key in ("m1", "m2")]
    try:
        family = SystemFamily(*alphas, *ms)
    except ValueError as exc:
        raise SpecError(f"[family] invalid: {exc}") from exc

    pert = parser["perturbation"]
    if "n" not in pert:
        raise SpecError("[perturbation] n: missing")
    n = _at_most("perturbation", "n", pert["n"], MAX_N)
    box = _rational("perturbation", "box", pert.get("box", "1"))
    a, b = {}, {}
    for key, raw in pert.items():
        if key in ("n", "box"):
            continue
        match = _COEFF_KEY.match(key)
        if not match:
            raise SpecError(f"[perturbation] {key}: expected a_i_j or b_i_j")
        kind, i, j = match.group(1), int(match.group(2)), int(match.group(3))
        (a if kind == "a" else b)[(i, j)] = _rational("perturbation", key, raw)
    try:
        coeffs = PerturbCoeffs(n=n, a=a, b=b, box=box)
    except ValueError as exc:
        raise SpecError(f"[perturbation] invalid: {exc}") from exc

    spec = InstanceSpec(family=family, coeffs=coeffs)
    if parser.has_section("settings"):
        st = parser["settings"]
        if "eps" in st:
            spec.eps = _rational("settings", "eps", st["eps"])
            if spec.eps == 0:
                raise SpecError("[settings] eps: must be nonzero")
        for key in ("points", "grid", "seed", "samples"):
            if key in st:
                setattr(spec, key, _integer("settings", key, st[key]))
        if "precision" in st:
            spec.precision = _at_most("settings", "precision", st["precision"], MAX_PRECISION)
        for key in ("precision", "points", "grid"):
            if getattr(spec, key) < 1:
                raise SpecError(f"[settings] {key}: must be >= 1")
    return spec


def serialize_spec(spec: InstanceSpec) -> str:
    out = io.StringIO()
    fam = spec.family
    out.write("[family]\n")
    out.write(f"alpha1 = {fam.alpha1}\n")
    out.write(f"alpha2 = {fam.alpha2}\n")
    out.write(f"m1 = {fam.m1}\n")
    out.write(f"m2 = {fam.m2}\n\n")
    out.write("[perturbation]\n")
    out.write(f"n = {spec.coeffs.n}\n")
    out.write(f"box = {spec.coeffs.box}\n")
    for kind, grid in (("a", spec.coeffs.a), ("b", spec.coeffs.b)):
        for (i, j) in sorted(grid):
            out.write(f"{kind}_{i}_{j} = {grid[(i, j)]}\n")
    out.write("\n[settings]\n")
    if spec.eps is not None:
        out.write(f"eps = {spec.eps}\n")
    out.write(f"precision = {spec.precision}\n")
    out.write(f"points = {spec.points}\n")
    out.write(f"grid = {spec.grid}\n")
    out.write(f"seed = {spec.seed}\n")
    out.write(f"samples = {spec.samples}\n")
    return out.getvalue()


def decimal_str(q: Fraction, digits: int) -> str:
    """Exact decimal expansion truncated toward zero at `digits` places."""
    sign = "-" if q < 0 else ""
    n, d = abs(q.numerator), q.denominator
    ip, rem = divmod(n, d)
    frac = (rem * 10**digits) // d
    return f"{sign}{ip}.{str(frac).zfill(digits)}"


def _at_least_power(n: int, d: int, e: int) -> bool:
    """n/d >= 10**e for positive n, d."""
    return n >= d * 10**e if e >= 0 else n * 10**-e >= d


def sci_str(q: Fraction, sig: int = 3) -> str:
    """Exact scientific notation with `sig` significant digits, truncated.

    The decimal exponent comes from integer comparisons, never from the
    digit strings, so numerators and denominators of any size format.
    """
    if q == 0:
        return "0"
    sign = "-" if q < 0 else ""
    n, d = abs(q.numerator), q.denominator
    # floor(log10(n/d)): the bit lengths give it to within one
    exp = (n.bit_length() - d.bit_length()) * 30103 // 100000
    while not _at_least_power(n, d, exp):
        exp -= 1
    while _at_least_power(n, d, exp + 1):
        exp += 1
    shift = sig - 1 - exp
    scaled = n * 10**shift // d if shift >= 0 else n // (d * 10**-shift)
    digits = str(scaled)
    return f"{sign}{digits[0]}.{digits[1:]}e{exp:+03d}"


def _family_dict(family: SystemFamily) -> dict:
    return {
        "alpha1": str(family.alpha1),
        "alpha2": str(family.alpha2),
        "m1": family.m1,
        "m2": family.m2,
        "h_max": str(family.h_max),
    }


def _poly_strings(p) -> list:
    return [str(c) for c in p.coeffs]


def report_normal_form(spec: InstanceSpec) -> dict:
    nf = assemble(spec.family, spec.coeffs)
    fam = spec.family
    report = {
        "command": "normal-form",
        "family": _family_dict(fam),
        "n": spec.coeffs.n,
        "confluent": fam.is_confluent,
        "pi_factor": "all polynomial values carry one global factor pi",
    }
    if nf.is_zero:
        report["status"] = "identically_zero"
        return report
    report["status"] = "ok"
    if isinstance(nf, ConfluentNormalForm):
        report["m"] = nf.m
        report["pr"] = _poly_strings(nf.pr)
        report["pr_text"] = format_poly(nf.pr, "r")
        report["pr_degree"] = nf.pr.degree
        report["pr_at_1"] = str(nf.pr.eval(1))
        report["term_count"] = sum(1 for c in nf.pr.coeffs if c != 0)
    else:
        report["merged"] = nf.merged
        report["rad1"] = _poly_strings(nf.rad1)
        report["rad2"] = _poly_strings(nf.rad2)
        report["tail"] = _poly_strings(nf.tail)
        report["rad1_text"] = format_poly(nf.rad1, "h")
        report["rad2_text"] = format_poly(nf.rad2, "h")
        report["tail_text"] = format_poly(nf.tail, "h")
        report["degrees"] = {
            "rad1": nf.rad1.degree,
            "rad2": nf.rad2.degree,
            "tail": nf.tail.degree,
        }
        report["center_value"] = str(nf.center_value())
    return report


def render_normal_form(report: dict) -> str:
    fam = report["family"]
    lines = [
        f"status: {report['status']}",
        (
            "family: alpha1={alpha1} alpha2={alpha2} m1={m1} m2={m2}".format(**fam)
        ),
        f"h_max: {fam['h_max']}",
        f"n: {report['n']}",
        f"confluent: {'yes' if report['confluent'] else 'no'}",
        f"note: {report['pi_factor']}",
    ]
    if report["status"] == "identically_zero":
        lines.append("the assembled function is identically zero")
        return "\n".join(lines) + "\n"
    if report["confluent"]:
        lines += [
            f"single radical form: pr(r) / r^{2 * report['m'] - 1},"
            f" r = sqrt(1 - alpha^2*h)",
            f"pr(r) = {report['pr_text']}",
            f"pr degree: {report['pr_degree']}",
            f"pr(1) = {report['pr_at_1']}",
            f"nonzero terms: {report['term_count']}",
        ]
    else:
        m1, m2 = fam["m1"], fam["m2"]
        lines += [
            f"merged: {'yes' if report['merged'] else 'no'}",
            f"radical part 1: ({report['rad1_text']}) / r1^{2 * m1 - 1}",
            f"radical part 2: ({report['rad2_text']}) / r2^{2 * m2 - 1}",
            f"polynomial part: {report['tail_text']}",
            "degrees: rad1={rad1} rad2={rad2} tail={tail}".format(
                **report["degrees"]
            ),
            f"value at h=0: {report['center_value']}",
        ]
    return "\n".join(lines) + "\n"


def report_zeros(spec: InstanceSpec) -> dict:
    nf = assemble(spec.family, spec.coeffs)
    zr = count_zeros(nf, n=spec.coeffs.n)
    digits = min(spec.precision, 15)
    report = {
        "command": "zeros",
        "family": _family_dict(spec.family),
        "n": spec.coeffs.n,
        "status": zr.status,
        "bound": zr.theorem_bound if zr.theorem_bound is not None else "not applicable",
    }
    if zr.status != "ok":
        return report
    report.update(
        {
            "eliminant_degree": zr.eliminant_degree,
            "eliminant_var": zr.eliminant_var,
            "count_lo": zr.count_lo,
            "count_hi": zr.count_hi,
            "multiplicity_suspected": zr.multiplicity_suspected,
            "zeros": [
                {
                    "lo": str(z.interval.lo),
                    "hi": str(z.interval.hi),
                    "lo_dec": decimal_str(z.interval.lo, digits),
                    "hi_dec": decimal_str(z.interval.hi, digits),
                    "sign_verified": z.sign_verified,
                }
                for z in zr.certified
            ],
            "undecided": [
                {"lo": str(r.lo), "hi": str(r.hi)} for r in zr.undecided
            ],
        }
    )
    return report


def render_zeros(report: dict) -> str:
    lines = [
        f"status: {report['status']}",
        f"bound: {report['bound']}",
    ]
    if report["status"] != "ok":
        lines.append("zero counting skipped: the function is identically zero")
        return "\n".join(lines) + "\n"
    lines += [
        f"eliminant degree: {report['eliminant_degree']}"
        f" (variable {report['eliminant_var']})",
        f"certified count: [{report['count_lo']}, {report['count_hi']}]",
        f"multiplicity suspected: {'yes' if report['multiplicity_suspected'] else 'no'}",
    ]
    if report["zeros"]:
        lines.append("zeros:")
        for idx, z in enumerate(report["zeros"], start=1):
            tag = "sign-verified" if z["sign_verified"] else "unverified"
            lines.append(f"  {idx}: [{z['lo_dec']}, {z['hi_dec']}] {tag}")
    else:
        lines.append("zeros: none")
    for r in report["undecided"]:
        lines.append(f"  undecided candidate in [{r['lo']}, {r['hi']}]")
    return "\n".join(lines) + "\n"


def report_verify(spec: InstanceSpec) -> dict:
    if spec.eps is None:
        raise SpecError("verify needs eps (set [settings] eps or pass --eps)")
    # the flow runs in doubles: an eps that overflows, or falls below the
    # normal range (to 0.0 at the worst), has no usable value there
    try:
        eps = float(spec.eps)
    except OverflowError:
        eps = 0.0
    if abs(eps) < sys.float_info.min:
        raise SpecError(f"eps {sci_str(spec.eps)} is outside the normal range of a double")
    fam = spec.family
    nf = assemble(fam, spec.coeffs)
    zr = count_zeros(nf, n=spec.coeffs.n)
    report = {
        "command": "verify",
        "family": _family_dict(fam),
        "status": zr.status,
    }
    if zr.status != "ok":
        report["verdict"] = "zero-function"
        report["cycles"] = []
        return report
    h_max = float(fam.h_max)
    margin = 0.05 * h_max
    grid_n = max(spec.grid, 8)
    grid = [margin + (h_max - 2 * margin) * i / (grid_n - 1) for i in range(grid_n)]
    tolerance = 5e-3 * h_max

    attempts = []
    for attempt in range(2):  # one halving retry
        cycles = find_limit_cycles(
            fam, spec.coeffs, FlowConfig(epsilon=eps), grid
        )
        rows, used = [], set()
        matched = 0
        for z in zr.certified:
            lo, hi = float(z.interval.lo), float(z.interval.hi)
            best = None
            for idx, c in enumerate(cycles.cycles):
                if idx in used:
                    continue
                dist = max(lo - c.h_label, c.h_label - hi, 0.0)
                if dist <= tolerance and (best is None or dist < best[0]):
                    best = (dist, idx)
            if best is None:
                rows.append({"zero": [lo, hi], "cycle": None, "match": False})
            else:
                used.add(best[1])
                cyc = cycles.cycles[best[1]]
                rows.append(
                    {
                        "zero": [lo, hi],
                        "cycle": cyc.h_label,
                        "stability": cyc.stability,
                        "match": True,
                    }
                )
                matched += 1
        extra = [
            {"zero": None, "cycle": c.h_label, "stability": c.stability, "match": False}
            for idx, c in enumerate(cycles.cycles)
            if idx not in used
        ]
        ok = (
            zr.decided
            and matched == zr.count_lo
            and len(cycles.cycles) == zr.count_lo
        )
        attempts.append(
            {
                "epsilon": eps,
                "rows": rows + extra,
                "detected": len(cycles.cycles),
                "failures": {str(k): v for k, v in cycles.failures.items()},
                "ok": ok,
            }
        )
        if ok:
            break
        eps /= 2
    final = attempts[-1]
    report.update(
        {
            "count_lo": zr.count_lo,
            "count_hi": zr.count_hi,
            "attempts": attempts,
            "epsilon": final["epsilon"],
            "detected_cycles": final["detected"],
            "verdict": "match" if final["ok"] else "mismatch",
        }
    )
    return report


def render_verify(report: dict) -> str:
    lines = [f"status: {report['status']}"]
    if report["status"] != "ok":
        lines.append("verdict: zero-function (no cycles expected)")
        return "\n".join(lines) + "\n"
    lines += [
        f"certified count: [{report['count_lo']}, {report['count_hi']}]",
        f"detected cycles: {report['detected_cycles']} at eps={report['epsilon']:g}",
        "zero interval            cycle label      stability    match",
    ]
    final = report["attempts"][-1]
    for row in final["rows"]:
        zero = (
            f"[{row['zero'][0]:.6f}, {row['zero'][1]:.6f}]"
            if row["zero"]
            else "(none)".ljust(20)
        )
        cyc = f"{row['cycle']:.6f}" if row["cycle"] is not None else "(none)"
        stab = row.get("stability", "-")
        lines.append(
            f"{zero:<24} {cyc:<16} {stab:<12} {'yes' if row['match'] else 'NO'}"
        )
    for idx, msg in final["failures"].items():
        lines.append(f"grid point {idx} failed: {msg}")
    lines.append(f"verdict: {report['verdict']}")
    return "\n".join(lines) + "\n"


def scan_rows(spec: InstanceSpec, samples: int, seed: int):
    """One row per coefficient sample drawn from the box, seed-deterministic."""
    fam = spec.family
    n = spec.coeffs.n
    bound = theorem_bound(fam, n)
    for index in range(samples):
        coeffs = draw_coeffs(rng_for(seed, index), n, spec.coeffs.box)
        nf = assemble(fam, coeffs)
        zr = count_zeros(nf, n=n)
        if zr.status != "ok":
            yield {
                "sample": index,
                "status": zr.status,
                "count_lo": "",
                "count_hi": "",
                "bound": bound if bound is not None else "",
                "eliminant_degree": "",
            }
        else:
            yield {
                "sample": index,
                "status": "ok",
                "count_lo": zr.count_lo,
                "count_hi": zr.count_hi,
                "bound": bound if bound is not None else "",
                "eliminant_degree": zr.eliminant_degree,
            }


SCAN_FIELDS = ("sample", "status", "count_lo", "count_hi", "bound", "eliminant_degree")


def report_scan(spec: InstanceSpec, samples: int, seed: int) -> dict:
    rows = list(scan_rows(spec, samples, seed))
    counted = [r for r in rows if r["status"] == "ok"]
    max_hi = max((r["count_hi"] for r in counted), default=0)
    bound = theorem_bound(spec.family, spec.coeffs.n)
    violations = [
        r["sample"] for r in counted if bound is not None and r["count_hi"] > bound
    ]
    return {
        "command": "scan",
        "family": _family_dict(spec.family),
        "n": spec.coeffs.n,
        "box": str(spec.coeffs.box),
        "samples": samples,
        "seed": seed,
        "bound": bound if bound is not None else "not applicable",
        "max_count_hi": max_hi,
        "violations": violations,
        "rows": rows,
    }


def scan_csv(report: dict) -> str:
    lines = [",".join(SCAN_FIELDS)]
    for row in report["rows"]:
        lines.append(",".join(str(row[k]) for k in SCAN_FIELDS))
    return "\n".join(lines) + "\n"


def render_scan(report: dict) -> str:
    lines = [
        f"samples: {report['samples']} (seed {report['seed']})",
        f"bound: {report['bound']}",
        f"max count_hi observed: {report['max_count_hi']}",
        f"bound violations: {len(report['violations'])}",
    ]
    return "\n".join(lines) + "\n"


def sample_curve_csv(spec: InstanceSpec, points: int) -> str:
    if points < 2:
        raise SpecError("sample-curve needs points >= 2")
    fam = spec.family
    nf = assemble(fam, spec.coeffs)
    digits = spec.precision
    top = fam.h_max * (1 - Fraction(1, 1000))
    lines = []
    if nf.is_zero:
        lines.append("# status: identically_zero")
    lines.append("h,phi_mid,phi_width")
    for i in range(1, points + 1):
        h = top * i / points
        if nf.is_zero:
            mid, width = Fraction(0), Fraction(0)
        else:
            enc = evaluate_normal_form(nf, h, precision=digits)
            mid, width = enc.mid, enc.width
        lines.append(
            f"{decimal_str(h, digits)},{decimal_str(mid, digits)},{sci_str(width)}"
        )
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path):
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise SpecError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _load_spec(args) -> InstanceSpec:
    try:
        with open(args.spec) as fh:
            spec = parse_spec(fh.read())
    except OSError as exc:
        raise SpecError(f"cannot read spec file: {exc}") from exc
    if getattr(args, "eps", None) is not None:
        spec.eps = _rational("command line", "--eps", args.eps)
        if spec.eps == 0:
            raise SpecError("--eps must be nonzero")
    if getattr(args, "precision", None) is not None:
        if args.precision < 1:
            raise SpecError("--precision must be >= 1")
        if args.precision > MAX_PRECISION:
            raise SpecError(f"--precision: {args.precision} exceeds the limit {MAX_PRECISION}")
        spec.precision = args.precision
    if getattr(args, "points", None) is not None:
        spec.points = args.points
    if getattr(args, "seed", None) is not None:
        spec.seed = args.seed
    if getattr(args, "samples", None) is not None:
        spec.samples = args.samples
    return spec


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="melcert",
        description="exact averaged-integral normal forms and certified zero counts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt=("text", "json")):
        p.add_argument("--spec", required=True, help="instance file")
        p.add_argument("--out", default=None, help="write output to this path")
        p.add_argument("--format", choices=fmt, default=fmt[0])

    p_nf = sub.add_parser("normal-form", help="print the exact normal form")
    common(p_nf)

    p_z = sub.add_parser("zeros", help="certified zero count and intervals")
    common(p_z)
    p_z.add_argument("--precision", type=int, default=None)

    p_v = sub.add_parser("verify", help="compare certified zeros with detected cycles")
    common(p_v)
    p_v.add_argument("--eps", default=None, help="perturbation size (rational)")

    p_s = sub.add_parser("scan", help="random coefficient samples vs the bound")
    common(p_s, fmt=("csv", "text", "json"))
    p_s.add_argument("--samples", type=int, default=None)
    p_s.add_argument("--seed", type=int, default=None)

    p_c = sub.add_parser("sample-curve", help="certified curve values as CSV")
    p_c.add_argument("--spec", required=True)
    p_c.add_argument("--out", default=None)
    p_c.add_argument("--points", type=int, default=None)
    p_c.add_argument("--precision", type=int, default=None)
    return parser


# command -> (report builder, text renderer); --format json dumps the report
REPORTS = {
    "normal-form": (report_normal_form, render_normal_form),
    "zeros": (report_zeros, render_zeros),
    "verify": (report_verify, render_verify),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = _load_spec(args)
        if args.command in REPORTS:
            build, render = REPORTS[args.command]
            report = build(spec)
            text = (
                json.dumps(report, indent=2) + "\n"
                if args.format == "json"
                else render(report)
            )
            _emit(text, args.out)
            if report.get("verdict") == "mismatch":
                print("verification mismatch", file=sys.stderr)
                return 2
        elif args.command == "scan":
            if spec.samples < 1:
                raise SpecError("scan needs samples >= 1")
            report = report_scan(spec, spec.samples, spec.seed)
            if args.format == "json":
                text = json.dumps(report, indent=2) + "\n"
            elif args.format == "text":
                text = render_scan(report)
            else:
                text = scan_csv(report)
            _emit(text, args.out)
            if args.out and args.format != "text":
                sys.stdout.write(render_scan(report))
        elif args.command == "sample-curve":
            text = sample_curve_csv(spec, spec.points)
            _emit(text, args.out)
    except (ValueError, FlowError, QuadratureError) as exc:  # SpecError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
