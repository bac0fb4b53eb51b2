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

Values are read as written: `%` is not interpolated.  Any other section,
[DEFAULT] included (it is not copied into the others), and any other
[family] key is rejected.

Subcommands: normal-form, zeros, verify, scan, sample-curve, all run from
the one table `COMMANDS`.  Every report but sample-curve's has a JSON mirror
(--format json); scan and sample-curve emit CSV rows.  A setting given as a
flag (zeros --precision, verify --eps, scan --samples/--seed, sample-curve
--points/--precision) is checked exactly like the same [settings] key, by
the one table `SETTINGS`; an unknown setting is rejected.  Exit status is 1
for an error (a bad spec, setting or flag value, or an unwritable --out),
2 for a verification mismatch, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import configparser
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .flow import BEYOND_DOUBLES, FlowConfig, find_limit_cycles
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


# Largest accepted exponents and perturbation degree.  At both caps, with a
# full grid and alphas 1/2, -1/3, a whole normal-form process takes 0.06 s
# and zeros 0.08 s (2 vCPUs, Python 3.11, import included), but the zero
# count grows steeply past them: count_zeros alone takes 76 s on a drawn
# form at m1 = m2 = 32, n = 64.  Larger specs are refused up front instead
# of running for minutes.
MAX_M = 16
MAX_N = 32
# Largest accepted digit count: one sample-curve point takes about 0.1 s at
# 1000 digits and about 1.6 s at 4000 (same machine).
MAX_PRECISION = 1000


class SpecError(ValueError):
    """Instance file failed to parse or validate."""


# the sections of a spec file and the keys of its [family]: any other is
# rejected, so a misspelt one cannot pass unnoticed
SECTIONS = ("family", "perturbation", "settings")
FAMILY_KEYS = ("alpha1", "alpha2", "m1", "m2")

# canonical indices only: a_00_0 would silently replace a_0_0
_COEFF_KEY = re.compile(r"^([ab])_(0|[1-9][0-9]*)_(0|[1-9][0-9]*)$")


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


# the digits of a decimal exponent, less its leading zeros, for `_value`
_EXPONENT = re.compile(r"[eE][-+]?0*(\d+)")

# setting -> (kind, least, most) for `_value`
SETTINGS = {
    "eps": ("nonzero", None, None),
    "precision": ("integer", 1, MAX_PRECISION),
    "points": ("integer", 2, None),
    "grid": ("integer", 8, None),
    "seed": ("integer", None, None),
    "samples": ("integer", 1, None),
}


def _value(label: str, raw: str, kind: str, least=None, most=None):
    """One spec or flag value: an "integer", a "rational" or a "nonzero"
    rational, within the inclusive bounds that are not None.

    Underscores are refused, since `Fraction` takes them only from Python
    3.11 on, and so is a decimal exponent above the interpreter's digit
    limit, `sys.get_int_max_str_digits()`, which already refuses a number
    written out that long: `Fraction` would build 10**exponent first.  A
    disabled limit (0) bounds neither.
    """
    text = raw.strip()
    what = "an integer" if kind == "integer" else "an exact rational"
    if "_" in text:
        raise SpecError(f"{label}: not {what}: {raw!r}")
    exponent, limit = _EXPONENT.search(text), sys.get_int_max_str_digits()
    if exponent and limit and (len(exponent[1]) > len(str(limit)) or int(exponent[1]) > limit):
        raise SpecError(f"{label}: decimal exponent exceeds the limit {limit}: {raw!r}")
    try:
        value = int(text) if kind == "integer" else Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecError(f"{label}: not {what}: {raw!r}") from exc
    if kind == "nonzero" and value == 0:
        raise SpecError(f"{label}: must be nonzero")
    if least is not None and value < least:
        raise SpecError(f"{label}: must be >= {least}")
    if most is not None and value > most:
        raise SpecError(f"{label}: {value} exceeds the limit {most}")
    return value


def _setting(label: str, key: str, raw: str):
    if key not in SETTINGS:
        raise SpecError(f"{label}: unknown setting")
    return _value(label, raw, *SETTINGS[key])


def parse_spec(text: str) -> InstanceSpec:
    # values are read raw (no %-interpolation), and no header can name the
    # empty default section, so a [DEFAULT] section is an ordinary one,
    # rejected like any other section a spec file does not have
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#",), interpolation=None, default_section=""
    )
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise SpecError(f"spec file is not valid key-value text: {exc}") from exc
    for name in parser.sections():
        if name not in SECTIONS:
            raise SpecError(f"[{name}]: not a section of a spec file")

    for required in ("family", "perturbation"):
        if not parser.has_section(required):
            raise SpecError(f"missing [{required}] section")
    fam_sec = parser["family"]
    for key in fam_sec:
        if key not in FAMILY_KEYS:
            raise SpecError(f"[family] {key}: expected alpha1, alpha2, m1 or m2")
    for key in FAMILY_KEYS:
        if key not in fam_sec:
            raise SpecError(f"[family] {key}: missing")
    alphas = [_value(f"[family] {key}", fam_sec[key], "rational") for key in ("alpha1", "alpha2")]
    ms = [_value(f"[family] {key}", fam_sec[key], "integer", most=MAX_M) for key in ("m1", "m2")]
    try:
        family = SystemFamily(*alphas, *ms)
    except ValueError as exc:
        raise SpecError(f"[family] invalid: {exc}") from exc

    pert = parser["perturbation"]
    if "n" not in pert:
        raise SpecError("[perturbation] n: missing")
    n = _value("[perturbation] n", pert["n"], "integer", most=MAX_N)
    box = _value("[perturbation] box", pert.get("box", "1"), "rational")
    a, b = {}, {}
    for key, raw in pert.items():
        if key in ("n", "box"):
            continue
        match = _COEFF_KEY.match(key)
        if not match:
            raise SpecError(f"[perturbation] {key}: expected a_i_j or b_i_j")
        kind, i, j = match.group(1), int(match.group(2)), int(match.group(3))
        (a if kind == "a" else b)[(i, j)] = _value(f"[perturbation] {key}", raw, "rational")
    try:
        coeffs = PerturbCoeffs(n=n, a=a, b=b, box=box)
    except ValueError as exc:
        raise SpecError(f"[perturbation] invalid: {exc}") from exc

    spec = InstanceSpec(family=family, coeffs=coeffs)
    if parser.has_section("settings"):
        for key, raw in parser["settings"].items():
            setattr(spec, key, _setting(f"[settings] {key}", key, raw))
    return spec


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


def _double(name: str, q: Fraction) -> float:
    """q as a double for the flow, which runs in doubles: a value that
    overflows, or falls below the normal range (to 0.0 at the worst), has
    no usable value there."""
    try:
        value = float(q)
    except OverflowError:
        value = 0.0
    if abs(value) < sys.float_info.min:
        raise SpecError(f"{name} {sci_str(q)} is outside the normal range of a double")
    return value


def report_verify(spec: InstanceSpec) -> dict:
    if spec.eps is None:
        raise SpecError("verify needs eps (set [settings] eps or pass --eps)")
    eps = _double("eps", spec.eps)
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
    h_max = _double("h_max", fam.h_max)
    margin = 0.05 * h_max
    grid = [margin + (h_max - 2 * margin) * i / (spec.grid - 1) for i in range(spec.grid)]
    tolerance = 5e-3 * h_max

    attempts = []
    for attempt in range(2):  # one halving retry
        cycles = find_limit_cycles(
            fam, spec.coeffs, FlowConfig(epsilon=eps), grid
        )
        # a scan with no orbit inside the doubles checks nothing: it is an
        # input the flow cannot run, not a mismatch
        failures = cycles.failures.values()
        if len(failures) == spec.grid and all(BEYOND_DOUBLES in msg for msg in failures):
            raise SpecError(
                f"every grid orbit leaves the range of a double (h_max = {h_max:g}): "
                "verify cannot integrate a section return"
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
        # the points that integrated must be a prefix of two or more: next
        # to h_max orbits touch the singular line and may fail, but a
        # failure lower down leaves a gap, and fewer points check nothing
        scanned = spec.grid - len(cycles.failures)
        ok = (
            zr.decided
            and matched == zr.count_lo == len(cycles.cycles)
            and scanned >= 2
            and min(cycles.failures, default=scanned) >= scanned
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


SCAN_FIELDS = ("sample", "status", "count_lo", "count_hi", "bound", "eliminant_degree")
CURVE_FIELDS = ("h", "phi_mid", "phi_width")


def report_scan(spec: InstanceSpec) -> dict:
    """Zero counts of spec.samples coefficient draws from the box, one row
    per draw, deterministic in spec.seed."""
    fam, n = spec.family, spec.coeffs.n
    bound = theorem_bound(fam, n)
    rows = []
    for index in range(spec.samples):
        coeffs = draw_coeffs(rng_for(spec.seed, index), n, spec.coeffs.box)
        zr = count_zeros(assemble(fam, coeffs), n=n)
        ok = zr.status == "ok"
        rows.append(
            {
                "sample": index,
                "status": zr.status,
                "count_lo": zr.count_lo if ok else "",
                "count_hi": zr.count_hi if ok else "",
                "bound": bound if bound is not None else "",
                "eliminant_degree": zr.eliminant_degree if ok else "",
            }
        )
    counted = [r for r in rows if r["status"] == "ok"]
    return {
        "command": "scan",
        "family": _family_dict(fam),
        "n": n,
        "box": str(spec.coeffs.box),
        "samples": spec.samples,
        "seed": spec.seed,
        "bound": bound if bound is not None else "not applicable",
        "max_count_hi": max((r["count_hi"] for r in counted), default=0),
        "violations": [
            r["sample"] for r in counted if bound is not None and r["count_hi"] > bound
        ],
        "rows": rows,
    }


def _csv(fields: tuple, rows: list) -> str:
    lines = [",".join(fields)] + [",".join(str(row[k]) for k in fields) for row in rows]
    return "\n".join(lines) + "\n"


def scan_csv(report: dict) -> str:
    return _csv(SCAN_FIELDS, report["rows"])


def render_scan(report: dict) -> str:
    lines = [
        f"samples: {report['samples']} (seed {report['seed']})",
        f"bound: {report['bound']}",
        f"max count_hi observed: {report['max_count_hi']}",
        f"bound violations: {len(report['violations'])}",
    ]
    return "\n".join(lines) + "\n"


def report_sample_curve(spec: InstanceSpec) -> dict:
    """Certified values at spec.points labels up to 0.999*h_max, as decimal
    strings with spec.precision digits."""
    fam = spec.family
    nf = assemble(fam, spec.coeffs)
    digits = spec.precision
    top = fam.h_max * (1 - Fraction(1, 1000))
    rows = []
    for i in range(1, spec.points + 1):
        h = top * i / spec.points
        enc = evaluate_normal_form(nf, h, precision=digits)
        rows.append(
            {
                "h": decimal_str(h, digits),
                "phi_mid": decimal_str(enc.mid, digits),
                "phi_width": sci_str(enc.width),
            }
        )
    return {
        "command": "sample-curve",
        "status": "identically_zero" if nf.is_zero else "ok",
        "rows": rows,
    }


def sample_curve_csv(report: dict) -> str:
    head = "# status: identically_zero\n" if report["status"] == "identically_zero" else ""
    return head + _csv(CURVE_FIELDS, report["rows"])


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


# command -> (help, report builder, renderers by --format with the default
# first, setting flags); a command with one renderer takes no --format
COMMANDS = {
    "normal-form": (
        "print the exact normal form",
        report_normal_form,
        {"text": render_normal_form, "json": render_json},
        (),
    ),
    "zeros": (
        "certified zero count and intervals",
        report_zeros,
        {"text": render_zeros, "json": render_json},
        ("precision",),
    ),
    "verify": (
        "compare certified zeros with detected cycles",
        report_verify,
        {"text": render_verify, "json": render_json},
        ("eps",),
    ),
    "scan": (
        "random coefficient samples vs the bound",
        report_scan,
        {"csv": scan_csv, "text": render_scan, "json": render_json},
        ("samples", "seed"),
    ),
    "sample-curve": (
        "certified curve values as CSV",
        report_sample_curve,
        {"csv": sample_curve_csv},
        ("points", "precision"),
    ),
}


def _emit(text: str, out_path):
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise SpecError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _load_spec(path: str) -> InstanceSpec:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecError(f"cannot read spec file: {exc}") from exc
    return parse_spec(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="melcert",
        description="exact averaged-integral normal forms and certified zero counts",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _build, renderers, flags) in COMMANDS.items():
        formats = tuple(renderers)
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(format=formats[0])
        p.add_argument("--spec", required=True, help="instance file")
        p.add_argument("--out", help="write output to this path")
        if len(formats) > 1:
            p.add_argument("--format", choices=formats)
        for key in flags:
            p.add_argument(f"--{key}", help=f"overrides [settings] {key}")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _help, build, renderers, flags = COMMANDS[args.command]
    try:
        spec = _load_spec(args.spec)
        for key in flags:
            raw = getattr(args, key)
            if raw is not None:
                setattr(spec, key, _setting(f"--{key}", key, raw))
        report = build(spec)
        _emit(renderers[args.format](report), args.out)
        # scan's summary goes to stdout when its rows went to a file
        if args.command == "scan" and args.out and args.format != "text":
            sys.stdout.write(render_scan(report))
    except ValueError as exc:  # SpecError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if report.get("verdict") == "mismatch":
        print("verification mismatch", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
