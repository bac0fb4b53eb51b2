"""The four benchmark workloads: seeded inputs, one item each, output checks.

Every workload is a closed loop with one client: the next item starts when
the previous one has finished.  Inputs depend only on the seed and are drawn
by the benchmark itself; the program receives the generated instances.

- ``sweep`` and ``high_degree`` share a fixed pool of two-radical instances
  per workload, drawn like the acceptance bound sweep.  The seed sets the
  order of the pool and, for every item, a global coefficient factor
  (+/-p/q with odd 1 <= p <= q <= 15).  Scaling every coefficient by a
  nonzero rational scales the normal form, so the zero count, the
  certification verdicts and the (primitive) eliminant are unchanged: every
  seed runs the same amount of work, which keeps two-second items steady,
  and every item has an exact reference.  Each pass over the pool draws a
  fresh order and fresh factors.  ``high_degree``'s five instances take
  about two passes per 20-second run, so its median item is the same
  instance on every seed.  Later passes repeat families, and so hit
  melnikov's per-family caches, but assembly is about 1% of that item.
- ``oracle`` draws fresh instances from the seed (items are cheap).
- ``cli`` runs each (command, instance) pair on the committed instances in
  a seeded order, one subprocess at a time.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

SWEEP = {"n": 4, "m": (2, 1), "pool": 96}  # eliminant degree 13
HIGH_DEGREE = {"n": 6, "m": (2, 2), "pool": 5}  # eliminant degree 20
ORACLE_POINTS = 10
ORACLE_CYCLES_EVERY = 20  # every 20th oracle item also detects cycles
ORACLE_BATCH = 1000  # instances drawn during set-up
CYCLE_GRID = 40
CLI_COMMANDS = (
    ("normal-form", ()),
    ("zeros", ()),
    ("verify", ("--format", "json")),
    ("scan", ("--samples", "50")),
    ("sample-curve", ("--points", "200")),
)
CLI_INSTANCES = ("n2_basic", "two_zeros", "confluent_n3")
CLI_TIMEOUT_S = 150


# -- instance draws (same distribution as the acceptance suite) -------------

def _dyadic(rng: random.Random, bound: int, denom_bits: int) -> Fraction:
    scale = 1 << denom_bits
    return Fraction(rng.randint(-bound * scale, bound * scale), scale)


def _alpha(rng: random.Random) -> Fraction:
    while True:
        value = _dyadic(rng, 2, 10)
        if value != 0:
            return value


def draw_instance(rng: random.Random, n: int, m1: int, m2: int):
    """(family, coeffs) with distinct dyadic alphas and a full coefficient grid."""
    from melcert.melnikov import PerturbCoeffs, SystemFamily

    alpha1 = _alpha(rng)
    alpha2 = _alpha(rng)
    while alpha2 == alpha1:
        alpha2 = _alpha(rng)
    a, b = {}, {}
    for i in range(n + 1):
        for j in range(n + 1 - i):
            a[(i, j)] = _dyadic(rng, 1, 20)
            b[(i, j)] = _dyadic(rng, 1, 20)
    return SystemFamily(alpha1, alpha2, m1, m2), PerturbCoeffs(n=n, a=a, b=b)


def scaled(coeffs, factor: Fraction):
    from melcert.melnikov import PerturbCoeffs

    return PerturbCoeffs(
        n=coeffs.n,
        a={k: v * factor for k, v in coeffs.a.items()},
        b={k: v * factor for k, v in coeffs.b.items()},
        box=coeffs.box,
    )


def _factor(rng: random.Random) -> Fraction:
    q = rng.randrange(1, 16, 2)
    p = rng.randrange(1, q + 1, 2)
    return Fraction(p if rng.random() < 0.5 else -p, q)


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def count_summary(report) -> list:
    return [report.status, report.count_lo, report.count_hi, report.eliminant_degree]


# -- workloads ---------------------------------------------------------------

class CountWorkload:
    """One ``assemble`` + ``count_zeros`` per item on a fixed instance pool."""

    in_process = True

    def __init__(self, name: str, config: dict):
        self.name = name
        self.n = config["n"]
        self.m1, self.m2 = config["m"]
        self.pool_size = config["pool"]

    def pool(self) -> list:
        return [
            draw_instance(random.Random(f"perfbench:{self.name}:{k}"), self.n, self.m1, self.m2)
            for k in range(self.pool_size)
        ]

    def inputs(self, seed: int):
        """Draw the pool now; return the endless (index, family, coeffs, ref) stream."""
        pool = self.pool()
        reference = load_reference()[self.name]
        if len(reference) != len(pool):
            raise RuntimeError(f"reference for {self.name} does not match its pool")

        def stream():
            order_pass = 0
            while True:
                rng = random.Random(f"perfbench:{self.name}:order:{seed}:{order_pass}")
                order = list(range(len(pool)))
                rng.shuffle(order)
                for k in order:
                    fam, coeffs = pool[k]
                    yield k, fam, scaled(coeffs, _factor(rng)), reference[k]
                order_pass += 1

        return stream()

    def run(self, item):
        from melcert import melnikov, zeros

        _k, fam, coeffs, _ref = item
        return zeros.count_zeros(melnikov.assemble(fam, coeffs), n=self.n)

    def check(self, item, report):
        from melcert.zeros import theorem_bound

        k, fam, _coeffs, ref = item
        got = count_summary(report)
        if got != ref:
            return f"pool instance {k}: got {got}, reference {ref}"
        bound = theorem_bound(fam, self.n)
        if report.count_hi > bound:
            return f"pool instance {k}: count_hi {report.count_hi} > bound {bound}"
        for z in report.certified:
            if not (0 < z.interval.lo <= z.interval.hi < fam.h_max):
                return f"pool instance {k}: certified interval outside (0, h_max)"
        return None

    def undecided(self, report) -> bool:
        return report.count_lo != report.count_hi


class OracleWorkload:
    """Certified evaluation against quadrature, plus periodic cycle detection."""

    name = "oracle"
    in_process = True

    def inputs(self, seed: int):
        """Draw the first ORACLE_BATCH instances now, later ones on demand."""

        def draw(k):
            rng = random.Random(f"perfbench:oracle:{seed}:{k}")
            n = rng.randint(1, 4)
            m1, m2 = rng.randint(1, 3), rng.randint(1, 3)
            return (k, *draw_instance(rng, n, m1, m2))

        first = [draw(k) for k in range(ORACLE_BATCH)]
        self.cycles = self.cycle_instance()

        def stream():
            yield from first
            k = ORACLE_BATCH
            while True:
                yield draw(k)
                k += 1

        return stream()

    @staticmethod
    def cycle_instance():
        """two_zeros.spec (certified simple zeros at h = 1 and h = 2) and its grid."""
        from melcert.cli import parse_spec

        spec = parse_spec((HERE.parent / "instances" / "two_zeros.spec").read_text())
        h_max = float(spec.family.h_max)
        grid = [h_max * (0.05 + 0.9 * i / (CYCLE_GRID - 1)) for i in range(CYCLE_GRID)]
        return spec.family, spec.coeffs, grid

    def run(self, item):
        from melcert import flow, melnikov

        k, fam, coeffs = item
        nf = melnikov.assemble(fam, coeffs)
        grid = [Fraction(9, 10) * fam.h_max * t / (ORACLE_POINTS + 1)
                for t in range(1, ORACLE_POINTS + 1)]
        numeric = [flow.numeric_melnikov(fam, coeffs, float(h)) for h in grid]
        certified = [melnikov.evaluate_normal_form(nf, h, precision=18) for h in grid]
        found = None
        if k % ORACLE_CYCLES_EVERY == 0:
            cfam, ccoeffs, cgrid = self.cycles
            found = flow.find_limit_cycles(cfam, ccoeffs, flow.FlowConfig(epsilon=1e-3), cgrid)
        return nf, numeric, certified, found

    def check(self, item, result):
        k = item[0]
        nf, numeric, certified, found = result
        if nf.is_zero:
            return f"oracle instance {k}: assembled to the zero form"
        scale = max(abs(v) for v in numeric)
        for num, enc in zip(numeric, certified):
            mid = float(enc.mid)
            err = abs(num - mid)
            # the acceptance rule: relative 1e-9, or absolute at the
            # integrand's scale where the integral crosses zero
            if not (err <= 1e-9 * max(abs(num), abs(mid)) or err <= 1e-12 * scale):
                return f"oracle instance {k}: numeric {num!r} vs certified {mid!r}"
        if found is not None:
            tol = 5e-3 * float(self.cycles[0].h_max)  # as in the acceptance suite
            labels = [c.h_label for c in found.cycles]
            if found.failures or len(labels) != 2 or any(
                abs(h - want) > tol for h, want in zip(labels, (1.0, 2.0))
            ):
                return f"cycle detection on two_zeros.spec found {labels}"
        return None

    def undecided(self, result) -> bool:
        return False


class CliWorkload:
    """One ``python -m melcert <cmd>`` subprocess per item."""

    name = "cli"
    in_process = False
    tracer = None  # set for the traced run: each subprocess becomes a span

    def __init__(self, root: Path, env: dict):
        self.root = root
        self.env = env
        # commands differ by up to 50% in time: time whole passes only
        self.pass_size = len(self.pairs())

    @staticmethod
    def pairs() -> list:
        out = []
        for command, extra in CLI_COMMANDS:
            for inst in CLI_INSTANCES:
                if command == "verify" and inst == "confluent_n3":
                    continue  # no eps in that spec: verify refuses it
                out.append((command, extra, inst))
        return out

    def argv(self, pair) -> list:
        command, extra, inst = pair
        return [sys.executable, "-m", "melcert", command, *extra,
                "--spec", os.path.join("instances", f"{inst}.spec")]

    def inputs(self, seed: int):
        reference = load_reference()["cli"]
        pairs = self.pairs()
        order_pass = 0
        while True:
            order = list(pairs)
            random.Random(f"perfbench:cli:{seed}:{order_pass}").shuffle(order)
            for pair in order:
                yield pair, reference[key(pair)]
            order_pass += 1

    def run(self, item):
        pair, _ref = item
        kwargs = dict(cwd=self.root, env=self.env, capture_output=True, timeout=CLI_TIMEOUT_S)
        if self.tracer is None:
            proc = subprocess.run(self.argv(pair), **kwargs)
        else:
            proc = self.tracer.call(f"cli.{span_name(pair[0])}", subprocess.run,
                                    self.argv(pair), **kwargs)
        return proc.returncode, proc.stdout

    def check(self, item, result):
        pair, ref = item
        code, stdout = result
        if code != ref["exit"]:
            return f"{key(pair)}: exit {code}, reference {ref['exit']}"
        got = summarize_stdout(pair, stdout)
        if got != ref["stdout"]:
            return f"{key(pair)}: output differs from the reference"
        return None

    def undecided(self, result) -> bool:
        return False


def span_name(command: str) -> str:
    return command.replace("-", "_")


def key(pair) -> str:
    command, extra, inst = pair
    return " ".join((command, *extra, inst))


def summarize_stdout(pair, stdout: bytes):
    """What the reference keeps of one command's output.

    Byte-exact (as sha256) for every command but ``verify``, whose cycle
    labels are floating point: there the verdict and counts are compared.
    """
    if pair[0] == "verify":
        report = json.loads(stdout)
        return {k: report.get(k) for k in
                ("status", "verdict", "count_lo", "count_hi", "detected_cycles")}
    return hashlib.sha256(stdout).hexdigest()


def make(name: str, root: Path, env: dict):
    if name == "sweep":
        return CountWorkload("sweep", SWEEP)
    if name == "high_degree":
        return CountWorkload("high_degree", HIGH_DEGREE)
    if name == "oracle":
        return OracleWorkload()
    if name == "cli":
        return CliWorkload(root, env)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("sweep", "high_degree", "oracle", "cli")
