"""melcert benchmark: one workload, one seed, one timed closed-loop run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  Set-up imports melcert in fresh interpreters and draws
the inputs, SETUP_REPEATS times, and reports the median as ``setup_s``.
Then items run one at a time until ``--seconds`` have passed; every output
is checked.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
hooks the layers (see layers.py), reports the per-layer metrics and writes
the spans under ``perfbench/out/``.  The last line of standard output is
one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import layers
import workloads
from spans import Tracer, by_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
P90_MIN_ITEMS = 100  # the 90th percentile needs ten items beyond it

END_TO_END = [
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


class SetupError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def import_in_child(env: dict):
    """Import melcert in a fresh interpreter, from this checkout's src/."""
    proc = subprocess.run(
        [sys.executable, "-c", "import melcert; print(melcert.__file__)"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    where = Path(proc.stdout.strip() or ".").resolve().parent
    if proc.returncode != 0 or where != (SRC / "melcert").resolve():
        raise SetupError(f"melcert did not import from {SRC}: {proc.stderr.strip()[-300:]}")


def set_up(workload, seed: int, env: dict):
    """Run set-up SETUP_REPEATS times; return (inputs, durations)."""
    import_in_child(env)  # untimed: fills file caches and bytecode
    durations = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        import_in_child(env)
        stream = workload.inputs(seed)
        durations.append(time.perf_counter() - t0)
    return stream, durations


def measure(workload, stream, seconds: float, tracer=None) -> dict:
    """Closed loop: one item at a time until the deadline has passed.

    A workload with a ``pass_size`` runs a fixed multiset of unequal items
    in seeded order, pass after pass.  Its rate and latencies count only
    the passes completed before the deadline, so that every seed times the
    same items; the items after the last complete pass are still checked.
    """
    latencies, failures = [], []
    attempted = undecided = 0
    pass_size = getattr(workload, "pass_size", None)
    timed = None  # (items timed, end time) at the last complete pass
    start = end = time.perf_counter()
    deadline = start + seconds
    for item in stream:
        attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = workload.run(item)
            else:
                out = tracer.run_item(attempted, workload.run, item)
        except Exception:  # one bad item must not end the run: count it
            end = time.perf_counter()
            failures.append(traceback.format_exc(limit=3))
        else:
            end = time.perf_counter()
            error = workload.check(item, out)
            if error is None:
                latencies.append(end - t0)
                undecided += workload.undecided(out)
            else:
                failures.append(error)
        if pass_size and attempted % pass_size == 0:
            timed = (len(latencies), end)
        if end >= deadline:
            break
    untimed = 0
    if timed is not None:
        untimed = len(latencies) - timed[0]
        latencies, end = latencies[:timed[0]], timed[1]
    return {
        "attempted": attempted,
        "failures": failures,
        "latencies": latencies,
        "untimed": untimed,
        "undecided": undecided,
        "elapsed": end - start,
    }


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def end_to_end(run: dict, setup: list, rss: float) -> dict:
    lat = run["latencies"]
    return {
        "setup_s": statistics.median(setup),
        "items_per_s": len(lat) / run["elapsed"],
        "latency_p50_ms": statistics.median(lat) * 1e3 if lat else 0.0,
        "peak_rss_mb": rss,
    }


def describe(args, run: dict, e2e: dict, setup: list):
    lat = run["latencies"]
    n = len(lat)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print(f"attempted {run['attempted']}  failed {len(run['failures'])}  "
          f"failed_frac {len(run['failures']) / max(run['attempted'], 1):.4f}  "
          f"undecided_frac {run['undecided'] / max(n, 1):.4f} ({run['undecided']} of {n})")
    print(f"setup_s {e2e['setup_s']:.4f} s (median of {len(setup)}: "
          + ", ".join(f"{d:.3f}" for d in setup) + ")")
    print(f"items_per_s {e2e['items_per_s']:.4f} 1/s ({n} items in {run['elapsed']:.2f} s)")
    if run["untimed"]:
        print(f"{run['untimed']} checked items after the last complete pass are not timed")
    print(f"latency_p50_ms {e2e['latency_p50_ms']:.3f} ms (n={n})")
    if n >= P90_MIN_ITEMS:
        p90 = statistics.quantiles(lat, n=10)[8] * 1e3
        print(f"latency_p90_ms {p90:.3f} ms (n={n})")
    else:
        print(f"latency_p90_ms not reported: n={n} leaves fewer than 10 items beyond it")
    print(f"peak_rss_mb {e2e['peak_rss_mb']:.1f} MB")
    for failure in run["failures"][:5]:
        print(f"FAILED: {failure}", file=sys.stderr)


def write_trace(args, tracer, metrics: dict):
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    base = tracer.spans[0][1] if tracer.spans else 0.0
    with open(OUT / f"spans-{stem}.jsonl", "w") as fh:
        for name, start, end, parent, item in tracer.spans:
            fh.write(json.dumps([name, start - base, end - base, parent, item]) + "\n")
    with open(OUT / f"trace-{stem}.json", "w") as fh:
        json.dump({"layers": by_name(tracer.spans), "metrics": metrics,
                   "missing_hooks": tracer.missing}, fh, indent=1, sort_keys=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "melcert" / "__init__.py").is_file():
        print(f"perfbench: no melcert sources under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    sys.path.insert(0, str(SRC))
    workload = workloads.make(args.workload, ROOT, env)
    try:
        if workload.in_process:
            import melcert

            if Path(melcert.__file__).resolve().parent != (SRC / "melcert").resolve():
                raise SetupError(f"melcert imported from {melcert.__file__}, not {SRC}")
        stream, setup = set_up(workload, args.seed, env)
        tracer = imports = None
        if args.trace:
            imports = layers.import_times(ROOT, env)
            tracer = Tracer()
            if workload.in_process:
                tracer.install(layers.HOOKS)
            else:
                workload.tracer = tracer
    except (SetupError, OSError, subprocess.CalledProcessError) as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 2
    try:
        run = measure(workload, stream, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    e2e = end_to_end(run, setup, peak_rss_mb(workload))
    describe(args, run, e2e, setup)
    if tracer is None:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    else:
        completed = len(run["latencies"]) + run["untimed"]  # every traced item
        counted = completed if isinstance(workload, workloads.CountWorkload) else 0
        values = layers.per_layer(tracer, completed, run["undecided"],
                                  counted, imports)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in layers.PER_LAYER}
        write_trace(args, tracer, values)
        if tracer.missing:
            print("hooks not found: " + ", ".join(tracer.missing))
        print(f"trace overhead {values['trace.overhead_frac']:.4f} of item time (estimated), "
              f"span coverage {values['trace.coverage_frac']:.4f}")
    failed = len(run["failures"])
    print(json.dumps({"correct": failed == 0, "attempted": run["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
