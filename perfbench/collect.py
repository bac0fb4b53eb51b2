"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --workloads sweep oracle --seeds 1 2 3 4 5 \
        --seconds 20 --out perfbench/out/collect.json [--trace]

Each run is its own ``run.py`` process, one at a time.  For every workload
and metric the summary gives the median, the quartiles (``statistics.
quantiles(values, n=4)``) and the spread, (q3 - q1) / median.  With
``--trace`` every seed also gets a traced run, and the summary adds the
traced item rate as a share of the untraced one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def environment() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "loadavg_at_start": list(os.getloadavg()),
    }


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    rate = re.search(r"^items_per_s ([0-9.eE+-]+)", proc.stdout, re.M)
    result["items_per_s_printed"] = float(rate.group(1))
    return result


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    report = {"environment": environment(), "seconds": args.seconds, "seeds": args.seeds,
              "workloads": {}}
    for workload in args.workloads:
        runs, traced = [], []
        for seed in args.seeds:
            runs.append(one_run(workload, seed, args.seconds, 0))
            if args.trace:
                traced.append(one_run(workload, seed, args.seconds, 1))
            print(workload, seed, json.dumps(runs[-1]["metrics"]), flush=True)
        summary = {name: spread([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        entry = {
            "all_correct": all(r["correct"] for r in runs + traced),
            "failed": sum(r["failed"] for r in runs + traced),
            "attempted": sum(r["attempted"] for r in runs + traced),
            "end_to_end": summary,
            "runs": [r["metrics"] for r in runs],
        }
        if traced:
            entry["per_layer_median"] = {
                name: statistics.median(r["metrics"][name]["value"] for r in traced)
                for name in traced[0]["metrics"]}
            entry["traced_rate_share"] = (
                statistics.median(r["items_per_s_printed"] for r in traced)
                / summary["items_per_s"]["median"])
        report["workloads"][workload] = entry
        for name, row in summary.items():
            print(f"{workload:12s} {name:16s} median {row['median']:.4f} "
                  f"spread {row['spread']:.4f}", flush=True)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
