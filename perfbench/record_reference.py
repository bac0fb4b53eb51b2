"""Record the expected outputs that the benchmark checks items against.

    python3 perfbench/record_reference.py

Run once, on the commit whose outputs are the reference (the commit that
introduced the benchmark), and commit ``perfbench/reference.json``.  It
holds (status, count_lo, count_hi, eliminant_degree) for every unscaled
pool instance of ``sweep`` and ``high_degree``, and the exit code and
output summary of every ``cli`` command.  Later commits must reproduce it,
so re-recording it on a later commit would check nothing.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from melcert import melnikov, zeros

    reference = {}
    for name, config in (("sweep", workloads.SWEEP), ("high_degree", workloads.HIGH_DEGREE)):
        rows = []
        for fam, coeffs in workloads.CountWorkload(name, config).pool():
            report = zeros.count_zeros(melnikov.assemble(fam, coeffs), n=config["n"])
            rows.append(workloads.count_summary(report))
        reference[name] = rows
        print(name, len(rows), "instances", flush=True)
    cli = workloads.CliWorkload(run.ROOT, run.child_env())
    reference["cli"] = {}
    for pair in cli.pairs():
        code, stdout = cli.run((pair, None))
        reference["cli"][workloads.key(pair)] = {
            "exit": code, "stdout": workloads.summarize_stdout(pair, stdout)}
        print(workloads.key(pair), code, flush=True)
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
