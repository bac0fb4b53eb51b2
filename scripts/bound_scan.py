#!/usr/bin/env python3
"""Random-sample survey of certified zero counts against the cycle bounds.

Draws seeded random families and coefficient grids for a few perturbation
degrees, runs the exact pipeline on each, and tabulates the worst certified
count next to the bound.  A quick desk-scale version of the acceptance
sweep; tune SAMPLES/configs freely.  Exits 1 at the first report that is
not decided or exceeds its bound.

Usage: python scripts/bound_scan.py [samples >= 1] [seed]
"""

import sys
import time
from fractions import Fraction

from melcert.melnikov import SystemFamily, assemble
from melcert.sampling import draw_coeffs, draw_family, rng_for
from melcert.zeros import count_zeros, theorem_bound

# (n, m1, m2); the last two have m1 + m2 > n + 1, so their forms have no tail
TWO_RADICAL = [(2, 1, 1), (3, 1, 1), (2, 1, 2), (4, 2, 1), (2, 2, 2), (4, 3, 3)]
CONFLUENT = [(2, 1, 1), (3, 2, 1), (4, 1, 1)]


def survey(samples: int, seed: int):
    print(f"{'config':<22}{'bound':>6}{'max count_hi':>14}{'secs':>8}")
    for tag, configs, confluent in (
        ("two-radical", TWO_RADICAL, False),
        ("confluent", CONFLUENT, True),
    ):
        for n, m1, m2 in configs:
            t0 = time.time()
            worst = 0
            # the bound depends on the config only, not on the alphas drawn
            half = Fraction(1, 2)
            bound = theorem_bound(SystemFamily(half, half if confluent else -half, m1, m2), n)
            for idx in range(samples):
                rng = rng_for(seed, idx)
                fam = draw_family(rng, m1, m2, confluent=confluent)
                nf = assemble(fam, draw_coeffs(rng, n, box=Fraction(1)))
                if nf.is_zero:
                    continue
                report = count_zeros(nf, n=n)
                worst = max(worst, report.count_hi)
                if not report.decided:
                    print(f"UNDECIDED at sample {idx}: {fam}")
                    return 1
                if bound is not None and report.count_hi > bound:
                    print(f"BOUND VIOLATION at sample {idx}: {fam}")
                    return 1
            label = f"{tag} n={n} m=({m1},{m2})"
            print(f"{label:<22}{bound:>6}{worst:>14}{time.time() - t0:>8.1f}")
    return 0


USAGE = "usage: python scripts/bound_scan.py [samples >= 1] [seed]"

if __name__ == "__main__":
    samples = int(sys.argv[1]) if len(sys.argv) > 1 else 50
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 2024
    if samples < 1:
        print(USAGE, file=sys.stderr)
        sys.exit(1)
    sys.exit(survey(samples, seed))
