#!/usr/bin/env python3
"""Reproduce every table and report of the study in one run.

Writes the crossing tables, the gap sequence with its extrapolation,
the derivative table, the constants report, the conjecture scans and
the curve samples into the output directory.  The full run (n up to
400, beta up to 900) took 5.2 s on a shared 2-vCPU x86-64 machine
(Python 3.11.7, numpy 2.4.6, scipy 1.17.1; the median of three runs,
which spread 4.5-5.2 s, alternating with three runs of the beta <= 2n
walk from the potential minimum, which took 5.4-5.6 s): curves 3.4 s,
conjectures 0.8 s, crossings 0.2 s, constants, derivatives and
richardson <= 0.1 s each.  --quick cuts the ranges for a smoke run.
"""

import argparse
import sys
import time

from diskmag.cli import main as cli_main


def run(output_dir: str, quick: bool) -> int:
    common = ["--output-dir", output_dir]
    if quick:
        common += ["--n-max", "40", "--beta-grid", "0.5:60:0.5"]
    jobs = ["constants", "crossings", "richardson", "derivatives",
            "conjectures", "curves"]
    worst = 0
    for job in jobs:
        t0 = time.time()
        code = cli_main([job, *common])
        print(f"[{job}] exit {code} in {time.time() - t0:.1f}s")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output-dir", default="out")
    parser.add_argument("--quick", action="store_true",
                        help="reduced ranges for a fast smoke run")
    args = parser.parse_args()
    sys.exit(run(args.output_dir, args.quick))
