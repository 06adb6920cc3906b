#!/usr/bin/env python3
"""The lambda' probe: Feynman-Hellmann against the central difference.

Runs lambda_prime with its cross-check at n in {0, 1, 3, 10, 30, 100,
200, 400} x beta in {0.05, 0.5, 2, 10, 40, 100, 150, 200, 300, 500, 900}
plus (300, 1), and prints per point whether the check passed ("ok"),
raised IllConditioned ("raised") or the eigensolve refused ("refused"),
the Feynman-Hellmann lambda', the Kummer central difference at the
check's own step and the relative gap |FH - CD| / max(1, |lambda'|).
It takes ~25 s; the three slowest points are (400, 2), (300, 1) and
(200, 2).
"""

import argparse
import time

from diskmag.derivatives import lambda_prime
from diskmag.errors import IllConditioned, SolverError
from diskmag.spectrum import lowest_eigenvalue

MODES = (0, 1, 3, 10, 30, 100, 200, 400)
BETAS = (0.05, 0.5, 2.0, 10.0, 40.0, 100.0, 150.0, 200.0, 300.0, 500.0, 900.0)
EXTRA = ((300, 1.0),)


def probe(n: int, beta: float) -> tuple[str, float, float]:
    """(status, FH lambda', central difference); NaNs where refused."""
    try:
        status, fh = "ok", lambda_prime(n, beta).dlambda
    except IllConditioned:
        status, fh = "raised", lambda_prime(n, beta, cross_check=False).dlambda
    except SolverError:
        return "refused", float("nan"), float("nan")
    h = min(1e-5 * max(1.0, beta), 0.5 * beta)  # lambda_prime's step
    cd = (lowest_eigenvalue(n, beta + h).lam
          - lowest_eigenvalue(n, beta - h).lam) / (2.0 * h)
    return status, fh, cd


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.parse_args()
    print(f"{'n':>4} {'beta':>6} {'status':>8} {'fh':>20} {'cd':>20} "
          f"{'rel_gap':>9} {'s':>6}")
    counts = {}
    for n, beta in [(n, b) for n in MODES for b in BETAS] + list(EXTRA):
        t0 = time.perf_counter()
        status, fh, cd = probe(n, beta)
        counts[status] = counts.get(status, 0) + 1
        gap = abs(fh - cd) / max(1.0, abs(fh))
        print(f"{n:4d} {beta:6g} {status:>8} {fh:20.12f} {cd:20.12f} "
              f"{gap:9.2e} {time.perf_counter() - t0:6.2f}", flush=True)
    print(" ".join(f"{k} {v}" for k, v in sorted(counts.items())))
