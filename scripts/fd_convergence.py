#!/usr/bin/env python3
"""Grid-refinement study of the two finite-difference oracles.

Prints the eigenvalue at successive grid doublings, the observed
convergence ratio (4.0 for a clean second-order scheme) and the
Richardson-combined value, for one disk fiber and for the half-line
problem at its minimizing shift.  Each grid is solved on its own,
without a bracket from the others.
"""

import argparse

from diskmag.fd import (Grid1D, assemble_degennes_system,
                        assemble_disk_system, richardson, solve_smallest)


def study(label, assemble, base_count, levels):
    """Print the refinement table and return its convergence ratios."""
    print(f"\n{label}")
    print(f"{'count':>8} {'eigenvalue':>22} {'ratio':>8} {'combined':>22}")
    grid = Grid1D(0.0, 1.0, base_count) if "disk" in label else \
        Grid1D(0.0, 15.0, base_count)
    values, ratios = [], []
    for _ in range(levels):
        lam, _ = solve_smallest(assemble(grid))
        values.append((grid.count, lam))
        grid = grid.refined()
    for i, (count, lam) in enumerate(values):
        ratio = ""
        combined = ""
        if i >= 2:
            num = values[i - 2][1] - values[i - 1][1]
            den = values[i - 1][1] - lam
            ratios.append(num / den)
            ratio = f"{num / den:8.4f}"
        if i >= 1:
            combined = f"{richardson(lam, values[i - 1][1]):22.16f}"
        print(f"{count:>8} {lam:22.16f} {ratio:>8} {combined:>22}")
    return ratios


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--beta", type=float, default=20.0)
    parser.add_argument("--xi", type=float, default=-0.7681836531391658)
    parser.add_argument("--levels", type=int, default=6)
    args = parser.parse_args()

    study(f"disk fiber n={args.n}, beta={args.beta}",
          lambda g: assemble_disk_system(args.n, args.beta, g),
          251, args.levels)
    study(f"half-line oscillator xi={args.xi}",
          lambda g: assemble_degennes_system(args.xi, g),
          251, args.levels)
