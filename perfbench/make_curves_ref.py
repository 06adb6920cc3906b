"""Regenerate curves_ref.json, the frozen eta reference of the curves workload.

Each eta comes from the Kummer route (lowest_eigenvalue) and is accepted
only if the independent finite-difference oracle (fd_disk_lambda) agrees
with lambda = beta * eta to 1e-6 relative.  Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_curves_ref.py
"""

import json
import sys

from diskmag.fd import fd_disk_lambda
from diskmag.spectrum import lowest_eigenvalue

from workloads import CURVES_BETAS, CURVES_MODES, CURVES_REF

FD_REL_TOL = 1e-6


def main() -> int:
    rows, worst = [], 0.0
    for n in CURVES_MODES:
        for beta in CURVES_BETAS:
            point = lowest_eigenvalue(n, beta)
            lam_fd = fd_disk_lambda(n, beta)
            gap = abs(point.lam - lam_fd) / lam_fd
            if not gap <= FD_REL_TOL:
                print(f"n={n} beta={beta}: Kummer {point.lam!r} vs FD "
                      f"{lam_fd!r} (gap {gap:.2e})", file=sys.stderr)
                return 1
            worst = max(worst, gap)
            rows.append([n, beta, point.eta])
    header = json.dumps({
        "about": "[n, beta, eta] with eta = lambda/beta from lowest_eigenvalue; "
                 "each lambda agrees with fd_disk_lambda to fd_worst_rel_gap",
        "fd_rel_tol": FD_REL_TOL,
        "fd_worst_rel_gap": worst,
    }, indent=1)[:-2]
    body = ",\n  ".join(json.dumps(row) for row in rows)
    CURVES_REF.write_text(f'{header},\n "eta": [\n  {body}\n ]\n}}\n')
    print(f"wrote {len(rows)} points to {CURVES_REF}, worst FD gap {worst:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
