"""Command-line entry point.

Subcommands mirror the study's numerical artifacts:

    curves       per-mode samples of beta -> eta(n, beta) plus reference lines
    crossings    crossing points by both routes, with the relative variation
    constants    the De Gennes constants as JSON
    derivatives  one-sided envelope derivatives at crossings, with R4 columns
    richardson   the gap sequence gamma_n and its four-fold extrapolation
    conjectures  the finite-range conjecture scans (exit code 2 on failure)

Exit codes: 0 success, 1 computation error, 2 conjecture-scan failure,
3 bad arguments.  CSV output carries 16 significant digits with '.' as
the decimal separator and blank cells where extrapolation consumed an
index; JSON carries full binary precision.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .config import (DEFAULT_CONFIG, SolverConfig, load_config,
                     parse_beta_grid, with_overrides)
from .crossings import crossing_by_phi, crossings_range
from .degennes import compute_constants, minimize_theta0
from .derivatives import conjecture_scan, one_sided_chain
from .errors import SolverError
from .richardson import gamma_sequence, r4_gamma
from .spectrum import lowest_eigenvalue

TABLE4_ROWS = list(range(11)) + [25, 50, 100, 200, 300, 400]


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.16g}"
    return str(value)


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def _write_table(path: Path, header: list[str], rows: list[list],
                 fmt: str) -> None:
    if fmt == "json":
        _write_json(path, [dict(zip(header, row)) for row in rows])
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    lines += [",".join(_fmt(cell) for cell in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _out(config: SolverConfig, stem: str) -> Path:
    suffix = ".json" if config.format == "json" else ".csv"
    return Path(config.output_dir) / f"{stem}{suffix}"


def cmd_curves(config: SolverConfig) -> int:
    betas = config.beta_grid()
    for n in range(min(config.n_max, 20) + 1):
        rows = []
        for beta in betas:
            point = lowest_eigenvalue(n, beta)
            rows.append([beta, point.eta])
        _write_table(_out(config, f"curve_n{n:02d}"), ["beta", "eta"], rows,
                     config.format)
    theta0 = minimize_theta0().theta0
    _write_table(_out(config, "curve_references"), ["name", "value"],
                 [["one", 1.0], ["theta0", theta0]], config.format)
    print(f"wrote {min(config.n_max, 20) + 1} curve files to {config.output_dir}")
    return 0


def cmd_crossings(config: SolverConfig) -> int:
    points = crossings_range(config.n_max)
    rows1 = [[p.n, p.beta_n, p.eta_star, p.sj_residual,
              p.sys_residuals[0], p.sys_residuals[1], p.method]
             for p in points]
    _write_table(_out(config, "table1_crossings"),
                 ["n", "beta", "eta_star", "sj_residual",
                  "sys_residual_1", "sys_residual_2", "method"],
                 rows1, config.format)
    rows3 = []
    for p in points:
        alt = crossing_by_phi(p.n)
        rows3.append([p.n, alt.beta_n, alt.eta_star,
                      abs(alt.eta_star - p.eta_star) / p.eta_star, alt.method])
    _write_table(_out(config, "table3_implicit"),
                 ["n", "beta", "eta_star", "epsilon", "method"],
                 rows3, config.format)
    print(f"wrote {len(points)} crossings to {config.output_dir}")
    return 0


def cmd_constants(config: SolverConfig) -> int:
    constants = compute_constants()
    path = Path(config.output_dir) / "constants.json"
    _write_json(path, dataclasses.asdict(constants))
    print(f"wrote {path}")
    return 0


def cmd_derivatives(config: SolverConfig) -> int:
    rows_wanted = [n for n in TABLE4_ROWS if n <= config.n_max]
    indices = set(rows_wanted) | {n * 2 ** k for n in rows_wanted for k in range(5)
                                  if n >= 1 and 16 * n <= config.n_max}
    left, right, r4_left, r4_right = (
        seq.as_dict() for seq in one_sided_chain(indices, config.n_max))
    points = crossings_range(config.n_max)
    rows = [[n, points[n].beta_n, left[n], right[n],
             r4_left.get(n), r4_right.get(n)] for n in rows_wanted]
    _write_table(_out(config, "table4_derivatives"),
                 ["n", "beta", "dlambda_left", "dlambda_right",
                  "r4_left", "r4_right"],
                 rows, config.format)
    print(f"wrote {len(rows)} derivative rows to {config.output_dir}")
    return 0


def cmd_richardson(config: SolverConfig) -> int:
    points = crossings_range(config.n_max)
    gammas = gamma_sequence(points).as_dict()
    r4 = r4_gamma(points).as_dict() if config.n_max >= 32 else {}
    rows = [[n, g, r4.get(n)] for n, g in sorted(gammas.items())]
    _write_table(_out(config, "table2_gaps"), ["n", "gamma", "r4_gamma"],
                 rows, config.format)
    print(f"wrote {len(rows)} gap rows to {config.output_dir}")
    return 0


def cmd_conjectures(config: SolverConfig) -> int:
    theta0 = minimize_theta0().theta0
    report = conjecture_scan(config.beta_grid(), config.n_max, theta0)
    payload = {
        "theta0": theta0,
        "all_passed": report.all_passed,
        "items": [dataclasses.asdict(item) for item in report.items],
    }
    _write_json(Path(config.output_dir) / "conjectures.json", payload)
    for item in report.items:
        status = "pass" if item.passed else "FAIL"
        print(f"{status}  {item.name}: extremal {item.extremal:.6g} "
              f"at {item.witness:.6g}")
    return 0 if report.all_passed else 2


COMMANDS = {
    "curves": cmd_curves,
    "crossings": cmd_crossings,
    "constants": cmd_constants,
    "derivatives": cmd_derivatives,
    "richardson": cmd_richardson,
    "conjectures": cmd_conjectures,
}


def build_parser() -> _Parser:
    parser = _Parser(
        prog="diskmag",
        description="Spectral tables for the magnetic Neumann Laplacian "
                    "on the unit disk.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", type=Path, default=None,
                        help="flat key = value config file")
    parser.add_argument("--n-max", type=int, default=None)
    parser.add_argument("--output-dir", default=None)
    parser.add_argument("--format", choices=["csv", "json"], default=None)
    parser.add_argument("--beta-grid", type=parse_beta_grid, default=None,
                        metavar="START:STOP:STEP")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        base = load_config(args.config) if args.config else DEFAULT_CONFIG
        config = with_overrides(
            base,
            n_max=args.n_max,
            output_dir=args.output_dir,
            format=args.format,
            beta_grid_spec=args.beta_grid,
        )
    except (ValueError, OSError) as exc:
        print(f"diskmag: bad arguments: {exc}", file=sys.stderr)
        return 3
    try:
        return COMMANDS[args.command](config)
    except SolverError as exc:
        print(f"diskmag: computation failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"diskmag: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
