"""Command-line entry point.

Subcommands mirror the study's numerical artifacts:

    curves       per-mode samples of beta -> eta(n, beta) plus reference lines
    crossings    crossing points by both routes, with the relative variation
    constants    the De Gennes constants as JSON
    derivatives  one-sided envelope derivatives at crossings, with R4 columns
    richardson   the gap sequence gamma_n and its four-fold extrapolation
    conjectures  the finite-range conjecture scans (exit code 2 on failure)

The four flags --n-max, --beta-grid, --output-dir and --format are the
only run options.  An argument ``@FILE`` reads more arguments from FILE,
one flag per line (``--n-max 40`` or ``--n-max=40``), in its place on the
command line, so a later flag wins over the file.

Exit codes: 0 success, 1 computation error, 2 conjecture-scan failure,
3 bad arguments.  CSV output carries 16 significant digits with '.' as
the decimal separator and blank cells where extrapolation consumed an
index; JSON carries full binary precision.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from .crossings import crossing_by_phi, crossings_range
from .degennes import compute_constants, minimize_theta0
from .derivatives import conjecture_scan, one_sided_chain
from .errors import SolverError
from .richardson import gamma_sequence, r4_gamma
from .spectrum import lowest_eigenvalue

TABLE4_ROWS = list(range(11)) + [25, 50, 100, 200, 300, 400]


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 3 and reads
    ``@FILE`` arguments split on whitespace, one flag per line."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")

    def convert_arg_line_to_args(self, arg_line):
        return arg_line.split()


def _n_max(raw: str) -> int:
    n_max = int(raw)
    if n_max < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n_max}")
    return n_max


def _beta_grid(raw: str) -> list[float]:
    """START:STOP:STEP (or START,STOP,STEP) as the betas START + i STEP <= STOP."""
    parts = raw.replace(":", ",").split(",")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"wants START:STOP:STEP as three numbers, got {raw!r}") from None
    if not (0.0 <= start <= stop < math.inf and 0.0 < step < math.inf
            and (stop - start) / step < math.inf):
        raise argparse.ArgumentTypeError(
            f"{raw!r} needs finite values, 0 <= START <= STOP, STEP > 0 "
            "and a finite point count")
    # the 1e-9 absorbs rounding in (stop - start)/step, as at 0.1:0.7:0.2
    count = math.floor((stop - start) / step + 1e-9) + 1
    return [start + i * step for i in range(count)]


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


def _out(args: argparse.Namespace, stem: str) -> Path:
    suffix = ".json" if args.format == "json" else ".csv"
    return Path(args.output_dir) / f"{stem}{suffix}"


def cmd_curves(args: argparse.Namespace) -> int:
    for n in range(min(args.n_max, 20) + 1):
        rows = []
        for beta in args.beta_grid:
            point = lowest_eigenvalue(n, beta)
            rows.append([beta, point.eta])
        _write_table(_out(args, f"curve_n{n:02d}"), ["beta", "eta"], rows,
                     args.format)
    theta0 = minimize_theta0().theta0
    _write_table(_out(args, "curve_references"), ["name", "value"],
                 [["one", 1.0], ["theta0", theta0]], args.format)
    print(f"wrote {min(args.n_max, 20) + 1} curve files to {args.output_dir}")
    return 0


def cmd_crossings(args: argparse.Namespace) -> int:
    points = crossings_range(args.n_max)
    rows1 = [[p.n, p.beta_n, p.eta_star, p.sj_residual,
              p.sys_residuals[0], p.sys_residuals[1], p.method]
             for p in points]
    _write_table(_out(args, "table1_crossings"),
                 ["n", "beta", "eta_star", "sj_residual",
                  "sys_residual_1", "sys_residual_2", "method"],
                 rows1, args.format)
    rows3 = []
    for p in points:
        alt = crossing_by_phi(p.n)
        rows3.append([p.n, alt.beta_n, alt.eta_star,
                      abs(alt.eta_star - p.eta_star) / p.eta_star, alt.method])
    _write_table(_out(args, "table3_implicit"),
                 ["n", "beta", "eta_star", "epsilon", "method"],
                 rows3, args.format)
    print(f"wrote {len(points)} crossings to {args.output_dir}")
    return 0


def cmd_constants(args: argparse.Namespace) -> int:
    constants = compute_constants()
    path = Path(args.output_dir) / "constants.json"
    _write_json(path, dataclasses.asdict(constants))
    print(f"wrote {path}")
    return 0


def cmd_derivatives(args: argparse.Namespace) -> int:
    rows_wanted = [n for n in TABLE4_ROWS if n <= args.n_max]
    indices = set(rows_wanted) | {n * 2 ** k for n in rows_wanted for k in range(5)
                                  if n >= 1 and 16 * n <= args.n_max}
    left, right, r4_left, r4_right = one_sided_chain(indices, args.n_max)
    points = crossings_range(args.n_max)
    rows = [[n, points[n].beta_n, left[n], right[n],
             r4_left.get(n), r4_right.get(n)] for n in rows_wanted]
    _write_table(_out(args, "table4_derivatives"),
                 ["n", "beta", "dlambda_left", "dlambda_right",
                  "r4_left", "r4_right"],
                 rows, args.format)
    print(f"wrote {len(rows)} derivative rows to {args.output_dir}")
    return 0


def cmd_richardson(args: argparse.Namespace) -> int:
    points = crossings_range(args.n_max)
    gammas = gamma_sequence(points)
    r4 = r4_gamma(points)
    rows = [[n, g, r4.get(n)] for n, g in sorted(gammas.items())]
    _write_table(_out(args, "table2_gaps"), ["n", "gamma", "r4_gamma"],
                 rows, args.format)
    print(f"wrote {len(rows)} gap rows to {args.output_dir}")
    return 0


def cmd_conjectures(args: argparse.Namespace) -> int:
    theta0 = minimize_theta0().theta0
    report = conjecture_scan(args.beta_grid, args.n_max, theta0)
    payload = {
        "theta0": theta0,
        "all_passed": report.all_passed,
        "items": [dataclasses.asdict(item) for item in report.items],
    }
    _write_json(Path(args.output_dir) / "conjectures.json", payload)
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
        prog="diskmag", fromfile_prefix_chars="@",
        description="Spectral tables for the magnetic Neumann Laplacian "
                    "on the unit disk.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--n-max", type=_n_max, default=400)
    parser.add_argument("--output-dir", default="out")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--beta-grid", type=_beta_grid, default="0.5:900:0.5",
                        metavar="START:STOP:STEP")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except SolverError as exc:
        print(f"diskmag: computation failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"diskmag: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
