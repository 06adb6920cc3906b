"""Inputs, drivers and output checks of the three benchmark workloads.

Every function here reaches diskmag through module attributes at call
time (``spectrum.lowest_eigenvalue(...)``), never through names bound at
import, so the tracer's wrappers see the benchmark's own calls too.

* ``curves``: lambda(n, beta) for n = 0..20 on a fixed beta grid from
  0.5 to 60, one point at a time with a cold cache, checked against the
  frozen reference in ``curves_ref.json``.  The seed fixes the order in
  which the points are visited; the point set is fixed so that it can be
  checked against the frozen values.
* ``tables``: five ``diskmag`` subcommands through ``cli.main`` in one
  process, checked against ``tests/refdata.py``.  Its inputs are the
  fixed subcommand arguments; the seed is not used.
* ``crosscheck``: a seeded draw of (n, beta) with n in 0..400 and beta in
  (n, 900], each point computed by the Kummer route and by the FD oracle,
  plus crossings triangulated by three methods at seeded n.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import math
import random
import time
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

CURVES_MODES = tuple(range(21))
CURVES_BETAS = tuple(0.5 + 3.5 * k for k in range(18))  # 0.5, 4, ..., 60
CURVES_REF = HERE / "curves_ref.json"
CURVES_REL_TOL = 1e-9  # frozen eta vs recomputed eta

TABLES_ARGS = ("--n-max", "400", "--beta-grid", "5:900:5")

CROSS_N_MAX = 400
CROSS_BETA_MAX = 900.0
# randomly shifted Fibonacci lattice: uniform marginals like an i.i.d.
# draw, but stratified in (n, beta), so the share of costly beta <= 2n
# points, and with it the run time, barely moves from seed to seed
CROSS_LATTICE = (233, 144)
CROSS_REL_TOL = 1e-6
# below lambda = 1 the comparison is absolute: the FD oracle resolves an
# eigenvalue only to ~eps * |A| ~ 1e-8, which is all of lambda(0, beta) ~
# beta^2 / 8 at beta ~ 1e-4
CROSS_ABS_FLOOR = 1.0
CROSS_TRIANGULATED = 4
TRIANGULATION_REL_TOL = 1e-10


def load_refdata():
    """tests/refdata.py of the checkout, imported by path."""
    path = ROOT / "tests" / "refdata.py"
    spec = importlib.util.spec_from_file_location("diskmag_refdata", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


# -- inputs -----------------------------------------------------------------

def curves_points(seed: int) -> list[tuple[int, float]]:
    points = [(n, beta) for n in CURVES_MODES for beta in CURVES_BETAS]
    random.Random(seed).shuffle(points)
    return points


def crosscheck_draw(seed: int) -> tuple[list[tuple[int, float]], list[int]]:
    """(n, beta) points and the crossing indices to triangulate."""
    rng = random.Random(seed)
    size, gen = CROSS_LATTICE
    shift_n, shift_u = rng.random(), rng.random()
    points = []
    for i in range(size):
        x = (i / size + shift_n) % 1.0
        u = 1.0 - (gen * i / size + shift_u) % 1.0  # in (0, 1]
        n = min(CROSS_N_MAX, int(x * (CROSS_N_MAX + 1)))
        points.append((n, n + u * (CROSS_BETA_MAX - n)))
    width = CROSS_N_MAX // CROSS_TRIANGULATED
    crossings = [k * width + rng.randrange(width)
                 for k in range(CROSS_TRIANGULATED)]
    return points, crossings


def load_curves_ref() -> dict[tuple[int, float], float]:
    data = json.loads(CURVES_REF.read_text())
    ref = {(int(n), float(beta)): float(eta) for n, beta, eta in data["eta"]}
    missing = [p for p in curves_points(0) if p not in ref]
    if missing:
        raise ValueError(f"{CURVES_REF.name} lacks {len(missing)} grid points")
    return ref


# -- drivers ----------------------------------------------------------------

class Round:
    """What one round of a workload measured and checked."""

    def __init__(self) -> None:
        self.op_times: list[tuple[float, float]] = []  # raw perf_counter
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []  # failures that make the run incorrect
        self.failures: list[dict] = []
        self.digests: dict[str, str] = {}
        self.bytes_written = 0

    def record(self, ok: bool, what: str, expected_failure: bool = False,
               detail: dict | None = None) -> None:
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        if detail is not None:
            self.failures.append(detail)
        if not expected_failure:
            self.unexpected.append(what)


def run_curves(dm, inputs, tracer) -> Round:
    points, ref, refdata = inputs
    out = Round()
    for n, beta in points:
        t0 = time.perf_counter()
        try:
            eta = dm.spectrum.lowest_eigenvalue(n, beta).eta
        except dm.errors.SolverError as exc:
            out.op_times.append((t0, time.perf_counter()))
            out.record(False, f"lambda({n}, {beta}): {exc}")
            continue
        out.op_times.append((t0, time.perf_counter()))
        gap = rel(eta, ref[(n, beta)])
        out.record(gap <= CURVES_REL_TOL,
                   f"eta({n}, {beta}) off the frozen reference by {gap:.2e}")
    # the reference line of the curves plot, as `diskmag curves` draws it
    try:
        theta0 = dm.degennes.minimize_theta0().theta0
        gap = abs(theta0 - refdata.THETA0_HP)
        out.record(gap <= 1e-8, f"theta0 off by {gap:.2e}")
    except dm.errors.SolverError as exc:
        out.record(False, f"minimize_theta0: {exc}")
    return out


def _csv(path: Path) -> list[dict[str, str]]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _check_constants(out_dir: Path, ref) -> list[str]:
    c = json.loads((out_dir / "constants.json").read_text())
    bad = [f"{key} {c[key]!r} vs {want!r}" for key, want in
           (("theta0", ref.THETA0_HP), ("xi0", ref.XI0_HP),
            ("u0_trace", ref.U00_HP), ("c1", ref.C1_HP))
           if not abs(c[key] - want) <= 1e-8]
    if not abs(c["delta0_fit"] - c["delta0_formula"]) <= 2e-3:
        bad.append("delta0 fit vs formula")
    return bad


def _check_crossings(out_dir: Path, ref) -> list[str]:
    rows = {int(r["n"]): r for r in _csv(out_dir / "table1_crossings.csv")}
    bad = [f"crossing {n}" for n, (beta, eta) in ref.CROSSINGS.items()
           if not (rel(float(rows[n]["beta"]), beta) <= 1e-9
                   and rel(float(rows[n]["eta_star"]), eta) <= 1e-9)]
    implicit = _csv(out_dir / "table3_implicit.csv")
    if len(rows) != 401 or len(implicit) != 401:
        bad.append("crossing tables need 401 rows")
    bad += [f"implicit-equation crossing {r['n']} off by {r['epsilon']}"
            for r in implicit if not float(r["epsilon"]) <= 1e-10]
    return bad


def _check_richardson(out_dir: Path, ref) -> list[str]:
    rows = {int(r["n"]): r for r in _csv(out_dir / "table2_gaps.csv")}
    gammas = [float(rows[n]["gamma"]) for n in sorted(rows)]
    bad = [f"{name} {value} vs {want}" for name, value, want, tol in (
        ("gamma_0", float(rows[0]["gamma"]), ref.GAMMA_0, 1e-10),
        ("gamma_10", float(rows[10]["gamma"]), ref.GAMMA_10, 1e-10),
        ("r4_gamma_1", float(rows[1]["r4_gamma"]), ref.R4_GAMMA_1, 1e-8),
        ("r4_gamma_24", float(rows[24]["r4_gamma"]), ref.R4_GAMMA_24, 1e-8),
    ) if not abs(value - want) <= tol]
    if not all(b < a for a, b in zip(gammas[1:], gammas[2:])):
        bad.append("gaps not decreasing for n >= 1")
    return bad


def _check_derivatives(out_dir: Path, ref) -> list[str]:
    rows = {int(r["n"]): r for r in _csv(out_dir / "table4_derivatives.csv")}
    bad = [f"derivatives row {n}" for n, (left, right) in ref.DERIVATIVES.items()
           if not (abs(float(rows[n]["dlambda_left"]) - left) <= 1e-5
                   and abs(float(rows[n]["dlambda_right"]) - right) <= 1e-5)]
    want_left, want_right = ref.R4_DERIVATIVE_LIMITS
    if not (abs(float(rows[25]["r4_left"]) - want_left) <= 1e-5
            and abs(float(rows[25]["r4_right"]) - want_right) <= 1e-5):
        bad.append("R4 derivative limits")
    return bad


def _check_conjectures(out_dir: Path, ref) -> list[str]:
    report = json.loads((out_dir / "conjectures.json").read_text())
    bad = [f"conjecture {item['name']} failed" for item in report["items"]
           if not item["passed"]]
    if not abs(report["theta0"] - ref.THETA0_HP) <= 1e-8:
        bad.append("conjectures theta0")
    return bad


TABLE_CHECKS = {
    "constants": _check_constants,
    "crossings": _check_crossings,
    "richardson": _check_richardson,
    "derivatives": _check_derivatives,
    "conjectures": _check_conjectures,
}


def run_tables(dm, inputs, tracer) -> Round:
    out_dir, refdata = inputs
    out = Round()
    for stage, check in TABLE_CHECKS.items():
        argv = [stage, *TABLES_ARGS, "--output-dir", str(out_dir)]
        t0 = time.perf_counter()
        with redirect_stdout(io.StringIO()):
            if tracer is None:
                code = dm.cli.main(argv)
            else:
                with tracer.span(f"cli.{stage}"):
                    code = dm.cli.main(argv)
        out.op_times.append((t0, time.perf_counter()))
        problems = [f"exit code {code}"] if code != 0 else []
        try:
            problems += check(out_dir, refdata)
        except (OSError, KeyError, ValueError) as exc:
            problems.append(f"unreadable output: {exc!r}")
        out.record(not problems, f"{stage}: {'; '.join(problems)}")
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        out.digests[path.name] = hashlib.sha256(data).hexdigest()
        out.bytes_written += len(data)
    return out


def run_crosscheck(dm, inputs, tracer) -> Round:
    points, crossing_ns = inputs
    out = Round()
    for n, beta in points:
        known_region = beta <= 2.0 * n  # eta >> 1: the series loses its digits
        t0 = time.perf_counter()
        try:
            lam = dm.spectrum.lowest_eigenvalue(n, beta).lam
            error = None
        except dm.errors.SolverError as exc:
            lam, error = math.nan, repr(exc)
        lam_fd = dm.fd.fd_disk_lambda(n, beta)
        out.op_times.append((t0, time.perf_counter()))
        gap = (math.inf if error else
               abs(lam - lam_fd) / max(abs(lam_fd), CROSS_ABS_FLOOR))
        ok = gap <= CROSS_REL_TOL
        out.record(ok, f"lambda({n}, {beta!r}) vs FD: gap {gap:.2e} {error or ''}",
                   expected_failure=known_region,
                   detail={"n": n, "beta": beta,
                           "kummer_lambda": None if error else lam,
                           "fd_lambda": lam_fd,
                           "rel_gap": None if error else gap,
                           "error": error, "beta_le_2n": known_region})
    for n in crossing_ns:
        try:
            found = [dm.crossings.crossing_by_system(n),
                     dm.crossings.crossing_by_curves(n),
                     dm.crossings.crossing_by_phi(n)]
        except dm.errors.SolverError as exc:
            out.record(False, f"crossing {n}: {exc!r}")
            continue
        worst = max(max(rel(p.beta_n, q.beta_n), rel(p.eta_star, q.eta_star))
                    for p in found for q in found)
        out.record(worst <= TRIANGULATION_REL_TOL,
                   f"crossing {n}: methods disagree by {worst:.2e}")
    return out


WORKLOADS = {
    "curves": run_curves,
    "tables": run_tables,
    "crosscheck": run_crosscheck,
}


def make_inputs(name: str, seed: int, work_dir: Path):
    """The workload's inputs, built before its timed part."""
    if name == "curves":
        return curves_points(seed), load_curves_ref(), load_refdata()
    if name == "tables":
        return work_dir, load_refdata()
    if name == "crosscheck":
        return crosscheck_draw(seed)
    raise ValueError(f"unknown workload {name!r}")
