"""Acceptance suite: every gate the build must clear, one line per check.

Runs the full production pipeline (all 401 crossings, the constants,
the derivative tables, the conjecture scans on the complete beta grid)
and prints a PASS/FAIL line per gate.  Reference digits live in
tests/refdata.py.
"""

import time

import numpy as np
import pytest

from diskmag.cli import TABLE4_ROWS
from diskmag.crossings import (_crossings_pass, crossing_by_curves,
                               crossing_by_phi)
from diskmag.derivatives import conjecture_scan, lambda_prime
from diskmag.fd import fd_disk_lambda
from diskmag.kummer import kummer_m
from diskmag.richardson import gamma_sequence, r4_gamma, richardson_iterate
from diskmag.spectrum import lowest_eigenvalue

import refdata
from checks import delta_at_crossings, eta_deficit, limits, loglog_slope
from oracles import (ScaledReal, check_recurrences, fd_crossing, fd_lambda_prime,
                     kummer_m_integral)


def report(capsys, name: str, ok: bool, detail: str) -> bool:
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return ok


TABLE1_ROWS = sorted(refdata.CROSSINGS)
ORACLE_GRID = [(n, beta) for n in (0, 1, 2, 5, 10)
               for beta in (1.0, 5.0, 10.0, 30.0, 100.0)]
# fd_disk_lambda's error at the crossings of the table-4 rows, modes n and
# n+1, beta_n and beta_n +- 0.01, against the Kummer lambda: <= 2.3e-10 at
# n = 0 and 1.2e-8 at n = 400 (lambda = 491), a part smooth in beta of
# ~2e-11 lambda plus noise.  Second differences of fd_disk_lambda over
# beta steps of 1e-7 reach 2.5e-9, so the noise is <~ 6e-10.  The bound
# taken for fd_disk_lambda is FD_NOISE + FD_REL lambda
FD_NOISE = 1e-9
FD_REL = 3e-11
FD_STEP = 0.1  # fd_lambda_prime's step: its noise term 1.5 FD_NOISE / h


@pytest.fixture(scope="module")
def conjecture_report_full(constants):
    start, stop, step = 0.5, 900.0, 0.5
    grid = np.arange(start, stop + 0.5 * step, step)
    return conjecture_scan(grid, 400, constants.theta0)


def test_crossing_table_reproduction(capsys):
    t0 = time.time()
    # a cold solve: the memo would turn the 120 s gate into a cache hit
    points = {p.n: p for p in _crossings_pass.__wrapped__(400)}
    elapsed = time.time() - t0
    worst = 0.0
    for n in TABLE1_ROWS:
        beta_ref, eta_ref = refdata.CROSSINGS[n]
        worst = max(worst,
                    abs(points[n].beta_n - beta_ref) / beta_ref,
                    abs(points[n].eta_star - eta_ref) / eta_ref)
    ok = worst < 1e-9 and elapsed < 120.0
    assert report(capsys, "crossing-table",
                  ok, f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_saint_james_exactness(capsys, crossings400):
    worst_sj = max(p.sj_residual / p.beta_n for p in crossings400)
    worst_alt = max(
        abs((p.beta_n - (2.0 * p.n + 1.0)) ** 2 - (4.0 * p.lambda_star + 1.0))
        for p in crossings400)
    ok = worst_sj < 1e-10 and worst_alt < 1e-8
    assert report(capsys, "saint-james-exactness", ok,
                  f"max |beta-SJ|/beta {worst_sj:.2e}, "
                  f"max quadratic residual {worst_alt:.2e}")


def test_method_triangulation(capsys, crossings400):
    worst = 0.0
    for n in range(51):
        system = crossings400[n].beta_n
        curves = crossing_by_curves(n).beta_n
        phi = crossing_by_phi(n).beta_n
        worst = max(worst,
                    abs(system - curves) / system,
                    abs(system - phi) / system,
                    abs(curves - phi) / system)
    ok = worst < 1e-10
    assert report(capsys, "method-triangulation", ok,
                  f"worst pairwise rel gap {worst:.2e} over n <= 50")


def test_constants(capsys, constants):
    checks = [
        ("theta0", constants.theta0, refdata.THETA0, 1e-5),
        ("xi0", constants.xi0, refdata.XI0, 1e-3),
        ("c1", constants.c1, refdata.C1, 1e-3),
        ("theta0-xi0^2", constants.theta0 - constants.xi0 ** 2, 0.0, 1e-5),
        ("delta0 fit vs formula",
         constants.delta0_fit - constants.delta0_formula, 0.0, 2e-3),
    ]
    worst = max(abs(value - target) / tol for _, value, target, tol in checks)
    ok = worst < 1.0
    assert report(capsys, "constants", ok,
                  f"worst deviation {worst:.2e} of its tolerance")


def test_constants_delta0_reference_value(capsys, constants, crossings400):
    # delta0 = (1/2) C1 Theta0^{-1/2} (Saint-James plus the two-term
    # asymptotics), referenced from the 25-digit constants; three routes:
    # the closed form, the lambda2-profile vertex and the extrapolated
    # crossing data.  The tabulated 0.0975 is (1/2) C1 Theta0^{+1/2}: the
    # gate pins that identity and keeps the computed delta0 clear of it
    ref = refdata.DELTA0_HP
    literal = refdata.DELTA0_LITERAL_0975
    crossing = limits(delta_at_crossings(crossings400, constants, 0)[0])[0] + 0.5
    routes = [("formula", constants.delta0_formula, 1e-6),
              ("fit", constants.delta0_fit, 2e-3),
              ("crossings", crossing, 2e-3)]
    literal_id = 0.5 * refdata.C1_HP * refdata.THETA0_HP ** 0.5
    clearance = abs(constants.delta0_formula - literal)
    ok = (all(abs(value - ref) < tol for _, value, tol in routes)
          and abs(literal - literal_id) < 2e-4
          and clearance > 0.05)
    gaps = ", ".join(f"{name} {value:.10f} gap {abs(value - ref):.1e} "
                     f"(tol {tol:.0e})" for name, value, tol in routes)
    assert report(capsys, "constants-delta0-reference", ok,
                  f"ref {ref:.10f}: {gaps}; literal {literal} vs "
                  f"(1/2) C1 Theta0^(+1/2) {literal_id:.6f}, "
                  f"delta0 {clearance:.3f} away")


def test_gap_table(capsys, crossings400):
    gaps = gamma_sequence(crossings400)
    r4 = r4_gamma(crossings400)
    gamma0_err = abs(gaps[0] - refdata.GAMMA_0)
    r4_err = abs(r4[24] - refdata.R4_GAMMA_24)
    decreasing = all(gaps[n + 1] < gaps[n] for n in range(1, 399))
    ok = gamma0_err < 1e-10 and r4_err < 1e-8 and decreasing
    assert report(capsys, "gap-table", ok,
                  f"gamma0 err {gamma0_err:.2e}, R4(24) err {r4_err:.2e}, "
                  f"decreasing={decreasing}")


def test_derivative_table(capsys, constants, crossings400, envelope_derivatives):
    left, right = envelope_derivatives
    row0 = (abs(left[0] - refdata.DERIVATIVES[0][0]),
            abs(right[0] - refdata.DERIVATIVES[0][1]))
    chain = [25, 50, 100, 200, 400]
    r4_left = richardson_iterate({n: left[n] for n in chain}, 4)[chain[0]]
    r4_right = richardson_iterate({n: right[n] for n in chain}, 4)[chain[0]]
    want_left, want_right = refdata.R4_DERIVATIVE_LIMITS
    spread = 1.5 * constants.c1 * abs(constants.xi0)
    ok = (max(row0) < 1e-5
          and abs(r4_left - want_left) < 1e-5
          and abs(r4_right - want_right) < 1e-5
          and abs(r4_left - (constants.theta0 + spread)) < 2e-3
          and abs(r4_right - (constants.theta0 - spread)) < 2e-3)
    assert report(capsys, "derivative-table", ok,
                  f"row0 errs {row0[0]:.2e}/{row0[1]:.2e}, "
                  f"R4 {r4_left:.6f}/{r4_right:.6f}")


def test_fd_route_tables(capsys, crossings400, envelope_derivatives):
    # tables 1, 2 and 4 by the FD route alone (fd_crossing on the
    # Saint-James bracket, fd_lambda_prime at the FD crossing), each gap
    # within the bound fd_disk_lambda's error carries into it: beta_n is
    # off by <= 2 err(lambda*) / (lambda'_- - lambda'_+), the slope of the
    # gap between the curves; eta* = lambda(beta_n) / beta_n takes
    # err(lambda*) and beta_n's error; gamma_n those of beta_n and
    # beta_n+1; each derivative twice fd_lambda_prime's noise term, the
    # other half for its h^4 truncation (measured <= 7.5e-9 in all)
    t0 = time.time()
    left, right = envelope_derivatives
    gammas = gamma_sequence(crossings400)
    checks = {"beta": [], "eta": [], "gamma": [], "dlambda": []}  # (gap, bound)
    fd_beta, dbeta = {}, {}
    for n in sorted({*TABLE4_ROWS, 11}):  # beta_11 for gamma_10
        beta, eta = fd_crossing(n)
        fd_left = fd_lambda_prime(n, beta, FD_STEP)
        fd_right = fd_lambda_prime(n + 1, beta, FD_STEP)
        err = FD_NOISE + FD_REL * beta * eta
        fd_beta[n], dbeta[n] = beta, 2.0 * err / (fd_left - fd_right)
        point = crossings400[n]
        checks["beta"].append((abs(beta - point.beta_n), dbeta[n]))
        checks["eta"].append((abs(eta - point.eta_star),
                              (err + (abs(fd_left) + eta) * dbeta[n]) / beta))
        checks["dlambda"] += [(abs(fd_left - left[n]), 3.0 * FD_NOISE / FD_STEP),
                              (abs(fd_right - right[n]), 3.0 * FD_NOISE / FD_STEP)]
    checks["gamma"] = [(abs(fd_beta[n + 1] - fd_beta[n] - gammas[n]),
                        dbeta[n] + dbeta[n + 1]) for n in range(11)]
    elapsed = time.time() - t0
    share = {table: max(gap / bound for gap, bound in pairs)
             for table, pairs in checks.items()}
    detail = ", ".join(f"{table} {max(gap for gap, _ in pairs):.1e} "
                       f"({share[table]:.2f} of its bound)"
                       for table, pairs in checks.items())
    assert report(capsys, "fd-route-tables", max(share.values()) <= 1.0,
                  f"worst gaps {detail}; {elapsed:.1f}s")


def test_oracle_equivalence(capsys):
    worst_eig = 0.0
    for n, beta in ORACLE_GRID:
        kummer_lam = lowest_eigenvalue(n, beta).lam
        fd_lam = fd_disk_lambda(n, beta)
        worst_eig = max(worst_eig, abs(kummer_lam - fd_lam) / fd_lam)
    worst_fh = 0.0
    for n in range(0, 11):
        for beta in (1.0, 5.0, 10.0, 30.0):
            worst_fh = max(worst_fh, lambda_prime(n, beta).fh_vs_fd_gap)
    ok = worst_eig < 1e-6 and worst_fh < 1e-5
    assert report(capsys, "oracle-equivalence", ok,
                  f"eigenvalue worst rel {worst_eig:.2e}, "
                  f"derivative worst gap {worst_fh:.2e}")


def test_property_sweeps(capsys, constants, crossings400, envelope_derivatives,
                         conjecture_report_full):
    worst_rec = 0.0
    worst_int = 0.0
    worst_der = 0.0
    for a in (0.1, 0.27, 0.45):
        for b in (1.0, 3.0, 11.0):
            for z in (0.0, 2.0, 50.0, 150.0, 300.0, 450.0):
                worst_rec = max(worst_rec,
                                *map(abs, check_recurrences(a, b, z)))
                worst_int = max(worst_int, abs(
                    ScaledReal(*kummer_m(a, b, z)).log_mag
                    - kummer_m_integral(a, b, z).log_mag))
                # the h = 1e-5 max(1,z) stencil resolves 1e-6 relative
                # only while (1e-5 z)^2 / 6 stays below it, i.e. z <~ 245
                if 2.0 <= z <= 150.0:
                    h = 1e-5 * max(1.0, z)
                    fd = (ScaledReal(*kummer_m(a, b, z + h)).value()
                          - ScaledReal(*kummer_m(a, b, z - h)).value()
                          ) / (2.0 * h)
                    closed = (a / b) * ScaledReal(
                        *kummer_m(a + 1.0, b + 1.0, z)).value()
                    worst_der = max(worst_der, abs(fd - closed) / abs(closed))
    identities_ok = worst_rec < 1e-10 and worst_int < 1e-10 and worst_der < 1e-6

    left, right = envelope_derivatives
    interlaced = all(
        left[p.n] > p.eta_star > right[p.n] for p in crossings400)

    negative_branch = all(
        lambda_prime(n, beta, cross_check=False).dlambda < 0.0
        for n in (3, 6, 10) for beta in (1.0, 0.5 * (2 * n) - 1.0))
    small_field = all(
        lowest_eigenvalue(0, beta).lam <= beta * beta / 8.0 + 1e-12
        for beta in np.arange(0.5, 40.0, 1.5))

    scans = conjecture_report_full
    ok = (identities_ok and interlaced and negative_branch and small_field
          and scans.all_passed)
    detail = (f"identities rec {worst_rec:.1e} int {worst_int:.1e} "
              f"der {worst_der:.1e}; interlacing={interlaced}; "
              f"scans={'pass' if scans.all_passed else 'FAIL'}")
    assert report(capsys, "property-sweeps", ok, detail)


def test_conjecture_scan_items(capsys, conjecture_report_full):
    lines = "; ".join(
        f"{item.name}: extremal {item.extremal:.3e} at {item.witness:g}"
        for item in conjecture_report_full.items)
    assert report(capsys, "conjecture-scans", conjecture_report_full.all_passed,
                  lines)


def test_asymptotic_coefficients(capsys, constants, crossings400):
    s_seq, c1 = eta_deficit(crossings400, constants)
    s_gap = abs(limits(s_seq)[0] - c1)
    d_seq, d_target = delta_at_crossings(crossings400, constants, 0)
    d_gap = abs(limits(d_seq)[0] - d_target)
    slope = loglog_slope(r4_gamma(crossings400), 2.0, n_min=12)
    ok = s_gap < 2e-3 and d_gap < 2e-3 and -2.8 < slope < -2.2
    assert report(capsys, "asymptotic-coefficients", ok,
                  f"C1 gap {s_gap:.2e}, delta gap {d_gap:.2e}, "
                  f"slope {slope:.3f}")
