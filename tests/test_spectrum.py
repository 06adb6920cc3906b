import math
import time

import mpmath
import numpy as np
import pytest
from mpmath.calculus.quadrature import GaussLegendre
from scipy.integrate import quad

import diskmag.kummer as kummer_mod
import diskmag.spectrum as spectrum
from diskmag.crossings import crossing_by_phi, crossing_by_system
from diskmag.derivatives import lambda_prime
from diskmag.errors import BracketFailure, InvalidParams, NonConvergence
from diskmag.fd import Grid1D, fd_disk_eigen, fd_disk_lambda
from diskmag.kummer import kummer_m
from diskmag.spectrum import (EigenPoint, bessel_jnp_first_zero,
                              boundary_residual, eigenfunction, ground_state,
                              lowest_eigenvalue)

from oracles import (bessel_jnp_first_zero_bisect, boundary_trace_quadrature,
                     fd_boundary_trace, nu_root_mp)
from refdata import CROSSINGS

_EPS = np.finfo(float).eps


class TestBoundaryResidual:
    def test_vanishes_on_reference_rows(self):
        for n in (0, 1):
            beta, eta = CROSSINGS[n]
            assert abs(boundary_residual(n, beta, 0.5 * (1.0 - eta))) < 1e-10

    def test_sign_pattern_around_ground_state(self):
        # characteristic test: the finite-difference eigenvalue splits the
        # eta axis into residual-positive below and residual-negative above
        eta_fd = fd_disk_lambda(0, 1.0, 2001) / 1.0

        def residual(eta):
            return boundary_residual(0, 1.0, 0.5 * (1.0 - eta))

        assert residual(0.01) > 0.0
        assert residual(eta_fd - 0.05) > 0.0
        assert residual(eta_fd + 0.05) < 0.0

    def test_requires_positive_beta(self):
        with pytest.raises(InvalidParams):
            boundary_residual(0, 0.0, 0.1)

    # (n, beta) with rough first and second Dirichlet poles D1 < D2 in eta
    @pytest.mark.parametrize("n,beta,d1_guess,d2_guess", [
        (16, 32.0, 3.4877, 8.8993), (20, 4.0, 142.2527, 205.054),
        (100, 50.0, 148.0978, 178.2873), (200, 390.0, 3.7906, 8.4548),
        (3, 0.5, 78.471, 187.6038)])
    def test_refused_past_first_dirichlet_pole(self, n, beta, d1_guess, d2_guess):
        # the bracket walk below beta = 2n relies on this: every eta past D1
        # raises, so the first accepted residual <= 0 lies below D1
        with mpmath.workdps(40):
            def dirichlet(eta):
                return mpmath.hyp1f1((1 - eta) / 2, n + 1, mpmath.mpf(beta) / 2)
            d1, d2 = (float(mpmath.findroot(dirichlet, g))
                      for g in (d1_guess, d2_guess))
        assert d1 == pytest.approx(d1_guess, rel=1e-4)
        assert d2 == pytest.approx(d2_guess, rel=1e-4)
        for eta in np.linspace(d1, d1 + 4.0 * (d2 - d1), 302)[1:-1]:
            with pytest.raises(NonConvergence):
                boundary_residual(n, beta, 0.5 * (1.0 - float(eta)))


class TestLowestEigenvalue:
    def test_free_disk(self):
        point = lowest_eigenvalue(0, 0.0)
        assert point.lam == 0.0 and math.isnan(point.eta)

    def test_bessel_route_against_series_oracle(self):
        for n in (1, 2, 7):
            oracle = bessel_jnp_first_zero_bisect(n)
            assert bessel_jnp_first_zero(n) == pytest.approx(oracle, abs=1e-9)
        point = lowest_eigenvalue(1, 0.0)
        assert point.lam == pytest.approx(bessel_jnp_first_zero_bisect(1) ** 2,
                                          rel=1e-9)

    def test_reference_row_high_mode(self):
        beta, eta = CROSSINGS[10]
        point = lowest_eigenvalue(10, beta)
        assert point.eta == pytest.approx(eta, abs=1e-12)

    def test_eta_lambda_consistency(self):
        point = lowest_eigenvalue(3, 17.0)
        assert point.eta * point.beta == pytest.approx(point.lam, rel=1e-14)

    def test_below_beta_when_field_dominates(self):
        # lambda(n, beta) < beta as soon as beta > 2n
        for n, beta in [(0, 1.0), (2, 5.0), (5, 11.0), (10, 30.0)]:
            assert lowest_eigenvalue(n, beta).lam < beta

    def test_small_field_upper_bound(self):
        # lambda(0, beta) <= beta^2 / 8 via the constant trial function
        for beta in np.arange(0.5, 30.0, 2.5):
            assert lowest_eigenvalue(0, beta).lam <= beta * beta / 8.0 + 1e-12

    def test_rejects_negative_mode(self):
        with pytest.raises(InvalidParams):
            EigenPoint(-1, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("n, beta, name", [
        (0, -5.0, "beta"), (0, math.nan, "beta"), (-1, 5.0, "n"),
        (3, math.nan, "beta"), (3, math.inf, "beta"), (0, math.inf, "beta"),
        (2.5, 10.0, "n"), (math.nan, 10.0, "n"), (math.inf, 10.0, "n")])
    def test_rejects_bad_arguments_by_name(self, n, beta, name):
        with pytest.raises(InvalidParams, match=rf"\b{name}="):
            lowest_eigenvalue(n, beta)

    def test_bracket_failure_when_scan_range_exhausted(self, monkeypatch):
        # eta(5, 1) ~ 36; a ceiling of 1 cannot bracket it, and for
        # beta < 2n there is no root below 1 either
        monkeypatch.setattr(spectrum, "_eta_scan_limit", lambda n, beta: 1.0)
        with pytest.raises(BracketFailure):
            spectrum._lowest_eigenvalue_cached.__wrapped__(5, 1.0)

    @pytest.mark.parametrize("n,beta", [(20, 0.5), (400, 10.0), (16, 32.0)])
    def test_bracket_walk_work_count(self, n, beta, monkeypatch):
        # the fixed 0.02 scan took 9 375 and 24 053 residual evaluations
        # at (20, 0.5) and (400, 10)
        assert 0 < len(self._residual_calls(n, beta, monkeypatch)) <= 40

    @pytest.mark.parametrize("n,beta", [
        *((n, beta) for n in (0, 10, 20) for beta in (45.0, 80.0, 200.0,
                                                       500.0, 900.0)),
        *((n, 2.0 * n + 1e-9) for n in (0, 10, 20, 400))])
    def test_log_nu_solve_work_count(self, n, beta, monkeypatch):
        # the eta solve on [0, 1] took 53 residual evaluations wherever nu*
        # is below eta's resolution (from beta ~ 80 at n = 0)
        assert len(self._residual_calls(n, beta, monkeypatch)) <= 15

    @pytest.mark.parametrize("n", [0, 100, 400])
    def test_log_nu_solve_work_count_at_crossing(self, n, monkeypatch):
        # (n+1, beta_n): the incoming branch, nu* ~ 0.2, where the eta
        # solve on [0, 1] took 8-9, and the ln nu solve must cost no more
        calls = self._residual_calls(n + 1, CROSSINGS[n][0], monkeypatch)
        assert len(calls) <= 10

    @staticmethod
    def _residual_calls(n, beta, monkeypatch):
        """Arguments of every boundary_residual call of one uncached solve."""
        calls = []
        residual = spectrum.boundary_residual

        def counted(*args):
            calls.append(args)
            return residual(*args)

        monkeypatch.setattr(spectrum, "boundary_residual", counted)
        spectrum._lowest_eigenvalue_cached.__wrapped__(n, beta)
        return calls

    # nu* from 1.9e-2 down to 1.7e-193
    @pytest.mark.parametrize("n,beta", [
        (0, 12.0), (2, 30.0), (5, 40.0), (0, 40.0), (3, 60.0), (0, 80.0),
        (10, 200.0), (0, 200.0), (0, 500.0), (20, 900.0), (0, 900.0)])
    def test_log_nu_solve_against_50_digit_root(self, n, beta):
        point = lowest_eigenvalue(n, beta)
        nu = nu_root_mp(n, beta)
        with mpmath.workdps(50):
            eta = 1 - 2 * nu
            assert abs(point.eta - eta) <= 4 * _EPS
            if nu < mpmath.mpf("1e-17"):
                assert point.eta == float(eta)  # correctly rounded
            # brent_root's tolerance 4 eps |u| in u = ln nu
            assert abs(point.nu - nu) <= 4 * _EPS * (1 - mpmath.log(nu)) * nu
        assert point.eta == 1.0 - 2.0 * point.nu
        assert point.lam == beta * point.eta

    @pytest.mark.parametrize("beta", [1e-9, 1e-6, 1e-4, 1e-2])
    def test_small_field_eta_to_absolute_eps(self, beta):
        # n = 0, beta << 1: eta ~ beta/8 is solved through nu ~ 1/2, so it
        # is good to ~eps absolute, not relative (8e-8 relative at 1e-9)
        point = lowest_eigenvalue(0, beta)
        nu = nu_root_mp(0, beta)
        with mpmath.workdps(50):
            # in 50 digits: at 15 the subtraction repeats the float's rounding
            eta = 1 - 2 * nu
            assert abs(point.eta - eta) <= 2 * _EPS
            assert abs(point.lam - beta * eta) <= 2 * _EPS * beta

    def test_refusal_raises_fast(self):
        # at eta ~ 1.6e5 the recurrence's error bound refuses every trial
        # point near the root; the walk gives up once its step falls below
        # the root finder's tolerance and reports the last refusal
        start = time.perf_counter()
        with pytest.raises(NonConvergence, match="error") as excinfo:
            spectrum._lowest_eigenvalue_cached.__wrapped__(400, 1.0)
        assert time.perf_counter() - start < 5.0
        assert isinstance(excinfo.value.__cause__, NonConvergence)

    @pytest.mark.parametrize("n,beta", [
        (19, 0.5), (20, 0.5), (10, 0.5), (20, 4.0), (1, 6.0)])
    def test_eta_is_residual_root_in_mpmath(self, n, beta):
        # the Neumann condition in 50-digit arithmetic, rooted from eta
        eta = lowest_eigenvalue(n, beta).eta
        with mpmath.workdps(50):
            x = mpmath.mpf(beta) / 2

            def neumann(e):
                nu = (1 - e) / 2
                return ((n + 1) * (n - x) * mpmath.hyp1f1(nu, n + 1, x)
                        + 2 * x * nu * mpmath.hyp1f1(nu + 1, n + 2, x))
            root = mpmath.findroot(neumann, mpmath.mpf(eta))
            assert abs(eta - root) <= 1e-15 * root

    def test_eta_approaches_one_at_leading_order(self):
        # 1 - eta(n, beta) ~ beta^{n+1} e^{-beta/2} / (2^n n!) for large beta
        for n in (0, 1, 2):
            for beta in (40.0, 50.0, 60.0):
                deficit = 1.0 - lowest_eigenvalue(n, beta).eta
                model = beta ** (n + 1) * math.exp(-0.5 * beta) \
                    / (2.0 ** n * math.factorial(n))
                assert 0.5 < deficit / model < 2.0


def mp_boundary_trace(point):
    """f(1) / ||f|| for f(r) = r^n e^{-beta r^2/4} M(nu, n+1, beta r^2/2) at
    the point's own eta, the norm by 12-point Gauss-Legendre on 120 equal
    cells over the boundary layer [1 - 16/sqrt(beta), 1] (plus one cell
    below it), all in 30-digit arithmetic."""
    n, pieces = point.n, 120
    with mpmath.workdps(30):
        beta = mpmath.mpf(point.beta)
        nu = mpmath.mpf(point.nu)

        def f(r):
            return (r ** n * mpmath.exp(-beta * r * r / 4)
                    * mpmath.hyp1f1(nu, n + 1, beta * r * r / 2))
        rule = GaussLegendre(mpmath.mp).calc_nodes(3, mpmath.mp.prec)
        lo = max(mpmath.mpf(0), 1 - 16 / mpmath.sqrt(beta))
        edges = [lo + (1 - lo) * k / pieces for k in range(pieces + 1)]
        if lo > 0:
            edges.insert(0, mpmath.mpf(0))
        norm = mpmath.mpf(0)
        for a, b in zip(edges[:-1], edges[1:]):
            mid, rad = (a + b) / 2, (b - a) / 2
            norm += rad * mpmath.fsum(w * (mid + rad * x) * f(mid + rad * x) ** 2
                                      for x, w in rule)
        return float(f(mpmath.mpf(1)) / mpmath.sqrt(norm))


class TestEigenfunction:
    @pytest.mark.parametrize("n", [0, 100, 400])
    def test_boundary_trace_at_crossing_against_mpmath(self, n):
        point = lowest_eigenvalue(n, CROSSINGS[n][0])
        trace = eigenfunction(point).boundary_trace
        assert abs(trace - mp_boundary_trace(point)) <= 1e-12 * trace

    def test_one_scalar_kummer_call_per_normalization(self, monkeypatch):
        # nu >= 0: every Gauss node comes from one many-z kernel call, so
        # only the boundary value M(nu, n+1, beta/2) goes through kummer_m
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return kummer_m(*args, **kwargs)

        monkeypatch.setattr(spectrum, "kummer_m", counted)
        monkeypatch.setattr(kummer_mod, "kummer_m", counted)
        point = lowest_eigenvalue(400, CROSSINGS[400][0])
        assert point.eta < 1.0
        eigenfunction(point)
        assert len(calls) <= 1

    @pytest.mark.parametrize("n,beta", [(7, 40.0), (6, 4.0)])
    def test_evaluate_at_boundary_is_the_trace(self, n, beta):
        # (6, 4.0) has eta > 1, nu < 0: the per-node kummer_m route
        handle = eigenfunction(lowest_eigenvalue(n, beta))
        assert handle.evaluate(1.0) == pytest.approx(handle.boundary_trace, rel=1e-13)

    @pytest.mark.parametrize("r", [-1e-12, -0.5, 1.0 + 1e-12, 2.0, math.nan])
    def test_evaluate_rejects_r_outside_unit_interval(self, r):
        handle = eigenfunction(lowest_eigenvalue(3, 10.0))
        with pytest.raises(InvalidParams):
            handle.evaluate(r)
        with pytest.raises(InvalidParams):
            handle.evaluate(np.array([0.0, 0.5, r]))

    def test_constant_limit_at_small_field(self):
        point = lowest_eigenvalue(0, 1e-4)
        handle = eigenfunction(point)
        assert handle.boundary_trace == pytest.approx(math.sqrt(2.0), abs=1e-4)
        mid = handle.evaluate(np.array([0.3, 0.6, 0.9]))
        assert np.allclose(mid, math.sqrt(2.0), atol=1e-3)

    def test_normalization_against_adaptive_quadrature(self):
        beta, eta = CROSSINGS[5]
        point = lowest_eigenvalue(5, beta)
        handle = eigenfunction(point)
        norm, err = quad(lambda r: handle.evaluate(r) ** 2 * r, 0.0, 1.0,
                         epsabs=1e-12, limit=200)
        assert norm == pytest.approx(1.0, abs=1e-10)

    def test_mode_zero_above_beta_is_refused(self):
        # eta > 1 at n = 0 is no eigenpoint (lambda(0, beta) < beta), and
        # M(nu, 1, x) with nu < 0 is outside the Kummer domain
        with pytest.raises(InvalidParams, match="needs b > 1"):
            eigenfunction(EigenPoint(0, 1.0, 2.0, 2.0))

    def test_positive_in_the_interior(self):
        point = lowest_eigenvalue(7, 40.0)
        handle = eigenfunction(point)
        values = handle.evaluate(np.linspace(0.05, 1.0, 40))
        assert np.all(values > 0.0)

    def test_boundary_trace_against_fd_eigenvector(self):
        beta, _ = CROSSINGS[5]
        point = lowest_eigenvalue(5, beta)
        trace = eigenfunction(point).boundary_trace
        _, vec = fd_disk_eigen(5, beta, Grid1D(0.0, 1.0, 8001))
        assert trace == pytest.approx(vec[-1], rel=1e-4)

    # (n, beta) past beta = 2n, nu* from 0.2 down to 1.7e-193 (traces 2 .. 1e-96)
    @pytest.mark.parametrize("n,beta", [
        (10, 30.0), (5, 40.0), (0, 40.0), (3, 60.0), (0, 80.0), (0, 150.0),
        (0, 200.0), (10, 200.0), (30, 300.0), (20, 400.0), (0, 500.0),
        (0, 900.0)])
    def test_boundary_trace_past_double_mode_against_quadrature(self, n, beta):
        # nu from the 50-digit root, the norm on a uniform mesh; the graded
        # mesh once left the bulk of (0, 500) on a few coarse cells (5e-7)
        trace = eigenfunction(lowest_eigenvalue(n, beta)).boundary_trace
        oracle = boundary_trace_quadrature(n, beta, float(nu_root_mp(n, beta)))
        assert trace == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("n,beta,rel", [
        (10, 30.0, 1e-9), (5, 40.0, 1e-9), (0, 40.0, 1e-9), (3, 60.0, 1e-9),
        (0, 80.0, 1e-9), (0, 150.0, 1e-7), (0, 200.0, 1e-7), (10, 200.0, 1e-7),
        (30, 300.0, 1e-7), (20, 400.0, 2e-6)])
    def test_boundary_trace_past_double_mode_against_fd(self, n, beta, rel):
        # the two-grid FD trace's error grows as the trace falls toward the
        # FD vector's ~1e-40 absolute noise: 2e-10 relative at traces down to
        # 4e-8, 4e-8 at 5e-21 (0, 200), 8e-7 at 1e-28 (20, 400); at (0, 500)
        # and (0, 900), traces 2e-53 and 1e-96, FD says nothing
        trace = eigenfunction(lowest_eigenvalue(n, beta)).boundary_trace
        assert trace == pytest.approx(fd_boundary_trace(n, beta), rel=rel)

    def test_neumann_condition_residual(self):
        beta = 12.5
        point = lowest_eigenvalue(4, beta)
        assert abs(boundary_residual(4, beta, point.nu)) < 1e-11


class TestGroundState:
    def test_mode_zero_below_first_crossing(self):
        point, k = ground_state(2.0)
        assert k == 0 and point.n == 0

    def test_mode_one_in_first_window(self):
        _, k = ground_state(5.0)
        assert k == 1

    def test_against_exhaustive_minimization(self):
        point, k = ground_state(28.0)
        brute = min((lowest_eigenvalue(n, 28.0).lam, n) for n in range(61))
        assert (point.lam, k) == brute

    def test_mode_index_nondecreasing(self):
        ks = [ground_state(beta)[1] for beta in np.arange(1.0, 61.0, 2.0)]
        assert all(b >= a for a, b in zip(ks, ks[1:]))

    def test_tie_reports_smaller_mode(self):
        beta, _ = CROSSINGS[2]
        _, k = ground_state(beta)
        assert k == 2


@pytest.mark.parametrize("call, args, name", [
    (lambda_prime, (2.7, 10.0), "n"),
    (crossing_by_system, (2.5,), "n"),
    (crossing_by_system, (-1,), "n"),
    (crossing_by_phi, (2.5,), "n"),
    (crossing_by_phi, (-1,), "n"),
    (ground_state, (math.nan,), "beta"),
    (ground_state, (math.inf,), "beta"),
    (ground_state, (-1.0,), "beta")])
def test_entry_points_reject_bad_arguments_by_name(call, args, name):
    # lambda_prime(2.7, .) and crossing_by_system(2.5) returned values for
    # modes that do not exist; n = -1 and a non-finite beta raised
    # ValueError before any domain check
    with pytest.raises(InvalidParams, match=rf"\b{name}="):
        call(*args)


@pytest.mark.parametrize("n", [3, np.int64(3), 3.0, np.float64(3.0)])
def test_integral_modes_are_accepted(n):
    assert lowest_eigenvalue(n, 10.0) == lowest_eigenvalue(3, 10.0)
    record = lambda_prime(n, 10.0)
    assert type(record.n) is int and record.n == 3


def _fibonacci_lattice(count: int) -> list[tuple[int, float]]:
    """(n, beta) with n in [0, 400] and beta log-spread over
    [max(0.5, n/4), 900], from two irrational rotations."""
    points = []
    for i in range(1, count + 1):
        n = round(400 * ((i * 0.6180339887498949) % 1.0))
        lo = max(0.5, n / 4.0)
        points.append((n, lo * (900.0 / lo) ** ((i * 0.7548776662466927) % 1.0)))
    return points


# beta >= n/4 keeps the sweep off the corner beta <= 1, n >= 200 (eta >~
# 8e4), where the recurrence's error bound refuses every trial point; the
# small-beta corners short of it are checked in test_eta_far_above_one
SWEEP = _fibonacci_lattice(24)


class TestFdAgreement:
    def test_kummer_vs_fd_spot_checks(self):
        for n, beta in [(1, 5.0), (10, 100.0)]:
            kummer_lam = lowest_eigenvalue(n, beta).lam
            fd_lam = fd_disk_lambda(n, beta, 4001)
            assert kummer_lam == pytest.approx(fd_lam, rel=1e-6)

    @pytest.mark.parametrize("n,beta", [
        (100, 50.0), (400, 100.0), (400, 200.0), (20, 0.5), (50, 0.5),
        (100, 0.5), (300, 2.0), (400, 2.0), (400, 10.0)])
    def test_eta_far_above_one(self, n, beta):
        # the alternating Kummer series gave 6 305.0, 30 434.0 and 29 960.0
        # at the first three; eta runs up to 8.2e4 at (400, 2)
        fd_lam = fd_disk_lambda(n, beta, 4001)
        assert lowest_eigenvalue(n, beta).lam == pytest.approx(fd_lam, rel=1e-8)

    @pytest.mark.parametrize("n,beta", [
        (0, 1450.0), (0, 1500.0), (0, 2000.0), (1, 1500.0), (3, 1500.0)])
    def test_large_field_past_ratio_overflow(self, n, beta):
        # x = beta/2 > 710: the Kummer ratio at brentq's eta = 1 end,
        # (e^x - 1)/x for n = 0, overflows, so the residual there skips it
        fd_lam = fd_disk_lambda(n, beta)
        assert lowest_eigenvalue(n, beta).lam == pytest.approx(fd_lam, rel=1e-9)

    def test_sweep_covers_both_regimes(self):
        assert len(SWEEP) == 24
        assert sum(beta <= 2 * n for n, beta in SWEEP) >= 8
        assert sum(beta > 2 * n for n, beta in SWEEP) >= 4

    @pytest.mark.parametrize("n,beta", SWEEP)
    def test_domain_sweep_against_fd(self, n, beta):
        # within 1e-6 of FD (absolute below lambda = 1); none is refused
        lam = lowest_eigenvalue(n, beta).lam
        fd_lam = fd_disk_lambda(n, beta, 4001)
        assert abs(lam - fd_lam) <= 1e-6 * max(1.0, abs(fd_lam))
