import math
import signal
import time
from contextlib import contextmanager

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath.calculus.quadrature import GaussLegendre
from scipy.integrate import quad

import diskmag.kummer as kummer_mod
import diskmag.spectrum as spectrum
from diskmag.crossings import crossing_by_phi, crossing_by_system
from diskmag.derivatives import lambda_prime
from diskmag.errors import BracketFailure, InvalidParams, NonConvergence
from diskmag.fd import (Grid1D, assemble_disk_system, fd_disk_lambda,
                        solve_smallest)
from diskmag.kummer import kummer_m
from diskmag.spectrum import (EigenPoint, bessel_jnp_first_zero,
                              boundary_residual, eigenfunction, ground_state,
                              lowest_eigenvalue)

from oracles import (bessel_jnp_first_zero_bisect, boundary_trace_quadrature,
                     fd_boundary_trace, ground_state_by_solves, nu_root_mp)
from refdata import CROSSINGS

_EPS = np.finfo(float).eps


@contextmanager
def alarm(seconds: float):
    """Raise TimeoutError in this process if the block runs past seconds."""
    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


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

    def test_rejects_non_integral_mode(self):
        # EigenPoint(2.5, ...) was accepted and eigenfunction normalized it
        with pytest.raises(InvalidParams, match=r"\bn="):
            EigenPoint(2.5, 10.0, 10.0, 1.0)
        point = EigenPoint(np.int64(2), 10.0, 10.0, 1.0)
        assert type(point.n) is int and point.n == 2

    @pytest.mark.parametrize("beta, lam", [
        (math.nan, 1.0), (math.inf, 1.0), (-1.0, 1.0),
        (2.0, math.nan), (2.0, math.inf), (2.0, -1.0)])
    def test_point_rejects_non_finite_beta_or_eigenvalue(self, beta, lam):
        # EigenPoint(2, nan, 1.0, 0.2) was constructed
        with pytest.raises(InvalidParams):
            EigenPoint(2, beta, lam, 0.2)

    def test_point_takes_nan_eta_at_zero_field(self):
        assert math.isnan(EigenPoint(2, 0.0, 9.3, math.nan).eta)

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

    def test_log_nu_solve_summed_work_count(self, monkeypatch):
        # 99 points past beta = 2n, nu* from 0.21 down to 1.7e-193: the
        # bracket [u1, u1 + ln 3] took 697 evaluations, [ln nu1, ln nu_c] 385
        assert self._summed_log_nu_work(monkeypatch) <= 450

    def test_log_nu_solve_summed_work_count_without_widening(self, monkeypatch):
        # the same 99 points took 386 evaluations while a bracket end whose
        # residual had the wrong sign first widened by ln 2; 316 once that
        # end is taken as the root
        assert self._summed_log_nu_work(monkeypatch) <= 330

    def _summed_log_nu_work(self, monkeypatch):
        return sum(len(self._residual_calls(n, float(beta), monkeypatch))
                   for n in (0, 5, 10, 20, 100, 400)
                   for beta in range(45, 901, 45) if beta > 2 * n)

    @staticmethod
    def _residual_calls(n, beta, monkeypatch):
        """Arguments of every boundary_residual call of one uncached solve."""
        calls = []
        residual = spectrum.boundary_residual

        def counted(*args):
            calls.append(args)
            return residual(*args)

        with monkeypatch.context() as patch:
            patch.setattr(spectrum, "boundary_residual", counted)
            spectrum._lowest_eigenvalue_cached.__wrapped__(n, beta)
        # perfbench's tracer counts a lowest_eigenvalue cache miss only
        # when a spectrum.residual span runs below it, so a solve with
        # none would read there as a mismatch against cache_info()
        assert len(calls) >= 1
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

    # nu* from 0.38 down to 4.8e-299
    @pytest.mark.parametrize("n,beta", [
        (0, 2.0), (0, 3.0), (1, 4.5), (2, 10.0), (5, 20.0), (0, 12.0),
        (2, 30.0), (0, 40.0), (3, 60.0), (10, 100.0), (20, 150.0), (0, 120.0),
        (100, 600.0), (10, 300.0), (0, 500.0), (5, 700.0), (20, 900.0),
        (0, 900.0), (0, 1390.0), (1, 1400.0), (400, 800.5), (400, 830.0),
        (400, 900.0)])
    def test_one_series_brackets_the_log_nu_root(self, n, beta):
        # the ends of the ln nu bracket from s 2^e = M(1, n+2, x) = sum t_k
        # and w 2^e = sum t_k/(k+1): nu1 with R = M(nu+1, n+2, x)/M(nu, n+1,
        # x) frozen at nu = 0 and nu_c with the sums frozen; nu_c may fall
        # short of nu* by its rounding only
        x = 0.5 * beta
        s, w, e = kummer_mod._series(1.0, n + 2.0, x)
        c = (n + 1.0) * (x - n) / x
        nu = nu_root_mp(n, beta)
        assert math.ldexp(0.5 * c / s, -e) <= nu
        assert nu <= math.ldexp(c / (2.0 * s - (x - n) * w), -e) * (1.0 + 1e-13)

    @pytest.mark.parametrize("beta", [1450.0, 1500.0, 2000.0])
    def test_nu_correctly_rounded_past_ratio_overflow(self, beta):
        # ln M(1, 2, beta/2) > 709: the ratio overflows near the root, and
        # nu is the frozen-sum root nu_c, the double nearest nu*, subnormal
        # at 1 500 (the frozen-ratio seed gave 4.9e-324 there, 1/3 of it)
        # and 0.0 at 2 000
        point = lowest_eigenvalue(0, beta)
        assert point.nu == float(nu_root_mp(0, beta))
        assert (point.eta, point.lam) == (1.0, beta)

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

    @pytest.mark.parametrize("beta", [5e-324, 1e-323])
    def test_subnormal_field_at_mode_zero(self, beta):
        # at 5e-324, x = beta/2 rounds to 0, which the ln nu solve divided
        # by (ZeroDivisionError); eta ~ beta/8 underflows at both
        point = spectrum._lowest_eigenvalue_cached.__wrapped__(0, beta)
        assert (point.lam, point.eta, point.nu) == (0.0, 0.0, 0.5)

    @staticmethod
    def _log_nu_ends(n, beta):
        """(ln nu1, ln nu_c), each capped at ln 1/2, as _solve_log_nu
        computes them from one series."""
        x = 0.5 * beta
        s, w, e = kummer_mod._series(1.0, n + 2.0, x)
        c = (n + 1.0) * (x - n) / x
        return tuple(min(math.log(v) - e * math.log(2.0), -math.log(2.0))
                     for v in (0.5 * c / s, c / (2.0 * s - (x - n) * w)))

    @staticmethod
    def _end_values(n, beta, monkeypatch):
        """The solved point and the residual at each call of its solve."""
        values = []
        real = spectrum.boundary_residual
        with monkeypatch.context() as patch:
            patch.setattr(spectrum, "boundary_residual", lambda *args:
                          values.append(real(*args)) or values[-1])
            point = spectrum._solve_log_nu(n, beta)
        return point, values

    @pytest.mark.parametrize("n,beta", [(218, 436.00000000000006),
                                        (1, 2.0000000000000013)])
    def test_lower_bracket_end_is_the_root_where_the_ends_meet(self, n, beta,
                                                               monkeypatch):
        # beta = 2n (1 + O(eps)): nu1 = nu_c to rounding, and the residual
        # at nu1 comes out +1.7e-31 and +1.3e-30, rounding noise of the
        # wrong sign, so nu1 is the root (731 of 28 709 probe solves at
        # beta just above 2n, n = 1..449, have a lower end like this)
        point, values = self._end_values(n, beta, monkeypatch)
        assert len(values) == 2 and values[0] >= 0.0
        assert point.nu == math.exp(self._log_nu_ends(n, beta)[0])
        assert boundary_residual(n, beta, point.nu * (1.0 - 1e-9)) < 0.0
        assert boundary_residual(n, beta, point.nu * (1.0 + 1e-9)) > 0.0

    @pytest.mark.parametrize("n,beta", [(10, 200.0), (20, 900.0), (0, 900.0)])
    def test_upper_bracket_end_is_the_root_below_rounding(self, n, beta,
                                                          monkeypatch):
        # nu* = 9.3e-29, 7.6e-159, 1.7e-193: nu_c is nu* to rounding and the
        # residual there comes out <= 0 (-2.7e-15, -4.1e-15, -1.2e-15),
        # rounding noise of the wrong sign, so nu_c is the root
        point, values = self._end_values(n, beta, monkeypatch)
        assert len(values) == 2 and values[1] <= 0.0
        assert point.nu == math.exp(self._log_nu_ends(n, beta)[1])
        nu = nu_root_mp(n, beta)
        with mpmath.workdps(50):
            # brent_root's tolerance 4 eps |u| in u = ln nu
            assert abs(point.nu - nu) <= 4 * _EPS * (1 - mpmath.log(nu)) * nu

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

    def test_normalization_past_the_potential_minimum(self):
        # r0 = sqrt(2n/beta) = 0.085: one 8-point cell once spanned [0.062,
        # 0.383], leaping over r0's window, and the norm was 4.7e-2 off
        handle = eigenfunction(lowest_eigenvalue(10, 2800.0))
        norm, _ = quad(lambda r: handle.evaluate(r) ** 2 * r, 0.0, 1.0,
                       epsabs=1e-13, epsrel=1e-13, points=[0.085], limit=200)
        assert norm == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("beta", [1600.0, 2800.0, 2e4])
    def test_mode_zero_at_underflowed_nu_is_the_gaussian(self, beta, monkeypatch):
        # nu underflows to 0.0, and M(0, 1, z) = 1: f = e^(-beta r^2 / 4),
        # whose trace is sqrt(beta) e^(-beta/4) / sqrt(1 - e^(-beta/2)); no
        # series runs at a = 0 (summing one to z = 1e4 took eigenfunction
        # 0.65 s at beta = 2e4), and at 2 800 no cell leaps over r = 0's
        # window (the trace was 4.8e-5 off)
        series = kummer_mod._series

        def no_series_at_zero_a(a, b, z):
            assert a != 0.0, f"series summed at a = 0 (b={b}, z={z})"
            return series(a, b, z)

        monkeypatch.setattr(kummer_mod, "_series", no_series_at_zero_a)
        with alarm(10.0):
            point = lowest_eigenvalue(0, beta)
            assert point.nu == 0.0
            trace = eigenfunction(point).boundary_trace
        closed = math.sqrt(beta) * math.exp(-0.25 * beta) / math.sqrt(
            -math.expm1(-0.5 * beta))
        assert abs(trace - closed) <= 1e-12 * closed

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
        _, vec = solve_smallest(assemble_disk_system(5, beta, Grid1D(0.0, 1.0, 8001)),
                                vectors=True)
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

    def test_same_as_solving_every_neighbour(self, crossings400, monkeypatch):
        betas = [5.0 * i for i in range(1, 181)] + [0.05 * i for i in range(1, 201)]
        betas += [p.beta_n * f for p in crossings400
                  for f in (1.0 - 1e-12, 1.0, 1.0 + 1e-12)]
        expected = [ground_state_by_solves(beta) for beta in betas]  # fills the memo
        signs = []
        real = spectrum.boundary_residual
        monkeypatch.setattr(spectrum, "boundary_residual", lambda m, beta, nu:
                            signs.append((m, beta)) or real(m, beta, nu))
        assert [ground_state(beta) for beta in betas] == expected
        # at beta <= 10 the neighbours m >= beta/2 are solved or bounded by
        # their least potential, not signed
        assert signs and all(beta > 2 * m for m, beta in signs)

    @pytest.mark.parametrize("beta", [5e-324, 1e-323, 1e-300, 1e-8])
    def test_tiny_field_is_mode_zero(self, beta, monkeypatch):
        # lambda(1) exceeds its least potential (1 - beta/2)^2 ~ 1, far above
        # lambda(0) ~ beta^2/8, so mode 1 is never solved: its eta walk
        # starts at (1 - beta/2)^2 / beta, inf below ~5.6e-309, and its
        # descent takes ~1/(2 beta) recurrence steps
        solved = []
        monkeypatch.setattr(spectrum, "lowest_eigenvalue",
                            lambda n, b: solved.append(n) or lowest_eigenvalue(n, b))
        assert ground_state(beta) == (lowest_eigenvalue(0, beta), 0)
        assert solved == [0]

    @pytest.mark.parametrize("beta", [28.0, 100.0, 377.0, 899.0])
    def test_solves_only_the_modes_it_visits(self, beta, monkeypatch):
        solved = []
        monkeypatch.setattr(spectrum, "lowest_eigenvalue",
                            lambda n, b: solved.append(n) or lowest_eigenvalue(n, b))
        _, k = ground_state(beta)
        seed = round(0.5 * beta + spectrum.XI0_SEED * math.sqrt(beta))
        assert set(solved) == set(range(min(seed, k), max(seed, k) + 1))

    @pytest.mark.parametrize("untrusted", ["near_zero", "raises"])
    @pytest.mark.parametrize("beta", [28.0, 100.0, 377.0, 899.0])
    def test_untrusted_sign_solves_the_neighbour(self, beta, untrusted,
                                                 monkeypatch):
        expected = ground_state_by_solves(beta)  # fills the memo first

        def residual(*args):
            # a sign rule that took this would walk down past the minimum
            if untrusted == "raises":
                raise NonConvergence("refused")
            return -1e-13

        monkeypatch.setattr(spectrum, "boundary_residual", residual)
        solved = []
        monkeypatch.setattr(spectrum, "lowest_eigenvalue",
                            lambda n, b: solved.append(n) or lowest_eigenvalue(n, b))
        point, k = ground_state(beta)
        assert (point, k) == expected
        assert {k - 1, k + 1} <= set(solved)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 449).flatmap(lambda m: st.tuples(
    st.just(m), st.floats(max(2.0 * m, 1e-3), 900.0, exclude_min=True))))
@example((0, 0.1))
@example((400, 800.5))
@example((400, 899.0))
@example((218, 436.00000000000006))  # the lower bracket end is the root here
def test_residual_changes_sign_once_at_the_root(case):
    # the fact ground_state's sign rule rests on: at beta > 2m the residual
    # rises through one root in nu, the solved nu*.  The floor 1e-3 keeps
    # nu* (1 + 1e-9) below 1/2: at m = 0, 1/2 - nu* ~ eta/2 ~ beta/16
    m, beta = case
    nu_star = lowest_eigenvalue(m, beta).nu
    grid = sorted({*np.geomspace(1e-300, 0.5, 48).tolist(),
                   nu_star * (1.0 - 1e-9), nu_star * (1.0 + 1e-9)})
    signs = [boundary_residual(m, beta, nu) > 0.0 for nu in grid]
    changes = [i for i in range(len(grid) - 1) if signs[i] != signs[i + 1]]
    assert len(changes) == 1 and not signs[0]
    assert grid[changes[0]] < nu_star < grid[changes[0] + 1]


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
        # ln M(1, n+2, beta/2) > 709: the Kummer ratio would overflow on
        # the way to nu*, so the solve returns nu_c with no residual
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
