import math

import pytest
from hypothesis import given, strategies as st
from scipy.optimize import minimize_scalar

import diskmag.crossings as crossings
from diskmag.crossings import (_system_residuals, crossing_by_curves,
                               crossing_by_phi, crossing_by_system,
                               saint_james_beta)
from diskmag.errors import InvalidParams
from diskmag.spectrum import boundary_residual, lowest_eigenvalue

from oracles import eta_prime
from refdata import CROSSINGS


class TestSaintJamesFormula:
    @given(st.floats(min_value=1e-6, max_value=0.999999))
    def test_mode_zero_closed_form(self, eta):
        assert saint_james_beta(0, eta) == pytest.approx(4.0 * eta + 2.0,
                                                         rel=1e-14)

    def test_reference_rows(self):
        beta0, eta0 = CROSSINGS[0]
        assert saint_james_beta(0, eta0) == pytest.approx(beta0, abs=1e-12)
        beta10, eta10 = CROSSINGS[10]
        assert saint_james_beta(10, eta10) == pytest.approx(beta10, abs=1e-9)

    @given(st.integers(min_value=0, max_value=300),
           st.floats(min_value=0.01, max_value=0.99))
    def test_solves_the_quadratic(self, n, eta):
        beta = saint_james_beta(n, eta)
        residual = beta * beta - 2.0 * (2.0 * eta + 2.0 * n + 1.0) * beta \
            + 4.0 * n * (n + 1.0)
        assert abs(residual) < 1e-8 * beta * beta
        assert beta > 2.0 * (n + 1.0)

    @pytest.mark.parametrize("n, eta", [
        (1, -0.1), (1, math.nan), (1, math.inf), (2.5, 0.3), (-1, 0.3)])
    def test_rejects_bad_arguments(self, n, eta):
        # (1, -0.1) raised a math domain error; (2.5, 0.3) and (-1, 0.3)
        # returned 9.53 and 8e-16
        with pytest.raises(InvalidParams):
            saint_james_beta(n, eta)


class TestCurveIntersection:
    def test_first_crossing(self):
        point = crossing_by_curves(0)
        beta0, eta0 = CROSSINGS[0]
        assert point.beta_n == pytest.approx(beta0, rel=1e-12)
        assert point.eta_star == pytest.approx(eta0, rel=1e-12)

    def test_agrees_with_system_method(self):
        by_curves = crossing_by_curves(3)
        by_system = crossing_by_system(3)
        assert by_curves.beta_n == pytest.approx(by_system.beta_n, rel=1e-10)

    def test_largest_reference_row(self):
        point = crossing_by_curves(400)
        beta400, eta400 = CROSSINGS[400]
        assert point.beta_n == pytest.approx(beta400, rel=1e-9)
        assert point.eta_star == pytest.approx(eta400, rel=1e-9)


class TestKummerSystem:
    @pytest.mark.parametrize("n", [1, 25])
    def test_reference_rows(self, n):
        point = crossing_by_system(n)
        beta, eta = CROSSINGS[n]
        assert point.beta_n == pytest.approx(beta, rel=1e-12)
        assert point.eta_star == pytest.approx(eta, rel=1e-12)

    def test_residuals_at_solution(self):
        point = crossing_by_system(7)
        assert max(abs(r) for r in point.sys_residuals) < 1e-12

    def test_lambda_star_consistency(self):
        point = crossing_by_system(4)
        assert point.lambda_star == pytest.approx(
            point.beta_n * point.eta_star, rel=1e-15)

    def test_capped_iteration_falls_back_to_curves(self, monkeypatch):
        monkeypatch.setattr(crossings, "_NEWTON_MAX_ITER", 0)
        point = crossing_by_system(3)
        assert point.method == "curve_intersection"
        assert point.beta_n == crossing_by_curves(3).beta_n

    def test_failed_step_halving_falls_back_to_curves(self, monkeypatch):
        # every Newton step raises the norm |x - x0| + |nu - nu0| + 1
        x0, nu0 = 4.0, 0.3
        monkeypatch.setattr(crossings, "_system_residuals", lambda n, x, nu: (
            1.0 + abs(x - x0), 1.0 + abs(nu - nu0)))
        curves_calls = []
        monkeypatch.setattr(crossings, "crossing_by_curves",
                            lambda n: curves_calls.append(n) or "curves")
        assert crossing_by_system(3, seed=(x0, nu0)) == "curves"
        assert curves_calls == [3]

    def test_system_is_the_eigenvalue_residual_at_n_and_n_plus_1(self):
        # nu = (1 - eta)/2 and x = beta/2 are exact at these points, so the
        # crossing system and the eigenvalue solve must agree bit for bit;
        # (5, x = 2, nu = -0.25) is a beta <= 2n point with eta > 1
        cases = [(n, x, nu, eta) for nu, eta in ((0.25, 0.5), (0.125, 0.75))
                 for n in (0, 3, 20) for x in (1.5, 7.0, 40.0)]
        cases.append((5, 2.0, -0.25, 1.5))
        for n, x, nu, eta in cases:
            assert nu == 0.5 * (1.0 - eta)
            assert _system_residuals(n, x, nu) == (
                boundary_residual(n, 2.0 * x, nu),
                boundary_residual(n + 1, 2.0 * x, nu))


class TestImplicitEquation:
    def test_mode_two_ratio(self):
        point = crossing_by_phi(2)
        assert point.eta_star == pytest.approx(CROSSINGS[2][1], abs=1e-12)

    def test_mode_hundred(self):
        point = crossing_by_phi(100)
        assert point.beta_n == pytest.approx(CROSSINGS[100][0], rel=5e-13)

    @pytest.mark.parametrize("n", range(0, 21))
    def test_agrees_with_curves(self, n):
        by_phi = crossing_by_phi(n)
        by_curves = crossing_by_curves(n)
        assert by_phi.beta_n == pytest.approx(by_curves.beta_n, rel=1e-11)


class TestInterlacing:
    def test_derivative_signs_at_first_crossing(self):
        # eta'(n, beta_n) > 0 > eta'(n+1, beta_n) forces
        # beta_min(n) < beta_n < beta_min(n+1)
        beta = crossing_by_system(0).beta_n
        left, right = eta_prime(0, beta), eta_prime(1, beta)
        assert left > 0.0 > right

    def test_signs_follow_the_closed_form(self):
        point = crossing_by_system(6)
        x_star = 0.5 * point.beta_n
        left, right = eta_prime(6, point.beta_n), eta_prime(7, point.beta_n)
        assert math.copysign(1.0, left) == math.copysign(1.0, x_star - 6.0)
        assert math.copysign(1.0, right) == math.copysign(1.0, 7.0 - x_star)

    def test_formula_against_central_difference(self):
        point = crossing_by_system(2)
        beta = point.beta_n
        h = 1e-5
        for m in (2, 3):
            fd = (lowest_eigenvalue(m, beta + h).eta
                  - lowest_eigenvalue(m, beta - h).eta) / (2.0 * h)
            assert eta_prime(m, beta) == pytest.approx(fd, abs=1e-5)

    def test_crossing_sits_between_curve_minima(self):
        points = {n: crossing_by_system(n) for n in (0, 1, 2, 3)}

        def beta_min(n):
            res = minimize_scalar(
                lambda b: lowest_eigenvalue(n, b).eta,
                bounds=(2.0 * n + 1e-3, points[n].beta_n + 40.0),
                method="bounded", options={"xatol": 1e-8})
            return float(res.x)

        minima = {n: beta_min(n) for n in (1, 2, 3)}
        assert points[0].beta_n < minima[1]
        for n in (1, 2):
            assert minima[n] < points[n].beta_n < minima[n + 1]
            assert minima[n] > 2.0 * n


class TestSweep:
    def test_sequence_invariants(self, crossings400):
        betas = [p.beta_n for p in crossings400]
        assert all(b2 > b1 for b1, b2 in zip(betas, betas[1:]))
        for p in crossings400:
            assert p.beta_n > 2.0 * (p.n + 1.0)
            assert 0.0 < p.eta_star < 1.0
            assert p.sj_residual < 1e-10 * p.beta_n

    def test_shorter_range_is_a_prefix(self, crossings400):
        # each crossing is seeded only by earlier ones, so a shorter range
        # is exactly the head of a longer one
        from diskmag.crossings import crossings_range
        assert crossings_range(160) == crossings400[:161]

    def test_n_max_checked_before_the_memo(self):
        # crossings_range(2.5) raised TypeError and crossings_range(-1)
        # returned (); 3.0 and 3 are one memo entry
        from diskmag.crossings import _crossings_pass, crossings_range
        for bad in (2.5, -1, math.nan):
            with pytest.raises(InvalidParams, match=r"\bn_max="):
                crossings_range(bad)
        points = crossings_range(3)
        misses = _crossings_pass.cache_info().misses
        assert crossings_range(3.0) is points
        assert _crossings_pass.cache_info().misses == misses
