import math

import numpy as np
import pytest

from diskmag.derivatives import (conjecture_scan, lambda_prime,
                                 one_sided_chain, one_sided_derivatives)
from diskmag.errors import InsufficientData, InvalidParams
from diskmag.richardson import richardson_iterate

from oracles import eta_prime
from refdata import CROSSINGS, DERIVATIVES


class TestLambdaPrime:
    def test_left_derivative_at_first_crossing(self):
        record = lambda_prime(0, CROSSINGS[0][0])
        assert record.dlambda == pytest.approx(DERIVATIVES[0][0], abs=1e-5)
        assert record.fh_vs_fd_gap < 1e-5

    def test_right_derivative_at_first_crossing(self):
        record = lambda_prime(1, CROSSINGS[0][0])
        assert record.dlambda == pytest.approx(DERIVATIVES[0][1], abs=1e-5)

    def test_negative_below_double_mode(self):
        # beta < 2n forces a decreasing branch
        assert lambda_prime(3, 5.0).dlambda < 0.0

    def test_formula_vs_central_difference_grid(self):
        for n in range(0, 11, 2):
            for beta in (1.0, 5.0, 10.0, 30.0):
                record = lambda_prime(n, beta)
                assert record.fh_vs_fd_gap < 1e-5
                if beta < 2.0 * n:
                    assert record.dlambda < 0.0

    @pytest.mark.parametrize("beta", [1e-9, 1e-6, 5e-6])
    def test_small_field_step_stays_positive(self, beta):
        # the step 1e-5 max(1, beta) exceeded beta here and lambda(0, beta - h)
        # raised InvalidParams; lambda'(0, beta) = beta/4 + O(beta^3)
        record = lambda_prime(0, beta)
        assert record.dlambda == pytest.approx(0.25 * beta, rel=1e-12)
        assert record.fh_vs_fd_gap <= 1e-6 * record.dlambda

    def test_trace_square_positive(self):
        record = lambda_prime(2, 9.0, cross_check=False)
        assert record.boundary_trace_sq > 0.0
        assert math.isnan(record.fh_vs_fd_gap)

    @pytest.mark.parametrize("n,beta", [
        (0, 150.0), (0, 200.0), (10, 200.0), (20, 400.0), (30, 300.0),
        (0, 900.0)])
    def test_matches_central_difference_past_double_mode(self, n, beta):
        # nu* = 2e-31 .. 2e-193 here; with nu taken from 1 - eta (~2e-16)
        # the trace was ~14 at (0, 200) and lambda' 4 801
        record = lambda_prime(n, beta)
        assert record.fh_vs_fd_gap <= 1e-6
        assert record.boundary_trace_sq < 1e-20


class TestOneSided:
    def test_reference_values(self, crossings400):
        by_n = {p.n: p for p in crossings400}
        for n, (want_left, want_right) in DERIVATIVES.items():
            left, right = one_sided_derivatives(n, crossing=by_n[n])
            assert left == pytest.approx(want_left, abs=1e-5)
            assert right == pytest.approx(want_right, abs=1e-5)

    def test_left_dominates_right(self, crossings400):
        for point in crossings400[:30]:
            left, right = one_sided_derivatives(point.n, crossing=point)
            assert left > right


class TestCurveShape:
    def test_mode_zero_ratio_increasing(self):
        for beta in np.arange(0.5, 30.0, 2.5):
            assert eta_prime(0, beta) > 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_single_minimum_past_double_mode(self, n):
        betas = np.arange(0.5, 4.0 * n + 24.0, 0.25)
        signs = np.sign([eta_prime(n, b) for b in betas])
        flips = np.nonzero(np.diff(signs) != 0.0)[0]
        assert len(flips) == 1
        assert betas[flips[0]] > 2.0 * n


class TestConjectureScan:
    def test_small_grid_passes(self, constants):
        report = conjecture_scan(np.arange(1.0, 30.0, 1.0), 400,
                                 constants.theta0)
        assert report.all_passed
        names = [item.name for item in report.items]
        assert names == ["eta_below_theta0", "eta_star_increasing",
                         "right_derivative_positive", "lambda_slope_positive"]

    def test_eta_bound_reduces_to_crossing_ratios(self, constants, crossings400):
        # at beta = beta_n the envelope ratio equals eta_n*, so the scan
        # margin at crossings is eta_n* - Theta0
        point = crossings400[400]
        assert point.eta_star < constants.theta0
        report = conjecture_scan([point.beta_n, point.beta_n + 0.5], 400,
                                 constants.theta0)
        item = report.item("eta_below_theta0")
        assert item.extremal == pytest.approx(
            point.eta_star - constants.theta0, abs=1e-9)

    def test_rejects_empty_grid(self, constants):
        with pytest.raises(InsufficientData):
            conjecture_scan([], 400, constants.theta0)

    def test_rejects_single_crossing(self, constants):
        with pytest.raises(InsufficientData):
            conjecture_scan([1.0, 2.0], 0, constants.theta0)

    def test_envelope_ratio_bounded_by_first_crossing(self, crossings400):
        # below beta_0 the envelope is the increasing mode-0 curve, so
        # eta(beta) stays under eta_0*
        from diskmag.spectrum import ground_state
        beta0, eta0_star = crossings400[0].beta_n, crossings400[0].eta_star
        for beta in np.linspace(0.2, beta0, 12):
            point, k = ground_state(beta)
            assert k == 0
            assert point.eta <= eta0_star + 1e-12


class TestLimits:
    def test_boundary_trace_limit(self, constants, crossings400):
        # beta_n^{-1/2} f_{n, beta_n}(1)^2 -> u0(0)^2: the boundary layer
        # of the crossing eigenfunction converges to the half-line profile
        by_n = {p.n: p for p in crossings400}
        seq = {}
        for n in (25, 50, 100, 200, 400):
            rec = lambda_prime(n, by_n[n].beta_n, cross_check=False)
            seq[n] = rec.boundary_trace_sq / math.sqrt(by_n[n].beta_n)
        limit = richardson_iterate(seq, 4)[25]
        assert limit == pytest.approx(constants.u0_trace ** 2, abs=2e-3)

    def test_no_r4_without_a_doubling_chain(self):
        # 0..9 holds no n, 2n, ..., 16n with n >= 1
        left, right, r4_left, r4_right = one_sided_chain(range(10), 9)
        assert sorted(left) == sorted(right) == list(range(10))
        assert r4_left == r4_right == {}

    def test_chain_rejects_negative_index(self):
        # crossings_range(2)[-1] would silently pair n = -1 with beta_2
        with pytest.raises(InvalidParams):
            one_sided_chain([-1, 0, 1], 2)

    def test_limits_against_constants(self, constants):
        chain = sorted({base * 2 ** k for base in (1, 3, 5, 7, 9, 25)
                        for k in range(5)} | {0, 2, 4, 6, 8, 10})
        _, _, r4_left, r4_right = one_sided_chain(chain, chain[-1])
        spread = 1.5 * constants.c1 * abs(constants.xi0)
        assert r4_left[25] == pytest.approx(constants.theta0 + spread, abs=2e-3)
        assert r4_right[25] == pytest.approx(constants.theta0 - spread, abs=2e-3)
