import dataclasses
import math

import numpy as np
import pytest

from diskmag import degennes
from diskmag.degennes import (DeGennesConstants, boundary_pairing_check,
                              lambda1_check, lambda2_coefficients, lambda_dg,
                              minimize_theta0, stationarity)
from diskmag.errors import BracketFailure, InvalidParams
from diskmag.fd import Grid1D, assemble_degennes_system, solve_smallest

from oracles import fd_degennes_lambda, shooting_halfline_eigenvalue
from refdata import C1, C1_HP, THETA0, THETA0_HP, U00_HP, XI0, XI0_HP


class TestGroundEnergyCurve:
    def test_value_at_reference_minimizer(self):
        assert lambda_dg(XI0) == pytest.approx(THETA0, abs=1e-5)

    def test_interior_oscillator_limit(self):
        # potential well far inside the half line: boundary irrelevant
        assert lambda_dg(-6.9) == pytest.approx(1.0, abs=1e-4)

    def test_against_shooting_oracle_at_origin(self):
        oracle = shooting_halfline_eigenvalue(0.0)
        assert lambda_dg(0.0) == pytest.approx(oracle, abs=1e-7)

    def test_local_convexity_at_minimum(self):
        values = [lambda_dg(XI0_HP + s) for s in (-0.02, -0.01, 0.0, 0.01, 0.02)]
        second = np.diff(values, 2)
        assert np.all(second > 0.0)

    def test_same_number_as_fd_oracle(self):
        # one two-grid path: the constants route and the FD oracle agree bitwise
        for xi in (-2.0, XI0_HP, 0.0):
            assert lambda_dg(xi) == fd_degennes_lambda(xi)


class TestMinimization:
    def test_minimum_and_minimizer(self, constants):
        assert constants.theta0 == pytest.approx(THETA0, abs=1e-5)
        assert constants.xi0 == pytest.approx(XI0, abs=1e-3)
        assert constants.c1 == pytest.approx(C1, abs=1e-3)

    def test_high_precision_regression(self, constants):
        assert constants.theta0 == pytest.approx(THETA0_HP, abs=1e-8)
        assert constants.xi0 == pytest.approx(XI0_HP, abs=1e-8)
        assert constants.u0_trace == pytest.approx(U00_HP, abs=1e-8)
        assert constants.c1 == pytest.approx(C1_HP, abs=1e-8)

    def test_square_relation(self, constants):
        assert constants.theta0 - constants.xi0 ** 2 == pytest.approx(0.0, abs=1e-5)

    def test_bracket_without_sign_change_raises(self, monkeypatch):
        # xi0 ~ -0.768 lies outside (-2, -1): stationarity is negative at both ends
        monkeypatch.setattr(degennes, "_XI_BRACKET", (-2.0, -1.0))
        minimize_theta0.cache_clear()  # else the memoized root skips the bracket
        with pytest.raises(BracketFailure, match="stationarity"):
            minimize_theta0()

    def test_validate_rejects_inconsistent_record(self):
        bad = DeGennesConstants(theta0=0.6, xi0=-0.7, c1=0.25, u0_trace=0.87,
                                delta0_formula=0.16)
        with pytest.raises(InvalidParams):
            bad.validate()


class TestStationarity:
    def test_vanishes_at_minimizer(self, constants):
        assert abs(stationarity(constants.xi0)) < 1e-6

    def test_sign_away_from_minimizer(self, constants):
        assert stationarity(constants.xi0 + 0.1) > 0.0
        assert stationarity(constants.xi0 - 0.1) < 0.0

    def test_finite_difference_slope_at_minimizer(self, constants):
        step = 1e-4
        slope = (lambda_dg(constants.xi0 + step)
                 - lambda_dg(constants.xi0 - step)) / (2.0 * step)
        assert abs(slope) < 1e-5


class TestFirstOrderCoefficient:
    def test_equals_minus_c1(self, constants):
        assert constants.lambda1_check + constants.c1 == pytest.approx(
            0.0, abs=2e-3)
        assert constants.lambda1_check == pytest.approx(-0.254, abs=2e-3)

    def test_independent_of_delta(self, constants):
        v0 = lambda1_check(constants, delta=0.0)
        v1 = lambda1_check(constants, delta=1.0)
        assert abs(v1 - v0) < 1e-6

    def test_integration_by_parts_identity(self, constants):
        lhs, rhs = boundary_pairing_check(constants)
        assert lhs == pytest.approx(rhs, abs=1e-6)


class TestCorrectorSolve:
    @pytest.mark.parametrize("delta", [-1.0, 0.0, 0.7])
    def test_matches_dense_bordered_solve(self, delta):
        # on this grid h0 - lam0 without its last node is indefinite (a
        # Cholesky of it fails at node 26); without node 0 it is not
        grid = Grid1D(0.0, 10.0, 40)
        system = assemble_degennes_system(XI0_HP, grid)
        solve = degennes._GridSolve(XI0_HP, grid, system,
                                    solve_smallest(system, vectors=True))
        h1_u0 = solve.apply_h1(solve.u0, delta)
        rhs = -(h1_u0 - solve.inner(h1_u0) * solve.u0)
        u1 = solve.solve_corrector(rhs)
        system, size = solve.system, len(solve.u0)
        bordered = np.zeros((size + 1, size + 1))
        bordered[:size, :size] = (np.diag(system.diag - solve.lam0 * solve.mass)
                                  + np.diag(system.offdiag, 1)
                                  + np.diag(system.offdiag, -1))
        bordered[:size, size] = bordered[size, :size] = solve.mass * solve.u0
        exact = np.linalg.solve(bordered, np.append(solve.mass * rhs, 0.0))
        scale = np.max(np.abs(exact[:size]))
        assert np.max(np.abs(u1 - exact[:size])) <= 1e-10 * scale
        # the multiplier that u1 implies: M rhs - K u1 lies along M u0
        k_u1 = bordered[:size, :size] @ u1
        mu = solve.inner(solve.mass * rhs - k_u1) / solve.inner(solve.mass * solve.u0)
        assert mu == pytest.approx(exact[size], abs=1e-10 * max(1.0, abs(exact[size])))

    def test_orthogonal_to_ground_state_on_default_grids(self, constants):
        for solve in degennes._solve_pair(constants.xi0):
            h1_u0 = solve.apply_h1(solve.u0, 0.5)
            u1 = solve.solve_corrector(-(h1_u0 - solve.inner(h1_u0) * solve.u0))
            assert abs(solve.inner(u1)) <= 1e-12 * np.max(np.abs(u1))


def _three_point(values):
    """(c2, c1, c0) of the quadratic through (-1, 0, 1) -> values."""
    lm, l0, lp = values
    return 0.5 * (lp + lm) - l0, 0.5 * (lp - lm), l0


class TestSecondOrderProfile:
    def test_vertex_matches_closed_form(self, constants):
        assert constants.delta0_fit == pytest.approx(constants.delta0_formula,
                                                     abs=2e-3)

    def test_leading_coefficient(self, constants):
        target = 3.0 * constants.c1 * math.sqrt(constants.theta0)
        c2, _, _ = lambda2_coefficients(constants)
        assert c2 / target == pytest.approx(1.0, abs=1e-3)

    def test_profile_is_an_exact_quadratic(self, constants):
        # h1 affine, h2 quadratic and u1 linear in delta on each grid: the
        # quadratic through delta = -1, 0, 1 reproduces lambda2 off the nodes
        for solve in degennes._solve_pair(constants.xi0):
            c2, c1, c0 = _three_point([solve.lambda2(d) for d in (-1.0, 0.0, 1.0)])
            for delta in (-3.0, -0.75, 0.5, 2.0):
                assert abs(solve.lambda2(delta)
                           - (c2 * delta ** 2 + c1 * delta + c0)) <= 1e-12

    def test_offset_is_grid_stable(self, constants):
        coarse, _ = degennes._solve_pair(constants.xi0)
        c2, c1, c0 = _three_point([coarse.lambda2(d) for d in (-1.0, 0.0, 1.0)])
        vertex = -c1 / (2.0 * c2)
        coarse_c0 = c0 / c2 - vertex ** 2
        assert abs(coarse_c0 - constants.c0_fit) < 1e-3


class TestFilledRecord:
    def test_record_is_self_consistent(self, constants):
        constants.validate()
        assert constants.delta0_formula == pytest.approx(
            0.5 * constants.c1 / math.sqrt(constants.theta0), rel=1e-14)
        assert constants.c1 == pytest.approx(constants.u0_trace ** 2 / 3.0,
                                             rel=1e-14)

    def test_no_field_left_unfilled(self, constants):
        # minimize_theta0's partial record leaves delta0_fit, c0_fit and
        # lambda1_check NaN; compute_constants fills every field
        unfilled = [f.name for f in dataclasses.fields(constants)
                    if not math.isfinite(getattr(constants, f.name))]
        assert unfilled == []
