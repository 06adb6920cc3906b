import numpy as np
import pytest

from diskmag.errors import InvalidParams, TruncationWarning
from diskmag.fd import (Grid1D, TridiagSystem, assemble_degennes_system,
                        assemble_disk_system, fd_degennes_eigen,
                        fd_degennes_lambda, fd_disk_eigen, fd_disk_lambda,
                        solve_smallest)
from diskmag.spectrum import bessel_jnp_first_zero

from oracles import shooting_halfline_eigenvalue
from refdata import CROSSINGS, THETA0, XI0, XI0_HP


class TestGrid:
    def test_too_few_nodes_rejected(self):
        with pytest.raises(InvalidParams):
            Grid1D(0.0, 1.0, 8)

    def test_spacing_and_refinement(self):
        grid = Grid1D(0.0, 1.0, 101)
        assert grid.spacing == pytest.approx(0.01)
        fine = grid.refined()
        assert fine.count == 201
        assert np.allclose(fine.nodes()[::2], grid.nodes())

    def test_mass_positivity_enforced(self):
        with pytest.raises(InvalidParams):
            TridiagSystem(np.ones(4), -np.ones(3), np.array([1.0, -1.0, 1.0, 1.0]))
        system = assemble_disk_system(0, 5.0, Grid1D(0.0, 1.0, 64))
        assert np.all(system.mass > 0.0)


class TestDisk:
    def test_free_neumann_ground_state(self):
        lam, vec = fd_disk_eigen(0, 0.0, Grid1D(0.0, 1.0, 257))
        assert abs(lam) < 1e-10
        assert np.ptp(vec) < 1e-6 * abs(vec[0])  # constant eigenvector

    def test_bessel_limit(self):
        target = bessel_jnp_first_zero(1) ** 2
        assert fd_disk_lambda(1, 0.0, 2001) == pytest.approx(target, abs=1e-6)

    def test_crossing_row(self):
        beta, eta = CROSSINGS[0]
        assert fd_disk_lambda(0, beta, 4001) / beta == pytest.approx(eta, abs=1e-5)

    def test_second_order_convergence(self):
        grid = Grid1D(0.0, 1.0, 1001)
        lams = []
        for g in (grid, grid.refined(), grid.refined().refined()):
            lam, _ = fd_disk_eigen(3, 20.0, g)
            lams.append(lam)
        ratio = (lams[0] - lams[1]) / (lams[1] - lams[2])
        assert ratio == pytest.approx(4.0, abs=0.2)

    def test_ground_eigenvector_positive(self):
        _, vec = fd_disk_eigen(4, 30.0, Grid1D(0.0, 1.0, 2001))
        assert np.all(vec > -1e-12)

    def test_lambda_is_richardson_of_grid_pair(self):
        n, beta, count = 3, 20.0, 257
        coarse, _ = fd_disk_eigen(n, beta, Grid1D(0.0, 1.0, count))
        fine, _ = fd_disk_eigen(n, beta, Grid1D(0.0, 1.0, 2 * count - 1))
        assert fd_disk_lambda(n, beta, count) == fine + (fine - coarse) / 3.0

    def test_grid_must_span_unit_interval(self):
        with pytest.raises(InvalidParams):
            assemble_disk_system(1, 1.0, Grid1D(0.0, 2.0, 64))


class TestHalfLine:
    def test_interior_oscillator_limit(self):
        assert fd_degennes_lambda(-10.0, L=25.0, count=12001) == pytest.approx(
            1.0, abs=1e-4)

    def test_against_shooting_oracle(self):
        oracle = shooting_halfline_eigenvalue(0.0)
        assert fd_degennes_lambda(0.0) == pytest.approx(oracle, abs=1e-7)

    def test_de_gennes_point(self):
        assert fd_degennes_lambda(XI0, count=8001) == pytest.approx(THETA0, abs=1e-5)

    def test_second_order_convergence(self):
        grid = Grid1D(0.0, 15.0, 1001)
        lams = []
        for g in (grid, grid.refined(), grid.refined().refined()):
            lam, _ = fd_degennes_eigen(XI0, 15.0, g)
            lams.append(lam)
        ratio = (lams[0] - lams[1]) / (lams[1] - lams[2])
        assert ratio == pytest.approx(4.0, abs=0.1)

    def test_no_sign_change_in_ground_state(self):
        _, vec = fd_degennes_eigen(XI0, 15.0, Grid1D(0.0, 15.0, 2001))
        assert np.all(vec > -1e-12)

    def test_truncation_invariance(self):
        # same spacing, domain extended by 5: eigenvalue must not move
        count = 6001
        h = 15.0 / (count - 1)
        extended = count + round(5.0 / h)
        lam_short, _ = fd_degennes_eigen(XI0_HP, 15.0, Grid1D(0.0, 15.0, count))
        lam_long, _ = fd_degennes_eigen(
            XI0_HP, 15.0 + (extended - count) * h,
            Grid1D(0.0, 15.0 + (extended - count) * h, extended))
        assert abs(lam_short - lam_long) < 1e-10

    def test_truncation_warning_on_short_domain(self):
        with pytest.warns(TruncationWarning):
            fd_degennes_eigen(0.0, 4.0, Grid1D(0.0, 4.0, 512))

    def test_l_mismatch_rejected(self):
        with pytest.raises(InvalidParams):
            fd_degennes_eigen(0.0, 15.0, Grid1D(0.0, 12.0, 512))


class TestSolver:
    def test_normalization_in_weighted_l2(self):
        system = assemble_disk_system(2, 10.0, Grid1D(0.0, 1.0, 1001))
        _, vec = solve_smallest(system)
        assert np.sum(vec * vec * system.mass) == pytest.approx(1.0, rel=1e-12)

    def test_halfline_normalization_is_unweighted_l2(self):
        grid = Grid1D(0.0, 15.0, 2001)
        system = assemble_degennes_system(XI0, grid)
        _, vec = solve_smallest(system)
        h = grid.spacing
        trapz = h * (0.5 * vec[0] ** 2 + np.sum(vec[1:] ** 2))
        assert trapz == pytest.approx(1.0, rel=1e-12)
