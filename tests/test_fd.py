import importlib.util
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from diskmag import degennes, fd
from diskmag.errors import InvalidParams, NonConvergence
from diskmag.fd import (Grid1D, TridiagSystem, assemble_degennes_system,
                        assemble_disk_system, fd_disk_lambda, solve_pair,
                        solve_smallest)
from diskmag.spectrum import bessel_jnp_first_zero, lowest_eigenvalue

from oracles import (TruncationWarning, fd_degennes_eigen, fd_degennes_lambda,
                     shooting_halfline_eigenvalue, sturm_smallest_mp)
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

    def test_coarsening_keeps_every_16th_node(self):
        grid = Grid1D(0.0, 15.0, 8001)
        coarse = grid.coarsened()
        assert coarse.count == 501
        assert np.array_equal(grid.nodes()[::16], coarse.nodes())
        assert Grid1D(0.0, 1.0, 1001).coarsened() is None  # 1000 cells
        assert Grid1D(0.0, 1.0, 225).coarsened() is None  # 15 nodes left
        assert Grid1D(0.0, 1.0, 241).coarsened().count == 16

    def test_mass_positivity_enforced(self):
        with pytest.raises(InvalidParams):
            TridiagSystem(np.ones(4), -np.ones(3), np.array([1.0, -1.0, 1.0, 1.0]))
        system = assemble_disk_system(0, 5.0, Grid1D(0.0, 1.0, 64))
        assert np.all(system.mass > 0.0)


class TestDisk:
    def test_free_neumann_ground_state(self):
        lam, vec = solve_smallest(assemble_disk_system(0, 0.0, Grid1D(0.0, 1.0, 257)),
                                  vectors=True)
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
            lam, _ = solve_smallest(assemble_disk_system(3, 20.0, g))
            lams.append(lam)
        ratio = (lams[0] - lams[1]) / (lams[1] - lams[2])
        assert ratio == pytest.approx(4.0, abs=0.2)

    def test_ground_eigenvector_positive(self):
        _, vec = solve_smallest(assemble_disk_system(4, 30.0, Grid1D(0.0, 1.0, 2001)),
                                vectors=True)
        assert np.all(vec > -1e-12)

    def test_lambda_is_richardson_of_grid_pair(self):
        n, beta, count = 3, 20.0, 257
        (*_, (coarse, _)), (*_, (fine, _)) = solve_pair(
            solve_smallest, partial(assemble_disk_system, n, beta),
            Grid1D(0.0, 1.0, count))
        assert fd_disk_lambda(n, beta, count) == fine + (fine - coarse) / 3.0

    def test_grid_must_span_unit_interval(self):
        with pytest.raises(InvalidParams):
            assemble_disk_system(1, 1.0, Grid1D(0.0, 2.0, 64))

    def test_small_field_error_is_absolute(self):
        # lambda(0, beta) ~ beta^2/8, but the FD error stays ~5e-9 absolute
        # (3e-9 at beta = 1e-3, a 2.4 % relative error there)
        for beta in (1e-3, 1e-2, 0.1, 1.0):
            exact = lowest_eigenvalue(0, beta).lam
            assert abs(fd_disk_lambda(0, beta) - exact) <= 1e-8


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
        _, vec = solve_smallest(system, vectors=True)
        assert np.sum(vec * vec * system.mass) == pytest.approx(1.0, rel=1e-12)

    def test_halfline_normalization_is_unweighted_l2(self):
        grid = Grid1D(0.0, 15.0, 2001)
        system = assemble_degennes_system(XI0, grid)
        _, vec = solve_smallest(system, vectors=True)
        h = grid.spacing
        trapz = h * (0.5 * vec[0] ** 2 + np.sum(vec[1:] ** 2))
        assert trapz == pytest.approx(1.0, rel=1e-12)

    def test_vectors_only_on_request(self):
        system = assemble_disk_system(2, 10.0, Grid1D(0.0, 1.0, 4001))
        lam, vec = solve_smallest(system)
        assert vec is None
        assert solve_smallest(system, vectors=True)[0] == lam


@pytest.mark.parametrize("call, args", [
    (degennes.lambda_dg, (np.nan,)), (degennes.stationarity, (np.inf,)),
    (degennes.lambda_dg, (-np.inf,)), (fd_disk_lambda, (0, np.nan, 101)),
    (fd_disk_lambda, (3, np.inf, 4001)),
    (assemble_disk_system, (1, -np.inf, Grid1D(0.0, 1.0, 64)))])
def test_non_finite_field_or_shift_rejected(call, args):
    # LAPACK's dstebz took them and failed with info = 4 (NonConvergence)
    with pytest.raises(InvalidParams, match="must be finite"):
        call(*args)


def _symmetrized(system):
    root_m = np.sqrt(system.mass)
    return (system.diag / system.mass,
            system.offdiag / (root_m[:-1] * root_m[1:]), root_m)


def _index_mode_reference(system):
    """Smallest eigenpair by scipy's bisection by index, with the
    eigenvector scaled and sign-fixed as solve_smallest documents."""
    d, e, root_m = _symmetrized(system)
    vals, vecs = eigh_tridiagonal(d, e, select="i", select_range=(0, 0),
                                  tol=fd._EIG_ABSTOL)
    v = vecs[:, 0] / root_m
    v = v / np.sqrt(np.sum(v * v * system.mass))
    if v[np.argmax(np.abs(v))] < 0.0:
        v = -v
    return vals[0], v


# Measured over TestInverseIteration's exact-value cases, in units of
# fd._allowance: inverse iteration comes within 0.029 of the exact lambda0
# of the double matrix, dstebz by index within 0.071; the bound leaves a
# margin over both and over their difference.
_BACKWARD_ERROR = 0.25


def _widened(lam):
    """solve_pair's 8h bracket around the coarser grid's lambda0."""
    half = fd._BRACKET_WIDENING * abs(lam)
    return lam - half, lam + half


def _assert_same_as_index_mode(assemble, grid, taken=True):
    system = assemble(grid)
    d, e, _ = _symmetrized(system)
    bracket = _widened(solve_smallest(assemble(grid.coarsened()))[0])
    lam = solve_smallest(system, bracket=bracket)[0]
    found = fd._inverse_iteration(d, e, *bracket)
    assert lam == (found[0] if taken else solve_smallest(system)[0])
    assert (found is not None) == taken
    ref_lam, ref_vec = _index_mode_reference(system)
    assert abs(lam - ref_lam) <= _BACKWARD_ERROR * fd._allowance(d, e)
    vec = solve_smallest(system, vectors=True)[1]
    assert np.max(np.abs(vec - ref_vec)) <= 1e-12


class TestBracketedSolve:
    """The 8h route, inverse iteration on the coarsened system's lambda0
    +- 1 %, returns lambda0 within the backward error of the bisection by
    index (16x coarser here, a wider step than 16h -> 8h); the unbracketed
    solve returns the same eigenvector."""

    @pytest.mark.parametrize("count", [4001, 8001])
    @pytest.mark.parametrize("n, beta", [(0, 0.0), (0, 1e-4), (1, 0.0),
                                         (20, 900.0), (400, 1.0),
                                         (400, 400.5), (0, 900.0)])
    def test_disk(self, n, beta, count):
        # at n = 400, beta = 1 lambda1 is 6.7 % above lambda0, so the rate
        # (lambda0 - lo) / (lambda1 - lo) is ~0.13 and the iteration needs
        # 9 solves: past the cap, the index mode answers
        _assert_same_as_index_mode(partial(assemble_disk_system, n, beta),
                                   Grid1D(0.0, 1.0, count),
                                   taken=(n, beta) != (400, 1.0))

    @pytest.mark.parametrize("count", [8001, 16001])
    @pytest.mark.parametrize("xi", [-2.0, XI0_HP, 0.0])
    def test_half_line(self, xi, count):
        _assert_same_as_index_mode(partial(assemble_degennes_system, xi),
                                   Grid1D(0.0, 15.0, count))

    def test_bad_brackets_fall_back_to_the_index_mode(self):
        system = assemble_disk_system(400, 1.0, Grid1D(0.0, 1.0, 4001))
        d, e, _ = _symmetrized(system)
        lam0, lam1, lam2 = eigh_tridiagonal(
            d, e, eigvals_only=True, select="i", select_range=(0, 2),
            tol=fd._EIG_ABSTOL)
        between = 0.5 * (lam1 + lam2)
        # around 0.5 lambda0 the iteration converges above hi; around
        # between and 10 lambda0, lo lies above lambda0; 0: empty bracket
        assert lam0 < _widened(between)[0] < lam2
        ref_lam = _index_mode_reference(system)[0]
        for guess in (0.5 * lam0, between, 10.0 * lam0, 0.0):
            assert solve_smallest(system, bracket=_widened(guess))[0] == ref_lam


def test_bad_hints_fall_back_to_the_unhinted_solve():
    system = assemble_disk_system(400, 1.0, Grid1D(0.0, 1.0, 4001))
    d, e, _ = _symmetrized(system)
    lam0, lam1 = eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                                  select_range=(0, 1), tol=fd._EIG_ABSTOL)
    lam, vec = solve_smallest(system, vectors=True)
    above = (0.5 * (lam0 + lam1), 1.01 * lam1)  # holds lambda1, not lambda0
    below = (0.5 * lam0, 0.99 * lam0)
    empty = (1.01 * lam0, 0.99 * lam0)  # lo >= hi
    for bracket in (above, below, empty):
        assert solve_smallest(system, bracket=bracket)[0] == lam
        hinted, hinted_vec = solve_smallest(system, vectors=True, bracket=bracket)
        assert hinted == lam
        assert np.max(np.abs(hinted_vec - vec)) <= 1e-12


def _recorded(monkeypatch, module, call):
    """Run call() and return the (system, bracket, (lambda0, vector)) of
    each solve through module's solve_smallest binding, and for each of
    fd's dstebz, dpttrf and dpttrs the (size, first argument, other
    arguments) of each call."""
    solved, calls = [], {"dstebz": [], "dpttrf": [], "dpttrs": []}
    real_solve = module.solve_smallest

    def solve(system, **kwargs):
        result = real_solve(system, **kwargs)
        solved.append((system, kwargs.get("bracket"), result))
        return result

    def recording(name, real):
        def lapack_call(d, *args):
            calls[name].append((len(d), d.copy(), args))
            return real(d, *args)
        return lapack_call
    with monkeypatch.context() as patch:
        patch.setattr(module, "solve_smallest", solve)
        for name in calls:
            patch.setattr(fd, name, recording(name, getattr(fd, name)))
        call()
    return solved, calls


def _on_grid(calls, name, size):
    return [arg for length, arg, _ in calls[name] if length == size]


def _assert_predicted_brackets_taken(solved, calls, bisected_8h=False):
    """The ladder's four grids are solved through the caller's binding.
    16h is solved by index.  8h is factored once, shifted by 16h's
    lambda0 - 1 % less its rounding allowance, and comes by inverse
    iteration, or, when bisected_8h, by index after _INVERSE_ITERATION_CAP
    solves; dstebz runs on no other grid.  Each grid of the pair is
    factored once, shifted by the lower end of a bracket as narrow as the
    h^2 prediction gives (1e-3 relative on the coarse grid, 1e-5 on the
    fine) with its rounding allowance, and solved by inverse iteration in
    at most 4 solves.  8h, h and h/2 are lambda0 within the backward
    error."""
    assert len(solved) == 4
    (coarse16, bracket16, (lam16, _)), (coarse8, bracket8, (lam8, _)) = solved[:2]
    assert bracket16 is None
    bisected = [coarse16, coarse8] if bisected_8h else [coarse16]
    assert [size for size, _, _ in calls["dstebz"]] == [len(s.diag) for s in bisected]
    assert bracket8 == _widened(lam16)
    d, e, _ = _symmetrized(coarse8)
    pad = fd._allowance(d, e)
    shifted, = _on_grid(calls, "dpttrf", len(d))
    assert np.array_equal(shifted, d - (bracket8[0] - pad))
    solves = len(_on_grid(calls, "dpttrs", len(d)))
    assert (solves == fd._INVERSE_ITERATION_CAP if bisected_8h
            else solves <= fd._INVERSE_ITERATION_CAP)
    assert abs(lam8 - _index_mode_reference(coarse8)[0]) <= _BACKWARD_ERROR * pad
    for (system, (lo, hi), (lam, _)), width in zip(solved[2:], (1e-3, 1e-5)):
        d, e, _ = _symmetrized(system)
        pad = fd._allowance(d, e)
        shifted, = _on_grid(calls, "dpttrf", len(d))
        assert np.array_equal(shifted, d - (lo - pad))
        assert lo - pad < lam <= hi + pad and hi - lo + 2.0 * pad <= width * lam
        assert not _on_grid(calls, "dstebz", len(d))
        assert 2 <= len(_on_grid(calls, "dpttrs", len(d))) <= 4
        ref = _index_mode_reference(system)[0]
        assert abs(lam - ref) <= _BACKWARD_ERROR * pad


class TestPairSolve:
    """solve_pair brackets each grid from the h^2 model of coarser grids."""

    @pytest.mark.parametrize("beta", [2.0, 60.0, 600.0, 900.0])
    @pytest.mark.parametrize("n", [1, 20, 200, 400])
    def test_disk_pair_takes_the_predicted_brackets(self, monkeypatch, n, beta):
        # at n = 400, beta <= 60 the 8h iteration converges at a rate of
        # ~0.13 (lambda1 is within 7 % of lambda0) and needs 9 solves
        _assert_predicted_brackets_taken(
            *_recorded(monkeypatch, fd, lambda: fd_disk_lambda(n, beta)),
            bisected_8h=n == 400 and beta <= 60.0)

    def test_half_line_pair_takes_the_predicted_brackets(self, monkeypatch):
        degennes._solve_pair.cache_clear()
        _assert_predicted_brackets_taken(
            *_recorded(monkeypatch, degennes, lambda: degennes.lambda_dg(XI0_HP)))

    def test_refused_bracket_is_bisected_by_index(self, monkeypatch):
        # at n = 371-399, beta ~ 2.25 n the 16h -> 8h change is too small for
        # the +- 1/4 share: here lambda_h = 729.30544 lies below the
        # predicted lower end, 729.30599
        solved, calls = _recorded(monkeypatch, fd,
                                  lambda: fd_disk_lambda(378, 851.0624))
        (coarse, bracket, (lam, _)), (fine, fine_bracket, (fine_lam, _)) = solved[2:]
        d, e, _ = _symmetrized(coarse)
        assert lam < bracket[0] - fd._allowance(d, e)
        assert fd._inverse_iteration(d, e, *bracket) is None
        # dstebz by index on 16h and on the grid h, never on 8h or h/2
        assert [(size, args[1]) for size, _, args in calls["dstebz"]] == [
            (250, fd._BY_INDEX), (4000, fd._BY_INDEX)]
        d, e, _ = _symmetrized(fine)
        assert fd._inverse_iteration(d, e, *fine_bracket)[0] == fine_lam

    @pytest.mark.parametrize("assemble, grid", [
        (partial(assemble_disk_system, 3, 20.0), Grid1D(0.0, 1.0, 4001)),
        (partial(assemble_degennes_system, XI0), Grid1D(0.0, 15.0, 8001))],
        ids=["disk", "half-line"])
    def test_pair_assembles_the_coarsened_ladder(self, assemble, grid):
        # the grid h coarsens (4 000 and 8 000 cells): 16h and 8h are the
        # operator assembled on grid.coarsened() and grid.refined().coarsened()
        ladder = []

        def recording(system, **kwargs):
            ladder.append(system)
            return solve_smallest(system, **kwargs)
        pair = solve_pair(recording, assemble, grid)
        fine = grid.refined()
        assert [g for g, _, _ in pair] == [grid, fine]
        assert [system for _, system, _ in pair] == ladder[2:]
        for got, want in zip(ladder,
                             [assemble(grid.coarsened()), assemble(fine.coarsened()),
                              assemble(grid), assemble(fine)], strict=True):
            for field in ("diag", "offdiag", "mass"):
                assert np.array_equal(getattr(got, field), getattr(want, field))

    def test_ladder_spacings_follow_the_coarsening(self, monkeypatch):
        # at every 8th node the ladder is 8h, 4h, h, h/2, and the h^2 model
        # must take those spacings: with 16h and 8h written in, the grid h/2
        # missed its bracket and fell back to dstebz by index
        monkeypatch.setattr(fd, "_BRACKET_COARSENING", 8)
        taken, iterate = [], fd._inverse_iteration

        def recorded(d, e, lo, hi):
            found = iterate(d, e, lo, hi)
            taken.append((len(d), found is not None))
            return found
        monkeypatch.setattr(fd, "_inverse_iteration", recorded)
        fd_disk_lambda(3, 20.0)
        assert taken == [(1000, True), (4000, True), (8000, True)]

    def test_grids_that_do_not_coarsen_are_solved_by_index(self, monkeypatch):
        # 1 000 cells do not divide by 16 (the refined 2 000 do): no ladder,
        # no bracket, dstebz by index on both grids
        grid = Grid1D(0.0, 1.0, 1001)
        assert grid.coarsened() is None
        solved, calls = _recorded(monkeypatch, fd, lambda: fd.solve_pair(
            fd.solve_smallest, partial(assemble_disk_system, 3, 20.0), grid))
        assert [bracket for _, bracket, _ in solved] == [None, None]
        assert [(size, args[1]) for size, _, args in calls["dstebz"]] == [
            (1000, fd._BY_INDEX), (2000, fd._BY_INDEX)]
        assert not calls["dpttrf"]

    def test_four_solves_through_the_callers_binding(self, monkeypatch):
        # perfbench traces solve_smallest by replacing the name in each
        # module that binds it, and checks that fd_disk_lambda and
        # lambda_dg each show their solves below them
        counts = {fd: 0, degennes: 0}
        for module in counts:
            def counting(*args, _module=module, _real=module.solve_smallest,
                         **kwargs):
                counts[_module] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, "solve_smallest", counting)
        # the whole ladder: 16h, 8h, h and h/2
        fd_disk_lambda(3, 20.0)
        assert counts == {fd: 4, degennes: 0}
        degennes._solve_pair.cache_clear()
        degennes.lambda_dg(-0.5)
        assert counts == {fd: 4, degennes: 4}


class TestInverseIteration:
    """The bracketed path: inverse iteration shifted by the lower end."""

    @pytest.mark.parametrize("n, beta", [(n, beta) for n in (0, 1, 3, 400)
                                         for beta in (0.0, 20.0, 900.0)])
    def test_disk_against_exact_value(self, n, beta):
        self._assert_exact(assemble_disk_system(n, beta, Grid1D(0.0, 1.0, 513)))

    @pytest.mark.parametrize("count", [257, 1025])
    def test_half_line_against_exact_value(self, count):
        self._assert_exact(assemble_degennes_system(XI0_HP, Grid1D(0.0, 15.0, count)))

    @staticmethod
    def _assert_exact(system):
        # the new value and dstebz's by index both lie within the backward
        # error of the exact lambda0 of the same double matrix
        d, e, _ = _symmetrized(system)
        by_index = _index_mode_reference(system)[0]
        half = 1e-5 * max(abs(by_index), 1.0)  # the fine grid's bracket
        bracket = (by_index - half, by_index + half)
        found = fd._inverse_iteration(d, e, *bracket)
        assert found is not None
        lam = solve_smallest(system, bracket=bracket)[0]
        assert lam == found[0]
        allowance = fd._allowance(d, e)
        span = 4.0 * allowance
        exact = sturm_smallest_mp(d, e, min(lam, by_index) - span,
                                  max(lam, by_index) + span)
        for value in (lam, by_index):
            assert abs(value - exact) <= _BACKWARD_ERROR * allowance

    def test_eigenvector_matches_the_index_mode(self, monkeypatch):
        # both unit vectors lie within residual / gap of the ground state
        # (Davis-Kahan): 2.4e-11 and 9.5e-11 apart on 4 001 and 8 001 nodes,
        # against bounds of 2.1e-9 and 1.2e-8
        solved, calls = _recorded(monkeypatch, fd, lambda: fd.solve_pair(
            fd.solve_smallest, partial(assemble_disk_system, 3, 20.0),
            Grid1D(0.0, 1.0, 4001), vectors=True))
        # the pair's two grids; 16h and 8h are solved for their values only
        assert [vec for *_, (_, vec) in solved[:2]] == [None, None]
        for system, _, (lam, vec) in solved[2:]:
            d, e, root_m = _symmetrized(system)
            assert not _on_grid(calls, "dstebz", len(d))
            assert np.all(vec >= 0.0)
            ref_lam, ref_vec = _index_mode_reference(system)
            gap = np.diff(eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                                           select_range=(0, 1)))[0]

            def residual(value, unit):
                t_unit = d * unit
                t_unit[1:] += e * unit[:-1]
                t_unit[:-1] += e * unit[1:]
                return np.linalg.norm(t_unit - value * unit)
            unit, ref_unit = vec * root_m, ref_vec * root_m
            bound = 2.0 * (residual(lam, unit) + residual(ref_lam, ref_unit)) / gap
            assert np.linalg.norm(unit - ref_unit) <= bound

    @pytest.mark.parametrize("case", ["lo above lambda0", "cap", "rho above hi"])
    def test_failure_falls_back_to_the_index_mode(self, monkeypatch, case):
        system = assemble_disk_system(3, 20.0, Grid1D(0.0, 1.0, 1001))
        d, e, _ = _symmetrized(system)
        lam0, lam1 = eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                                      select_range=(0, 1), tol=fd._EIG_ABSTOL)
        if case == "lo above lambda0":
            bracket = (0.5 * (lam0 + lam1), 1.01 * lam1)
        elif case == "cap":
            bracket = (0.99 * lam0, 1.01 * lam0)
            assert fd._inverse_iteration(d, e, *bracket) is not None
            monkeypatch.setattr(fd, "_INVERSE_ITERATION_CAP", 1)
        else:  # converges to lambda0, which lies above the bracket
            bracket = (lam0 - 2e-6 * lam0, lam0 - 1e-6 * lam0)
            assert fd._inverse_iteration(d, e, bracket[0], np.inf) is not None
        assert fd._inverse_iteration(d, e, *bracket) is None
        by_index, by_index_vec = solve_smallest(system, vectors=True)
        assert by_index == fd.dstebz(d, e, fd._BY_INDEX, 0.0, 0.0, 1, 1,
                                     fd._EIG_ABSTOL, "E")[1][0]
        assert solve_smallest(system, bracket=bracket)[0] == by_index
        lam, vec = solve_smallest(system, vectors=True, bracket=bracket)
        assert lam == by_index and np.array_equal(vec, by_index_vec)


class TestLapackFailure:
    """A LAPACK info != 0, or no eigenvalue by index, raises NonConvergence."""

    def test_stebz_info_by_index(self, monkeypatch):
        system = assemble_disk_system(2, 10.0, Grid1D(0.0, 1.0, 1001))

        def failing(d, e, *args):
            return 1, np.zeros(len(d)), np.ones(len(d), np.int32), \
                np.full(len(d), len(d), np.int32), 1
        monkeypatch.setattr(fd, "dstebz", failing)
        with pytest.raises(NonConvergence, match="dstebz"):
            solve_smallest(system)

    def test_no_eigenvalue_by_index(self, monkeypatch):
        system = assemble_disk_system(2, 10.0, Grid1D(0.0, 1.0, 1001))

        def empty(d, e, *args):
            return 0, np.zeros(len(d)), np.zeros(len(d), np.int32), \
                np.zeros(len(d), np.int32), 0
        monkeypatch.setattr(fd, "dstebz", empty)
        with pytest.raises(NonConvergence, match="no eigenvalue"):
            solve_smallest(system)

    def test_stebz_info_on_the_16h_grid(self, monkeypatch):
        # the 16h solve of fd_disk_lambda's ladder bisects by index, on
        # 250 nodes (4 000 cells / 16, the Dirichlet node dropped)
        real = fd.dstebz

        def failing_on_16h(d, *args):
            m, w, iblock, isplit, info = real(d, *args)
            return m, w, iblock, isplit, 3 if len(d) == 250 else info
        monkeypatch.setattr(fd, "dstebz", failing_on_16h)
        with pytest.raises(NonConvergence, match="info = 3"):
            fd_disk_lambda(2, 10.0)

    def test_stein_info(self, monkeypatch):
        system = assemble_disk_system(2, 10.0, Grid1D(0.0, 1.0, 4001))
        monkeypatch.setattr(fd, "dstein",
                            lambda d, e, w, *args: (np.zeros((len(d), len(w))), 1))
        assert solve_smallest(system)[1] is None  # dstein not called
        with pytest.raises(NonConvergence, match="dstein"):
            solve_smallest(system, vectors=True)

    def test_pttrs_info(self, monkeypatch):
        system = assemble_disk_system(2, 10.0, Grid1D(0.0, 1.0, 1001))
        lam = solve_smallest(system)[0]
        monkeypatch.setattr(fd, "dpttrs", lambda d, e, b: (b, -3))
        with pytest.raises(NonConvergence, match="dpttrs"):
            solve_smallest(system, bracket=(0.99 * lam, 1.01 * lam))


_SPEC = importlib.util.spec_from_file_location(
    "fd_convergence", Path(__file__).resolve().parents[1] / "scripts" / "fd_convergence.py")
fd_convergence = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fd_convergence)


@pytest.mark.parametrize("label, assemble", [
    ("disk fiber n=3, beta=20.0",
     lambda grid: assemble_disk_system(3, 20.0, grid)),
    ("half-line oscillator xi=xi0",
     lambda grid: assemble_degennes_system(XI0_HP, grid))])
def test_convergence_script_observes_second_order(label, assemble, capsys):
    # scripts/fd_convergence.py at --levels 4 (251 .. 2 001 nodes): the
    # observed ratios are 4.0005-4.0014 on the disk, 3.9972-3.9993 on the
    # half line
    ratios = fd_convergence.study(label, assemble, 251, 4)
    assert len(ratios) == 2
    assert all(abs(ratio - 4.0) <= 0.01 for ratio in ratios)
    assert "ratio" in capsys.readouterr().out
