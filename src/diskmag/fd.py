"""Finite-difference Sturm-Liouville oracles.

Two conservative-flux discretizations, kept deliberately independent of
the Kummer route so they can serve as brute-force cross-checks:

* the radial disk problem  -f'' - f'/r + (n/r - beta r/2)^2 f = lambda f
  on (0, 1], weight r, Neumann at r = 1, Dirichlet at 0 for n > 0 and
  Neumann for n = 0;
* the half-line problem  -u'' + (t + xi)^2 u = lambda u on [0, L],
  Neumann at 0, Dirichlet at the truncation point L.

Both reduce to a symmetric generalized tridiagonal eigenproblem
A v = lambda M v with diagonal positive mass M, symmetrized exactly by
the diagonal scaling M^{-1/2}.  Every eigenpair comes by one of two
routes.  Given a bracket (lo, hi], each end moved out by a rounding
allowance of ~eps |T|_inf, inverse iteration shifted by lo: one LDL^T
factorization (dpttrf), which shows no eigenvalue at or below lo, and a
few solves (dpttrs).  Without a bracket, or when it fails, LAPACK's
Sturm-count bisection (dstebz) finds the first eigenvalue by index, and
dstein computes the eigenvector only for the callers that read it.
A two-grid pair (:func:`solve_pair`, spacings h and h/2) is assembled on
one grid and its refinement.  When they coarsen 16x, the pair also
solves the coarsened grids: 16h by index, 8h on 16h's value +- 1 %.
It then fits lambda(h) = L + C h^2 through two coarser solves and
brackets each grid on the predicted value +- 1/4 of the predicted
change, plus 16 ulp: the grid h from 16h and 8h, the grid h/2 from 8h
and the grid h.  Eigenvalues are reported through a two-grid Richardson
combination assuming the second-order truncation error of the scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs, dstebz, dstein

from .errors import InvalidParams, NonConvergence

_DISK_GRID_COUNT = 4001  # coarse grid of fd_disk_lambda's two-grid pair
_BRACKET_COARSENING = 16  # bracketing grid: every 16th node, ~1/16 of the solve
_BRACKET_WIDENING = 0.01  # 8h bracket = lambda0 on the 16h grid +- 1 %
_PREDICTION_SHARE = 0.25  # bracket = h^2 prediction +- 1/4 of its change


@dataclass(frozen=True)
class Grid1D:
    """Uniform node grid on [left, right] with count nodes."""

    left: float
    right: float
    count: int

    def __post_init__(self) -> None:
        if self.count < 16:
            raise InvalidParams(f"grid needs >= 16 nodes, got {self.count}")
        if not self.right > self.left:
            raise InvalidParams("grid needs right > left")

    @property
    def spacing(self) -> float:
        return (self.right - self.left) / (self.count - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.left, self.right, self.count)

    def refined(self) -> "Grid1D":
        """Grid with halved spacing sharing every node of this one."""
        return Grid1D(self.left, self.right, 2 * self.count - 1)

    def coarsened(self) -> "Grid1D | None":
        """Grid of every _BRACKET_COARSENING-th node, or None when the
        cells do not divide evenly or fewer than 16 nodes would be left."""
        cells, rest = divmod(self.count - 1, _BRACKET_COARSENING)
        if rest or cells < 15:
            return None
        return Grid1D(self.left, self.right, cells + 1)


@dataclass(frozen=True)
class TridiagSystem:
    """Symmetric generalized eigenproblem A v = lambda M v, M = diag(mass)."""

    diag: np.ndarray
    offdiag: np.ndarray
    mass: np.ndarray

    def __post_init__(self) -> None:
        if len(self.offdiag) != len(self.diag) - 1:
            raise InvalidParams("offdiag must be one shorter than diag")
        if not np.all(self.mass > 0.0):
            raise InvalidParams("mass weights must be positive")


# LAPACK dstebz: ABSTOL at twice the underflow threshold gives the most
# accurate eigenvalues; the default eps*|T|_1 leaves ~1e-9 noise at our
# grid sizes, which would dominate the minimization of the ground energy.
# Only unbracketed solves (solve_pair's 16h grid) and the fallback bisect.
_EIG_ABSTOL = 2.0 * np.finfo(float).tiny
_BY_INDEX = 2  # dstebz RANGE: eigenvalues il..iu
_INVERSE_ITERATION_CAP = 8  # solves on a given bracket before the fallback


def solve_smallest(system: TridiagSystem, *, vectors: bool = False,
                   bracket: tuple[float, float] | None = None
                   ) -> tuple[float, np.ndarray | None]:
    """Smallest eigenpair of A v = lambda M v; the eigenvector is None
    unless vectors is set.

    A given bracket (lo, hi) (:func:`solve_pair` takes it from coarser
    grids) is tried by :func:`_inverse_iteration`, which returns lambda0
    with its eigenvector, the last iterate.  Without a bracket, or when
    it fails, lambda0 comes from dstebz by index, and dstein computes the
    eigenvector where it is read.  Either way it is
    the smallest eigenvalue, and a given system and bracket always take
    the same path, with or without vectors.  The eigenvector comes back
    sign-fixed positive and normalized to sum(v^2 * mass) = 1, i.e. unit
    norm in the lumped weighted L2.  NonConvergence if LAPACK fails.
    """
    d, e, root_m = _symmetrized(system)
    found = None if bracket is None else _inverse_iteration(d, e, *bracket)
    if found is None:
        m, w, iblock, isplit, info = dstebz(d, e, _BY_INDEX, 0.0, 0.0, 1, 1,
                                            _EIG_ABSTOL, "E")
        if info != 0:
            raise NonConvergence(f"tridiagonal eigensolve (dstebz) failed: info = {info}")
        if m == 0:
            raise NonConvergence("tridiagonal eigensolve (dstebz) found no eigenvalue")
        if not vectors:
            return float(w[0]), None
        z, info = dstein(d, e, w[:1], iblock, isplit)
        if info != 0:
            raise NonConvergence(f"tridiagonal eigenvector (dstein) failed: info = {info}")
        found = float(w[0]), z[:, 0]
    lam, z = found
    if not vectors:
        return lam, None
    v = z / root_m
    v = v / np.sqrt(np.sum(v * v * system.mass))
    if v[np.argmax(np.abs(v))] < 0.0:
        v = -v
    return lam, v


def _inverse_iteration(d: np.ndarray, e: np.ndarray, lo: float, hi: float):
    """(lambda0, unit eigenvector) of the symmetrized tridiagonal T by
    inverse iteration shifted by lo, or None unless lambda0 is shown to
    lie in (lo, hi], each end moved out by :func:`_allowance`: the
    backward error of any computed lambda0, which the h^2 prediction
    cannot see (at n = 1, beta = 2 the FD error is below it).

    dpttrf factors T - lo I = L D L^T once, and succeeds only when no
    eigenvalue is <= lo.  Each dpttrs solve of (T - lo I) y = x gives
    rho = lo + x.y / y.y, the Rayleigh quotient of y with nothing to
    cancel, and x = y / |y|.  Once rho moves by <= 2 ulp of max(|lo|,
    |rho|), within _INVERSE_ITERATION_CAP solves, the value is x.Tx for
    the unit x, taken from T: its rounding averages out over the nodes
    (within 0.03 of the allowance from the exact lambda0, against 0.12 for
    rho, which carries the factorization's backward error).  It must lie in
    (lo, hi].

    Why it is lambda0: both FD operators have negative off-diagonals, so
    T - lo I is a positive definite Z-matrix with an entrywise positive
    inverse, and every iterate from the constant start stays positive.
    The start thus has a component along the positive ground state, and
    the iteration converges to it, never to lambda1, at the rate
    (lambda0 - lo) / (lambda1 - lo) per solve (~1e-5 from the h^2
    prediction: 3-4 solves; 4-7 on the 8h grid's +- 1 %).  A Rayleigh
    quotient is >= lambda0, and the factorization shows lambda0 > lo, so
    lambda0 lies in (lo, value].
    """
    if not lo < hi:
        return None
    pad = _allowance(d, e)
    lo, hi = lo - pad, hi + pad
    diag, offdiag, info = dpttrf(d - lo, e)
    if info != 0:
        return None
    x = np.full(len(d), 1.0 / np.sqrt(len(d)))
    rho = np.inf
    for _ in range(_INVERSE_ITERATION_CAP):
        y, info = dpttrs(diag, offdiag, x)
        if info != 0:
            raise NonConvergence(f"tridiagonal solve (dpttrs) failed: info = {info}")
        y_y = _dot(y, y)
        last, rho = rho, lo + _dot(x, y) / y_y
        x = y / np.sqrt(y_y)
        if abs(rho - last) <= 2.0 * np.spacing(max(abs(lo), abs(rho))):
            t_x = d * x
            t_x[1:] += e * x[:-1]
            t_x[:-1] += e * x[1:]
            value = float(_dot(x, t_x))
            return (value, x) if lo < value <= hi else None
    return None


def _allowance(d: np.ndarray, e: np.ndarray) -> float:
    """eps (max|d| + 2 max|e|) >= eps |T|_inf: the backward error of any
    computed eigenvalue of the symmetrized tridiagonal T = (d, e)."""
    return np.finfo(float).eps * (np.max(np.abs(d)) + 2.0 * np.max(np.abs(e)))


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """x.y by numpy's own loop: OpenBLAS's ddot threads past 10 000
    entries, and on 2 shared vCPUs, once the machine has idled, each such
    call waits ~8 ms for its thread (`diskmag constants`, which solves the
    16 000-node half-line grid, took 0.70 s with BLAS dots, not 0.04 s)."""
    return np.einsum("i,i", x, y)


def solve_pair(solve, assemble, grid: Grid1D, *,
               vectors: bool = False) -> tuple[tuple, tuple]:
    """(grid, system, eigenpair) for grid and grid.refined(), spacings h
    and h/2: each system is assemble(grid), each eigenpair solve(system,
    ...) on a bracket predicted from coarser grids.

    solve is :func:`solve_smallest`, as bound in the caller's module, and
    is called once per grid.  When grid coarsens (then so does its
    refinement), assemble also builds the coarsened grids 16h and 8h,
    which are solved first: 16h by index, 8h on 16h's value +- 1 %.  The
    grid h is bracketed from the h^2 model through 16h and 8h, the grid
    h/2 from the model through 8h and h (:func:`_predicted`).  Otherwise
    both grids are solved by index.  A bracket that fails its checks
    costs a bisection by index, never the answer.
    """
    fine, coarse = grid.refined(), grid.coarsened()
    systems = assemble(grid), assemble(fine)
    if coarse is None:
        first, second = (solve(system, vectors=vectors) for system in systems)
    else:
        lam16 = solve(assemble(coarse))[0]
        half = _BRACKET_WIDENING * abs(lam16)
        lam8 = solve(assemble(fine.coarsened()),
                     bracket=(lam16 - half, lam16 + half))[0]
        first = solve(systems[0], vectors=vectors, bracket=_predicted(  # spacings in h
            lam16, lam8, _BRACKET_COARSENING, _BRACKET_COARSENING / 2, 1.0))
        second = solve(systems[1], vectors=vectors, bracket=_predicted(
            lam8, first[0], _BRACKET_COARSENING / 2, 1.0, 0.5))
    return (grid, systems[0], first), (fine, systems[1], second)


def _predicted(far: float, near: float, h_far: float, h_near: float,
               h: float) -> tuple[float, float]:
    """Bracket for the grid of spacing h from the values far and near on
    the coarser spacings h_far and h_near (in any common unit): the value
    that lambda = L + C h^2 through them predicts, +- _PREDICTION_SHARE
    of its change from near, plus 16 ulp."""
    change = (near - far) * (h_near ** 2 - h ** 2) / (h_far ** 2 - h_near ** 2)
    value = near + change
    half = _PREDICTION_SHARE * abs(change) + 16.0 * np.spacing(abs(value))
    return value - half, value + half


def _symmetrized(system: TridiagSystem):
    """(diagonal, off-diagonal) of M^{-1/2} A M^{-1/2}, and M^{1/2}."""
    root_m = np.sqrt(system.mass)
    return (system.diag / system.mass,
            system.offdiag / (root_m[:-1] * root_m[1:]), root_m)


def richardson(fine, coarse):
    """Two-grid Richardson value from spacings h/2 and h: the O(h^2) error
    of the second-order schemes cancels.  Works elementwise on arrays."""
    return fine + (fine - coarse) / 3.0


def assemble_disk_system(n: int, beta: float, grid: Grid1D) -> TridiagSystem:
    """Conservative-flux discretization of the radial disk operator.

    Every node, r = 0 included, takes one stencil.  The 1/r coefficient
    only ever appears at half-points, and n/r is taken as 0 at r = 0, so
    no division by zero occurs; for n = 0 the Neumann condition at r = 0
    is the natural boundary of the flux form (the flux r f' vanishes with
    r).  For n > 0 the Dirichlet condition at r = 0 drops node 0.
    """
    if grid.left != 0.0 or grid.right != 1.0:
        raise InvalidParams("disk grid must span [0, 1]")
    if not abs(beta) < np.inf:  # NaN fails too: LAPACK would take it
        raise InvalidParams(f"beta={beta} must be finite")
    h = grid.spacing
    r = grid.nodes()
    half = r[:-1] + 0.5 * h  # r_{i+1/2}, i = 0 .. count-2
    q = (np.concatenate(([0.0], n / r[1:])) - 0.5 * beta * r) ** 2
    mass = r * h
    mass[0] = h * h / 8.0
    mass[-1] = 0.5 * h * (1.0 - 0.25 * h)
    faces = np.concatenate(([0.0], half, [0.0]))  # no flux past either end
    diag = (faces[:-1] + faces[1:]) / h + q * mass
    first = int(n > 0)
    return TridiagSystem(diag[first:], -half[first:] / h, mass[first:])


def fd_disk_lambda(n: int, beta: float, count: int = _DISK_GRID_COUNT) -> float:
    """Richardson-combined disk eigenvalue from grids (count, 2*count-1),
    solved by :func:`solve_pair`.

    The error at the default count is ~5e-9 absolute, the backward error
    of the eigensolve on these matrices, not relative: at n = 0 and
    beta <~ 0.1, where lambda ~ beta^2/8, that is a large relative error.
    """
    (*_, (coarse, _)), (*_, (fine, _)) = solve_pair(
        solve_smallest, partial(assemble_disk_system, n, beta),
        Grid1D(0.0, 1.0, count))
    return richardson(fine, coarse)


def assemble_degennes_system(xi: float, grid: Grid1D) -> TridiagSystem:
    """Half-line oscillator -u'' + (t+xi)^2 u, Neumann at 0, Dirichlet at L.

    Node 0 carries the half-cell mass h/2, which is what makes the
    natural Neumann treatment second-order accurate.
    """
    if grid.left != 0.0:
        raise InvalidParams("half-line grid must start at 0")
    if not abs(xi) < np.inf:
        raise InvalidParams(f"xi={xi} must be finite")
    h = grid.spacing
    t = grid.nodes()[:-1]  # Dirichlet drops the node at L
    q = (t + xi) ** 2
    mass = np.full_like(t, h)
    mass[0] = 0.5 * h
    diag = np.full_like(t, 2.0 / h)
    diag[0] = 1.0 / h
    diag += q * mass
    return TridiagSystem(diag, np.full(len(t) - 1, -1.0 / h), mass)
