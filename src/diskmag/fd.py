"""Finite-difference Sturm-Liouville oracles.

Two conservative-flux discretizations, kept deliberately independent of
the Kummer route so they can serve as brute-force cross-checks:

* the radial disk problem  -f'' - f'/r + (n/r - beta r/2)^2 f = lambda f
  on (0, 1], weight r, Neumann at r = 1, Dirichlet at 0 for n > 0 and
  Neumann for n = 0;
* the half-line problem  -u'' + (t + xi)^2 u = lambda u on [0, L],
  Neumann at 0, Dirichlet at the truncation point L.

Both reduce to a symmetric generalized tridiagonal eigenproblem
A v = lambda M v with diagonal positive mass M; the smallest eigenvalue
is extracted by LAPACK's bisection + inverse iteration through
scipy.linalg.eigh_tridiagonal after the exact diagonal symmetrization.
Eigenvalues are reported through a two-grid Richardson combination
assuming the second-order truncation error of the scheme.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import InvalidParams, NonConvergence, TruncationWarning

_DISK_GRID_COUNT = 4001  # coarse grid of fd_disk_lambda's two-grid pair


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


# LAPACK stebz: ABSTOL at twice the underflow threshold gives the most
# accurate eigenvalues; the default eps*|T|_1 leaves ~1e-9 noise at our
# grid sizes, which would dominate the minimization of the ground energy
_EIG_ABSTOL = 2.0 * np.finfo(float).tiny


def solve_smallest(system: TridiagSystem) -> tuple[float, np.ndarray]:
    """Smallest eigenpair of A v = lambda M v.

    The eigenvector comes back sign-fixed positive and normalized to
    sum(v^2 * mass) = 1, i.e. unit norm in the lumped weighted L2.
    """
    root_m = np.sqrt(system.mass)
    d = system.diag / system.mass
    e = system.offdiag / (root_m[:-1] * root_m[1:])
    try:
        vals, vecs = eigh_tridiagonal(d, e, select="i", select_range=(0, 0),
                                      tol=_EIG_ABSTOL)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NonConvergence(f"tridiagonal eigensolve failed: {exc}") from exc
    v = vecs[:, 0] / root_m
    v = v / np.sqrt(np.sum(v * v * system.mass))
    if v[np.argmax(np.abs(v))] < 0.0:
        v = -v
    return float(vals[0]), v


def richardson(fine, coarse):
    """Two-grid Richardson value from spacings h/2 and h: the O(h^2) error
    of the second-order schemes cancels.  Works elementwise on arrays."""
    return fine + (fine - coarse) / 3.0


def two_grid(solve, grid: Grid1D) -> float:
    """Richardson-combined solve(g) over g = grid and grid.refined()."""
    coarse = solve(grid)
    return richardson(solve(grid.refined()), coarse)


def assemble_disk_system(n: int, beta: float, grid: Grid1D) -> TridiagSystem:
    """Conservative-flux discretization of the radial disk operator.

    The 1/r coefficient only ever appears at half-points, so no division
    by zero occurs; for n = 0 the Neumann condition at r = 0 is the
    natural boundary of the flux form (the flux r f' vanishes with r).
    """
    if grid.left != 0.0 or grid.right != 1.0:
        raise InvalidParams("disk grid must span [0, 1]")
    h = grid.spacing
    r = grid.nodes()
    half = r[:-1] + 0.5 * h  # r_{i+1/2}, i = 0 .. count-2

    if n > 0:
        r_in = r[1:]
        q = (n / r_in - 0.5 * beta * r_in) ** 2
        mass = r_in * h
        mass[-1] = 0.5 * h * (1.0 - 0.25 * h)
        diag = np.empty_like(r_in)
        diag[:-1] = (half[:-1] + half[1:]) / h
        diag[-1] = half[-1] / h
        diag += q * mass
        offdiag = -half[1:] / h
    else:
        q = (0.5 * beta * r) ** 2
        mass = r * h
        mass[0] = h * h / 8.0
        mass[-1] = 0.5 * h * (1.0 - 0.25 * h)
        diag = np.empty_like(r)
        diag[0] = half[0] / h
        diag[1:-1] = (half[:-1] + half[1:]) / h
        diag[-1] = half[-1] / h
        diag += q * mass
        offdiag = -half / h
    return TridiagSystem(diag, offdiag, mass)


def fd_disk_eigen(n: int, beta: float, grid: Grid1D) -> tuple[float, np.ndarray]:
    """Smallest disk eigenpair on one grid.

    For n > 0 the eigenvector lives on the nodes r_1 .. r_N (Dirichlet
    node dropped); for n = 0 on all nodes.  Last entry is the r = 1 trace.
    """
    return solve_smallest(assemble_disk_system(n, beta, grid))


def fd_disk_lambda(n: int, beta: float, count: int = _DISK_GRID_COUNT) -> float:
    """Richardson-combined disk eigenvalue from grids (count, 2*count-1)."""
    return two_grid(lambda g: fd_disk_eigen(n, beta, g)[0], Grid1D(0.0, 1.0, count))


def assemble_degennes_system(xi: float, grid: Grid1D) -> TridiagSystem:
    """Half-line oscillator -u'' + (t+xi)^2 u, Neumann at 0, Dirichlet at L.

    Node 0 carries the half-cell mass h/2, which is what makes the
    natural Neumann treatment second-order accurate.
    """
    if grid.left != 0.0:
        raise InvalidParams("half-line grid must start at 0")
    h = grid.spacing
    t = grid.nodes()[:-1]  # Dirichlet drops the node at L
    q = (t + xi) ** 2
    mass = np.full_like(t, h)
    mass[0] = 0.5 * h
    diag = np.full_like(t, 2.0 / h)
    diag[0] = 1.0 / h
    diag += q * mass
    offdiag = np.full(len(t) - 1, -1.0 / h)
    return TridiagSystem(diag, offdiag, mass)


def fd_degennes_eigen(xi: float, L: float, grid: Grid1D) -> tuple[float, np.ndarray]:
    """Smallest half-line eigenpair on one grid.

    The eigenvector lives on nodes 0, h, ..., L-h and is normalized in
    L2((0, L), dt).  Warns if the mode has not decayed at the truncation
    boundary (domain too short for the requested xi).
    """
    if grid.right != L:
        raise InvalidParams(f"grid right endpoint {grid.right} != L = {L}")
    lam, vec = solve_smallest(assemble_degennes_system(xi, grid))
    if abs(vec[-1]) > 1e-8:
        warnings.warn(
            f"eigenfunction magnitude {abs(vec[-1]):.2e} at L - h; "
            f"increase L for xi = {xi}", TruncationWarning, stacklevel=2)
    return lam, vec


def fd_degennes_lambda(xi: float, L: float = 15.0, count: int = 8001) -> float:
    """Richardson-combined half-line eigenvalue from grids (count, 2*count-1);
    the defaults are the grid pair of :func:`diskmag.degennes.lambda_dg`."""
    return two_grid(lambda g: fd_degennes_eigen(xi, L, g)[0], Grid1D(0.0, L, count))
