"""De Gennes constants and the second-order perturbation profile.

The half-line Neumann oscillator h0(xi) = -d^2/dt^2 + (t+xi)^2 has a
unique non-degenerate minimum of its ground energy mu(xi) over xi; the
minimum value is the De Gennes constant Theta0, the minimizer xi0
satisfies Theta0 = xi0^2, and the normalized ground state u0 fixes
C1 = u0(0)^2/3.

xi0 is the root of the Feynman-Hellmann stationarity functional
<u0(xi), (t+xi) u0(xi)> = (1/2) mu'(xi), found by one bracketed root
solve; Theta0 = mu(xi0) and u0(0) are read off the ground state there.
Theta0 = xi0^2 is never imposed, so checking it tests the computation.

The boundary-layer expansion of the disk eigenvalues is driven by the
operator family h0 + b^{-1/2} h1 + b^{-1} h2 with

    h1 = d/dt + 2 (t+xi0)(delta - t^2/2) + 2 t (t+xi0)^2,
    h2 = t d/dt + (delta - t^2/2)^2 + 4 t (t+xi0)(delta - t^2/2)
         + 3 t^2 (t+xi0)^2.

Second-order perturbation theory in b^{-1/2} gives a coefficient
lambda2(delta) that is exactly quadratic in delta, also on each grid;
its vertex delta0 and offset C0 come from its values at delta = -1, 0,
1 (:func:`lambda2_coefficients`).  Each value solves the
regularized-resolvent equation for the first corrector u1 on the
finite-difference grid, with the orthogonality constraint imposed by a
bordered system that one banded Cholesky solve and one 2x2 solve
eliminate (:meth:`_GridSolve.solve_corrector`).

Every quantity is read from one grid-pair solve at its xi and reported
through the two-grid Richardson combination of :func:`fd.richardson`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np
from scipy.linalg import solveh_banded

from .errors import BracketFailure, IllConditioned, InvalidParams
from .fd import (Grid1D, TridiagSystem, _dot, assemble_degennes_system,
                 richardson, solve_pair, solve_smallest)
from .roots import brent_root

_XI_BRACKET = (-2.0, 0.0)  # Theta0 = xi0^2 in (0,1) forces xi0 in (-1, 0)
_L = 15.0  # truncation point of the half line
_GRID_COUNT = 8001  # coarse grid of each two-grid pair
_CONST_TOL = 2e-3  # DeGennesConstants.validate: Theta0 - xi0^2 and the delta0 vertex


@dataclass(frozen=True)
class DeGennesConstants:
    """Computed constants of the half-line model problem.

    delta0_formula is the closed-form value (1/2) Theta0^{-1/2} C1 coming
    from matching the crossing asymptotics with the Saint-James relation;
    delta0_fit and c0_fit are the vertex and offset of the computed
    quadratic lambda2(delta) (:func:`lambda2_coefficients`).  Unfilled
    fields are NaN.
    """

    theta0: float = math.nan
    xi0: float = math.nan
    c1: float = math.nan
    u0_trace: float = math.nan
    delta0_formula: float = math.nan
    delta0_fit: float = math.nan
    c0_fit: float = math.nan
    lambda1_check: float = math.nan

    def validate(self) -> None:
        if not 0.0 < self.theta0 < 1.0 or not self.xi0 < 0.0:
            raise InvalidParams("constants out of theoretical range")
        if abs(self.theta0 - self.xi0 ** 2) > _CONST_TOL:
            raise InvalidParams(
                f"Theta0 - xi0^2 = {self.theta0 - self.xi0**2:.2e} beyond tolerance")
        if math.isfinite(self.delta0_fit) \
                and abs(self.delta0_fit - self.delta0_formula) > _CONST_TOL:
            raise InvalidParams(
                f"delta0 vertex {self.delta0_fit:.6f} vs formula "
                f"{self.delta0_formula:.6f} disagree")


class _GridSolve:
    """Ground state (lam0, u0) of h0(xi) on one grid, with the assembled
    system (its mass is the lumped L2 weight) and the operators built on it."""

    def __init__(self, xi: float, grid: Grid1D, system: TridiagSystem,
                 eigenpair: tuple[float, np.ndarray]):
        self.xi = xi
        self.system = system
        self.mass = system.mass
        self.lam0, self.u0 = eigenpair
        self.t = grid.nodes()[:-1]
        self.h = grid.spacing

    def inner(self, v: np.ndarray) -> float:
        """<u0, v> in the lumped L2 of this grid."""
        return float(np.sum(self.u0 * v * self.mass))

    def stationarity(self) -> float:
        """<u0, (t+xi) u0> = (1/2) d lam0 / d xi (Feynman-Hellmann)."""
        return self.inner(self.u0 * (self.t + self.xi))

    def apply_h1(self, u: np.ndarray, delta: float) -> np.ndarray:
        t, shifted = self.t, self.t + self.xi
        pot = 2.0 * shifted * (delta - 0.5 * t * t) + 2.0 * t * shifted ** 2
        return _derivative(u, self.h) + pot * u

    def apply_h2(self, u: np.ndarray, delta: float) -> np.ndarray:
        t, shifted = self.t, self.t + self.xi
        well = delta - 0.5 * t * t
        pot = well ** 2 + 4.0 * t * shifted * well + 3.0 * t * t * shifted ** 2
        return t * _derivative(u, self.h) + pot * u

    def solve_corrector(self, rhs: np.ndarray) -> np.ndarray:
        """u1 with (h0 - lam0) u1 = rhs, <u0, u1> = 0; residual-checked.

        [[K, c], [c^T, 0]] [u1; mu] = [M rhs; 0], K = A - lam0 M, c = M u0,
        is eliminated through K without node 0 (h0 with a Dirichlet end at
        t = h, positive definite for any rounding of lam0, while K without
        its last node is singular to rounding): one banded Cholesky, one 2x2.
        """
        kd, ke = self.system.diag - self.lam0 * self.mass, self.system.offdiag
        c, mrhs = self.mass * self.u0, self.mass * rhs
        columns = np.column_stack([mrhs[1:], c[1:], np.zeros(len(kd) - 1)])
        columns[0, 2] = ke[0]  # node 0's coupling to node 1
        try:
            a, q, p = solveh_banded(
                np.vstack([np.append(0.0, ke[1:]), kd[1:]]), columns).T
            # row 0 of K u1 + mu c = M rhs and c^T u1 = 0, u1[1:] = a - q mu - p u1[0]
            u_first, mu = np.linalg.solve(
                [[kd[0] - ke[0] * p[0], c[0] - ke[0] * q[0]],
                 [c[0] - _dot(c[1:], p), -_dot(c[1:], q)]],
                [mrhs[0] - ke[0] * a[0], -_dot(c[1:], a)])
        except np.linalg.LinAlgError as exc:
            raise IllConditioned(f"bordered corrector solve failed: {exc}") from exc
        u1 = np.append(u_first, a - q * mu - p * u_first)
        residual = kd * u1 + mu * c - mrhs
        residual[:-1] += ke * u1[1:]
        residual[1:] += ke * u1[:-1]
        rel = math.sqrt(_dot(residual, residual)) / max(math.sqrt(_dot(mrhs, mrhs)),
                                                        1e-300)
        if rel > 1e-8:
            raise IllConditioned(f"bordered corrector solve residual {rel:.2e}")
        return u1

    def lambda2(self, delta: float) -> float:
        h1_u0 = self.apply_h1(self.u0, delta)
        lam1 = self.inner(h1_u0)
        u1 = self.solve_corrector(-(h1_u0 - lam1 * self.u0))
        return self.inner(self.apply_h2(self.u0, delta)) \
            + self.inner(self.apply_h1(u1, delta) - lam1 * u1)


@lru_cache(maxsize=1)  # the checks and lambda2(-1, 0, 1) at xi0 reuse the root
def _solve_pair(xi: float) -> tuple[_GridSolve, _GridSolve]:
    """(coarse, fine) ground states at xi: the one place the grids are
    solved, by one :func:`fd.solve_pair`."""
    pair = solve_pair(solve_smallest, partial(assemble_degennes_system, xi),
                      Grid1D(0.0, _L, _GRID_COUNT), vectors=True)
    return tuple(_GridSolve(xi, *triple) for triple in pair)


def _combine(pair: tuple[_GridSolve, _GridSolve], func):
    """Richardson-combine func(grid solve) over a (coarse, fine) pair."""
    coarse, fine = pair
    return richardson(func(fine), func(coarse))


def lambda_dg(xi: float) -> float:
    """Ground energy of the half-line Neumann oscillator at shift xi."""
    return _combine(_solve_pair(xi), lambda s: s.lam0)


def stationarity(xi: float) -> float:
    """<u0, (t+xi) u0> = (1/2) d lambda_dg / d xi at shift xi: the
    functional whose root is xi0."""
    return _combine(_solve_pair(xi), _GridSolve.stationarity)


@lru_cache(maxsize=None)  # constants and the theta0 references share one root
def minimize_theta0() -> DeGennesConstants:
    """Root xi0 of the stationarity functional; fills theta0, xi0, u0(0),
    C1 and delta0.

    <u0, (t+xi) u0> = (1/2) d lambda_dg / d xi has an O(1) slope at xi0,
    so one Brent solve (:func:`~diskmag.roots.brent_root`) over
    _XI_BRACKET pins xi0 to 1e-12, where minimizing the flat lambda_dg
    itself only localizes it to ~1e-5.  Theta0 and u0(0) come from one
    grid-pair solve at the root.  BracketFailure if the functional has no
    sign change on the bracket.
    """
    try:
        xi0 = brent_root(stationarity, *_XI_BRACKET, xtol=1e-12)
    except BracketFailure as exc:
        raise BracketFailure(
            f"stationarity has no sign change on {_XI_BRACKET}") from exc
    root = _solve_pair(xi0)
    theta0 = _combine(root, lambda s: s.lam0)
    u0_trace = float(_combine(root, lambda s: s.u0[0]))
    c1 = u0_trace ** 2 / 3.0
    return DeGennesConstants(theta0=theta0, xi0=xi0, c1=c1, u0_trace=u0_trace,
                             delta0_formula=0.5 * c1 / math.sqrt(theta0))


def _derivative(u: np.ndarray, h: float) -> np.ndarray:
    """du/dt: central interior, second-order one-sided at the endpoints."""
    du = np.empty_like(u)
    du[1:-1] = (u[2:] - u[:-2]) / (2.0 * h)
    du[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * h)
    du[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * h)
    return du


def lambda1_check(constants: DeGennesConstants, delta: float = 0.0) -> float:
    """<u0, h1 u0>; equals -C1, independently of delta (stationarity)."""
    return _combine(_solve_pair(constants.xi0),
                    lambda s: s.inner(s.apply_h1(s.u0, delta)))


def lambda2_coefficients(constants: DeGennesConstants) -> tuple[float, float, float]:
    """(c2, c1, c0) of lambda2(delta) = c2 delta^2 + c1 delta + c0 at xi0.

    On each grid h1 is affine and h2 quadratic in delta, and the corrector
    u1 is linear in it, so lambda2 is an exact quadratic: its values at
    delta = -1, 0, 1, each two-grid Richardson combined, fix it.
    """
    root = _solve_pair(constants.xi0)
    lm, l0, lp = (_combine(root, lambda s: s.lambda2(d)) for d in (-1.0, 0.0, 1.0))
    return 0.5 * (lp + lm) - l0, 0.5 * (lp - lm), l0


def compute_constants() -> DeGennesConstants:
    """Full constants record: minimization, lambda1 check and the vertex
    delta0 and offset C0 of lambda2(delta) = c2 ((delta - delta0)^2 + C0)."""
    constants = minimize_theta0()
    c2, c1, c0 = lambda2_coefficients(constants)
    delta0 = -c1 / (2.0 * c2)
    constants = replace(
        constants,
        delta0_fit=delta0,
        c0_fit=c0 / c2 - delta0 ** 2,
        lambda1_check=float(lambda1_check(constants)),
    )
    constants.validate()
    return constants
