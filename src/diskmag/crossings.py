"""Crossing points of consecutive eigenvalue curves.

At the unique beta_n where lambda(n, .) and lambda(n+1, .) intersect,
the pair (x, nu) = (beta/2, (1-eta)/2) solves the two-equation Kummer
system, the Neumann residual of :mod:`diskmag.spectrum` at modes n and
n+1; eliminating the Kummer functions through their contiguous
recurrences yields the closed-form Saint-James relation

    beta = 2 eta + 2n + 1 + sqrt((2 eta + 1)^2 + 8 n eta).

Three independent routes to (beta_n, eta_n*) are implemented:

* root of beta -> lambda(n, beta) - lambda(n+1, beta) (curve intersection),
* damped Newton on the scaled two-equation system,
* substitution of the Saint-James x(nu) into the first equation, leaving
  a single implicit equation in nu.

All three agree to ~1e-12 relative; the residuals stored on each
CrossingPoint make the agreement auditable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import BracketFailure, InvalidParams, NewtonDivergence
# unused here (the residuals reach the ratio through neumann_residual);
# bound because perfbench's tracer checks that it patches this binding
from .kummer import kummer_ratio_shift_b  # noqa: F401
from .roots import brent_root
from .spectrum import XI0_SEED, lowest_eigenvalue, mode_index, neumann_residual

_NEWTON_MAX_ITER = 50
_NEWTON_TOL = 1e-11  # a Newton stop above this residual norm falls back to the curves


@dataclass(frozen=True)
class CrossingPoint:
    """Intersection of the n-th and (n+1)-th eigenvalue curves.

    sys_residuals holds the scaled residuals of both boundary equations
    at the returned point; sj_residual is |beta_n - SJ(n, eta_star)|.
    """

    n: int
    beta_n: float
    eta_star: float
    lambda_star: float
    sj_residual: float
    sys_residuals: tuple[float, float]
    method: str

    def __post_init__(self) -> None:
        if self.method not in ("curve_intersection", "kummer_system", "implicit_phi"):
            raise ValueError(f"unknown method {self.method!r}")


def saint_james_beta(n: int, eta: float) -> float:
    """The crossing field strength as a function of the crossing ratio.

    Larger root of beta^2 - 2(2 eta + 2n + 1) beta + 4 n (n+1) = 0; for
    n = 0 the radical collapses and the formula reduces to 4 eta + 2.
    InvalidParams unless n is an integer >= 0 and eta is finite and >= 0.
    """
    n = mode_index(n)
    if not 0.0 <= eta < math.inf:
        raise InvalidParams(f"eta={eta} must be finite and >= 0")
    return 2.0 * eta + 2.0 * n + 1.0 + math.sqrt(
        (2.0 * eta + 1.0) ** 2 + 8.0 * n * eta)


def _system_residuals(n: int, x: float, nu: float) -> tuple[float, float]:
    """Scaled residuals of the Neumann conditions of modes n and n+1 at (x, nu)."""
    return neumann_residual(n, x, nu), neumann_residual(n + 1, x, nu)


def _guess(n: int) -> tuple[float, float]:
    """Asymptotic seed (x, nu): beta from the crossing expansion, eta by
    inverting the Saint-James quadratic at that beta."""
    beta = max(2.0 * n + 2.0 ** 1.5 * abs(XI0_SEED) * math.sqrt(n) + 2.0,
               2.0 * n + 3.0)
    eta = (beta * beta - 2.0 * (2.0 * n + 1.0) * beta + 4.0 * n * (n + 1.0)) \
        / (4.0 * beta)
    eta = min(max(eta, 0.05), 0.95)
    return 0.5 * beta, 0.5 * (1.0 - eta)


def _make_point(n: int, x: float, nu: float, method: str, residuals=None) -> CrossingPoint:
    beta = 2.0 * x
    eta = 1.0 - 2.0 * nu
    return CrossingPoint(
        n=n,
        beta_n=beta,
        eta_star=eta,
        lambda_star=beta * eta,
        sj_residual=abs(beta - saint_james_beta(n, eta)),
        sys_residuals=residuals or _system_residuals(n, x, nu),
        method=method,
    )


def crossing_by_system(n: int,
                       seed: tuple[float, float] | None = None) -> CrossingPoint:
    """Damped Newton on the scaled two-equation system in (x, nu).

    The Jacobian comes from forward differences of the scaled residuals;
    steps are halved until the residual norm decreases.  Falls back to
    the bracketed curve intersection if Newton diverges.
    """
    n = mode_index(n)
    x, nu = seed if seed is not None else _guess(n)
    f1, f2 = _system_residuals(n, x, nu)
    norm = max(abs(f1), abs(f2))
    for _ in range(_NEWTON_MAX_ITER):
        if norm < 1e-15:
            break
        hx = 1e-7 * max(1.0, x)
        hn = 1e-7 * max(0.05, abs(nu))
        g1x, g2x = _system_residuals(n, x + hx, nu)
        g1n, g2n = _system_residuals(n, x, nu + hn)
        j11, j21 = (g1x - f1) / hx, (g2x - f2) / hx
        j12, j22 = (g1n - f1) / hn, (g2n - f2) / hn
        det = j11 * j22 - j12 * j21
        if det == 0.0:
            raise NewtonDivergence(f"singular Jacobian at n={n}")
        dx = -(j22 * f1 - j12 * f2) / det
        dn = -(j11 * f2 - j21 * f1) / det
        step = 1.0
        for _ in range(30):
            x_new = x + step * dx
            nu_new = min(max(nu + step * dn, 1e-12), 0.5 - 1e-12)
            x_new = max(x_new, n + 1.0 + 1e-9)
            t1, t2 = _system_residuals(n, x_new, nu_new)
            if max(abs(t1), abs(t2)) < norm:
                x, nu, f1, f2 = x_new, nu_new, t1, t2
                norm = max(abs(f1), abs(f2))
                break
            step *= 0.5
        else:
            break  # no step lowers the norm: stagnated or diverging
    if norm >= _NEWTON_TOL:
        return crossing_by_curves(n)
    return _make_point(n, x, nu, "kummer_system", (f1, f2))


def crossing_by_curves(n: int) -> CrossingPoint:
    """Bracketed root of beta -> lambda(n, beta) - lambda(n+1, beta).

    The bracket [2(n+1), SJ(n, 0.99) + 10] is guaranteed by the crossing
    theory: the crossing lies above 2(n+1), and eta_star is well below
    0.99, so the Saint-James value at 0.99 overshoots it.
    """

    def gap(beta: float) -> float:
        return lowest_eigenvalue(n, beta).lam - lowest_eigenvalue(n + 1, beta).lam

    lo = 2.0 * (n + 1.0) + 1e-9
    hi = saint_james_beta(n, 0.99) + 10.0
    g_lo, g_hi = gap(lo), gap(hi)
    if not g_lo < 0.0 < g_hi:
        raise BracketFailure(
            f"crossing bracket sign pattern violated at n={n} "
            f"(gap({lo:.3f})={g_lo:.3e}, gap({hi:.3f})={g_hi:.3e})")
    beta = brent_root(gap, lo, hi, xtol=1e-100, fa=g_lo, fb=g_hi)
    return _make_point(n, 0.5 * beta, lowest_eigenvalue(n, beta).nu,
                       "curve_intersection")


def _x_of_nu(n: int, nu: float) -> float:
    """Saint-James x(nu) substituted into the crossing system."""
    return 0.5 * saint_james_beta(n, 1.0 - 2.0 * nu)


def crossing_by_phi(n: int) -> CrossingPoint:
    """Root of the single implicit equation Phi(nu, n) = 0 in nu.

    Phi is the scaled first boundary equation with x eliminated through
    the Saint-James relation; any algebraically equivalent form has the
    same roots, and the scaled form stays O(1).
    """
    n = mode_index(n)

    def phi(nu: float) -> float:
        return neumann_residual(n, _x_of_nu(n, nu), nu)

    _, nu_seed = _guess(n)
    width, f_lo, f_hi = 0.01, 1.0, 1.0  # the first bracket is +-0.02
    while f_lo * f_hi > 0.0:
        width *= 2.0
        if width > 1.0:
            raise BracketFailure(f"no Phi sign change in (0, 1/2) for n={n}")
        lo = max(1e-12, nu_seed - width)
        hi = min(0.5 - 1e-12, nu_seed + width)
        f_lo, f_hi = phi(lo), phi(hi)
    nu = brent_root(phi, lo, hi, xtol=1e-100, fa=f_lo, fb=f_hi)
    return _make_point(n, _x_of_nu(n, nu), nu, "implicit_phi")


def crossings_range(n_max) -> tuple[CrossingPoint, ...]:
    """Crossings for n = 0 .. n_max via the Kummer system, with each
    solution seeding the next (linear extrapolation of eta_star).

    n_max is checked by mode_index (InvalidParams unless an integer >= 0)
    before the memo (_crossings_pass), so 3 and 3.0 share one entry and a
    process makes one pass; a tuple, so no caller can change it.  Each
    crossing is seeded only by earlier ones: crossings_range(m) ==
    crossings_range(n)[:m + 1] for m <= n.
    """
    return _crossings_pass(mode_index(n_max, "n_max"))


@lru_cache(maxsize=None)
def _crossings_pass(n_max: int) -> tuple[CrossingPoint, ...]:
    points: list[CrossingPoint] = []
    for n in range(n_max + 1):
        seed = None
        if points:
            eta_seed = (points[-1].eta_star if n == 1
                        else 2.0 * points[-1].eta_star - points[-2].eta_star)
            seed = (0.5 * saint_james_beta(n, eta_seed), 0.5 * (1.0 - eta_seed))
        points.append(crossing_by_system(n, seed=seed))
    return tuple(points)
