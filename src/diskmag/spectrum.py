"""Lowest eigenvalue lambda(n, beta) of the fiber operators and the
global ground state of the magnetic Neumann Laplacian on the unit disk.

For beta > 0 the eigenvalues are the roots in eta of the Neumann
boundary condition written through Kummer functions,

    (n+1)(n - x) M(nu, n+1, x) + 2 x nu M(nu+1, n+2, x) = 0,
    nu = (1 - eta)/2,  x = beta/2,

whose residual :func:`neumann_residual` evaluates in the O(1),
overflow-free scaled form; the crossing system of
:mod:`diskmag.crossings` is the same residual at n and n+1.
Between Dirichlet poles (zeros of M(nu, n+1, x) in eta) the residual
strictly decreases in eta, and the Kummer ratio refuses every eta past
the first pole, so a walk that uses only accepted values brackets the
first root without a sign test of M at a distant point.  For beta = 0
the problem degenerates to the free Neumann Laplacian and is handled
through the first zero of the Bessel derivative J_n'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import jnp_zeros

from .errors import BracketFailure, InvalidParams, NonConvergence
from .kummer import kummer_m, kummer_m_many, kummer_ratio_shift_b
from .roots import RTOL, brent_root

_ETA_SCAN_STEP = 0.02  # first eta step of the bracket walk at beta <= 2n
_TIE_REL = 1e-12  # ground_state: relative lambda margin that counts as a tie


@dataclass(frozen=True)
class EigenPoint:
    """One point (n, beta) on an eigenvalue curve.

    ``eta`` is lambda/beta, the field-normalized eigenvalue; it is NaN
    at beta = 0 where the ratio is undefined.
    """

    n: int
    beta: float
    lam: float
    eta: float

    def __post_init__(self) -> None:
        if self.n < 0:
            raise InvalidParams("angular mode n must be >= 0")
        if self.beta < 0.0:
            raise InvalidParams("beta must be >= 0")
        if self.lam < 0.0:
            raise InvalidParams("eigenvalue must be >= 0")


@dataclass(frozen=True)
class EigenfunctionHandle:
    """Normalized radial ground state of one fiber operator.

    ``log_norm_integral`` caches ln of the squared-norm integral of the
    raw Kummer form, which routinely spans e^{+-400}; :meth:`evaluate`
    divides by its square root in log space.
    """

    point: EigenPoint
    boundary_trace: float
    log_norm_integral: float

    def evaluate(self, r) -> np.ndarray:
        """Normalized f(r) on 0 <= r <= 1 (vectorized); InvalidParams outside."""
        r = np.asarray(r, dtype=float)
        if not np.all((r >= 0.0) & (r <= 1.0)):
            raise InvalidParams("eigenfunction is defined on 0 <= r <= 1")
        point = self.point
        out = np.full(r.shape, 0.0 if point.n > 0 else
                      math.exp(-0.5 * self.log_norm_integral))
        nz = r > 0.0
        rn = r[nz]
        log_m, sign = kummer_m_many(0.5 * (1.0 - point.eta), point.n + 1.0,
                                    0.5 * point.beta * rn * rn)
        out[nz] = sign * np.exp(point.n * np.log(rn) - 0.25 * point.beta * rn * rn
                                + log_m - 0.5 * self.log_norm_integral)
        return out


@lru_cache(maxsize=None)
def bessel_jnp_first_zero(n: int) -> float:
    """First positive zero of J_n', the Neumann eigenvalue root at beta = 0."""
    if n < 1:
        raise InvalidParams("first J_n' zero used only for n >= 1")
    return float(jnp_zeros(n, 1)[0])


def neumann_residual(n: int, x: float, nu: float) -> float:
    """Scaled Neumann boundary residual of mode n at (x, nu).

    The raw condition is divided by (n+1) max(1, x) M(nu, n+1, x), which
    keeps the value O(1) and sign-accurate: below the first Dirichlet
    eigenvalue, which lies above the first Neumann one, M(nu, n+1, x) > 0,
    so the first sign change in eta is the ground state.  Past it the
    Kummer ratio raises NonConvergence.
    """
    scale = max(1.0, x)
    if nu == 0.0:  # the eta = 1 bracket end, where the ratio (e^x - 1)/x overflows
        return (n - x) / scale
    ratio = kummer_ratio_shift_b(nu, n + 1.0, x)
    return (n - x) / scale + 2.0 * nu * x * ratio / ((n + 1.0) * scale)


def boundary_residual(n: int, beta: float, eta_trial: float) -> float:
    """:func:`neumann_residual` at x = beta/2, nu = (1 - eta)/2, beta > 0."""
    if beta <= 0.0:
        raise InvalidParams("boundary residual needs beta > 0")
    return neumann_residual(n, 0.5 * beta, 0.5 * (1.0 - eta_trial))


def _eta_scan_limit(n: int, beta: float) -> float:
    # lambda(n, .) decreases on (0, 2n], so lambda(n, 0) caps eta there
    return 1.05 * bessel_jnp_first_zero(n) ** 2 / beta + 5.0


@lru_cache(maxsize=None)
def _lowest_eigenvalue_cached(n: int, beta: float) -> EigenPoint:
    if n < 0:
        raise InvalidParams(f"angular mode n={n} must be >= 0")
    if not 0.0 <= beta < math.inf:
        raise InvalidParams(f"beta={beta} must be finite and >= 0")
    if beta == 0.0:
        lam = 0.0 if n == 0 else bessel_jnp_first_zero(n) ** 2
        return EigenPoint(n, 0.0, lam, math.nan)

    def residual(eta: float) -> float:
        return boundary_residual(n, beta, eta)

    if beta > 2.0 * n:
        # residual(1) = (n - x)/max(1, x) < 0 while the first Dirichlet
        # pole lies above eta = 1, so [0, 1] holds exactly one root
        lo, hi = 0.0, 1.0
    else:
        # the potential (n/r - beta r/2)^2 is >= (n - beta/2)^2 on (0, 1],
        # so the walk starts below the first Neumann root N1; a residual
        # <= 0 puts hi in (N1, D1), since past the first Dirichlet pole D1
        # the Kummer ratio raises NonConvergence
        eta_max = _eta_scan_limit(n, beta)
        lo, step, grow = (n - 0.5 * beta) ** 2 / beta, _ETA_SCAN_STEP, 2.0
        while True:
            if lo >= eta_max:
                raise BracketFailure(f"no residual sign change for n={n}, "
                                     f"beta={beta} below eta={eta_max:.3g}")
            hi = min(lo + step, eta_max)
            try:
                f_hi = residual(hi)
            except NonConvergence as exc:
                # bisect toward the lowest refused point from here on
                step, grow = 0.5 * (hi - lo), 0.5
                if step <= RTOL * hi:
                    raise NonConvergence(
                        f"no residual sign change for n={n}, beta={beta}: "
                        f"every trial above eta={lo!r} refused ({exc})") from exc
                continue
            if f_hi <= 0.0:
                break
            lo, step = hi, grow * step
    eta = brent_root(residual, lo, hi, xtol=1e-100)
    return EigenPoint(n, beta, beta * eta, eta)


def lowest_eigenvalue(n: int, beta: float) -> EigenPoint:
    """Lowest eigenvalue of the fiber operator at angular mode n.

    For beta > 2n one Brent solve (:func:`~diskmag.roots.brent_root`,
    tolerance 4 eps relative) on eta in [0, 1].  For beta <= 2n a walk up
    from the potential minimum (n - beta/2)^2 / beta brackets the root:
    its step starts at 0.02 and doubles while the residual is positive,
    and once a trial point is refused (past the first Dirichlet pole, or
    by the Kummer recurrence's error bound) it bisects toward the lowest
    refused point, so the first accepted residual <= 0 closes a bracket
    holding one root and no pole.  Raises BracketFailure past the cap
    1.05 j'_{n,1}^2 / beta + 5, and NonConvergence, chained from the
    last refusal, once the step falls below that tolerance (seen at
    beta <= 1 with eta >~ 8e4: (200, 0.5), (350, 1)).  Raises InvalidParams
    for n < 0 and for beta < 0 or not finite.  Results are memoized.
    """
    return _lowest_eigenvalue_cached(int(n), float(beta))


def _graded_mesh(beta: float) -> np.ndarray:
    """Cell edges on [0, 1], refined toward r = 1 at the boundary-layer scale."""
    width = min(0.25, 1.0 / math.sqrt(max(beta, 16.0)))
    edges = [1.0]
    pos = 1.0
    step = 0.5 * width  # 8-point cells -> 16 nodes per layer width
    layer_left = 1.0 - 12.0 * width
    while pos > 0.0:
        if pos <= layer_left:
            step *= 1.8
        pos = max(0.0, pos - step)
        edges.append(pos)
    return np.array(edges[::-1])


_GL_NODES, _GL_WEIGHTS = leggauss(8)


def eigenfunction(point: EigenPoint) -> EigenfunctionHandle:
    """Normalize the Kummer-form eigenfunction and take its boundary trace.

    The squared-norm integral is evaluated in log space on a mesh graded
    toward r = 1 (composite 8-point Gauss-Legendre), because the raw
    integrand spans hundreds of orders of magnitude at large beta.  ln M
    at all Gauss nodes comes from one call of the many-z Kummer kernel
    :func:`~diskmag.kummer.kummer_m_many`: one numpy product for nu >= 0,
    per-node :func:`~diskmag.kummer.kummer_m` for nu < 0.
    """
    if point.beta <= 0.0:
        raise InvalidParams("eigenfunction normalization needs beta > 0")
    n, beta, eta = point.n, point.beta, point.eta
    nu = 0.5 * (1.0 - eta)

    edges = _graded_mesh(beta)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    rad = 0.5 * (edges[1:] - edges[:-1])[:, None]
    r = (mid + rad * _GL_NODES).ravel()
    weights = (rad * _GL_WEIGHTS).ravel()
    log_m, _ = kummer_m_many(nu, n + 1.0, 0.5 * beta * r * r)
    log_r = np.log(r)
    log_vals = 2.0 * (n * log_r - 0.25 * beta * r * r + log_m) + log_r
    top = float(log_vals.max())
    log_norm = top + math.log(float(np.sum(weights * np.exp(log_vals - top))))

    log_m1, sign1 = kummer_m(nu, n + 1.0, 0.5 * beta)
    trace = sign1 * math.exp(-0.25 * beta + log_m1 - 0.5 * log_norm)
    return EigenfunctionHandle(
        point=point,
        boundary_trace=trace,
        log_norm_integral=log_norm,
    )


def ground_state(beta: float) -> tuple[EigenPoint, int]:
    """Global ground state lambda(beta) = min_n lambda(n, beta) and its mode.

    For fixed beta the map n -> lambda(n, beta) decreases then increases,
    so a downhill walk from the boundary-layer estimate of the minimizing
    mode finds the minimum; ties at crossing points report the smaller n.
    """
    if beta <= 0.0:
        raise InvalidParams("ground state scan needs beta > 0")

    def lam(m: int) -> float:
        return lowest_eigenvalue(m, beta).lam

    k = max(0, round(0.5 * beta - 0.768 * math.sqrt(beta)))
    here = lam(k)
    while k > 0:
        below = lam(k - 1)
        if below < here * (1.0 - _TIE_REL):
            k, here = k - 1, below
        else:
            break
    while True:
        above = lam(k + 1)
        if above < here * (1.0 - _TIE_REL):
            k, here = k + 1, above
        else:
            break
    return lowest_eigenvalue(k, beta), k
