"""Lowest eigenvalue lambda(n, beta) of the fiber operators and the
global ground state of the magnetic Neumann Laplacian on the unit disk.

For beta > 0 the eigenvalues are the roots of the Neumann boundary
condition written through Kummer functions,

    (n+1)(n - x) M(nu, n+1, x) + 2 x nu M(nu+1, n+2, x) = 0,
    nu = (1 - eta)/2,  x = beta/2,

whose residual :func:`neumann_residual` evaluates in the O(1),
overflow-free scaled form; the crossing system of
:mod:`diskmag.crossings` is the same residual at n and n+1.

For beta <= 2n the root is found in eta.  Between Dirichlet poles (zeros
of M(nu, n+1, x) in eta) the residual strictly decreases in eta, and the
Kummer ratio refuses every eta past the first pole, so a walk that uses
only accepted values brackets the first root without a sign test of M
at a distant point.

For beta > 2n the ground state leaves the boundary and nu* lies within
e^{-x}-small distance of 0 (3e-193 at (0, 900)), below the resolution of
eta near 1.  There the root is found in u = ln nu, where the residual
is smooth: its term 2 nu x R/(n+1), R = M(nu+1, n+2, x)/M(nu, n+1, x),
gives the seed u1 with R frozen at R(0) = M(1, n+2, x), and every
EigenPoint carries nu itself, so the eigenfunction keeps what eta = 1 -
2 nu rounds away.  For beta = 0 the problem degenerates to the free
Neumann Laplacian and is handled through the first zero of the Bessel
derivative J_n'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import gammainc, jnp_zeros

from .errors import BracketFailure, InvalidParams, NonConvergence
from .kummer import kummer_m, kummer_m_many, kummer_ratio_shift_b
from .roots import RTOL, brent_root

_ETA_SCAN_STEP = 0.02  # first eta step of the bracket walk at beta <= 2n
_LN2, _LN3 = math.log(2.0), math.log(3.0)
_LOG_NU_MAX = -_LN2  # nu = 1/2, eta = 0: the top of the ln nu bracket
_LOG_RATIO_MAX = 709.0  # ln M(1, n+2, x) past which the Kummer ratio overflows
_TIE_REL = 1e-12  # ground_state: relative lambda margin that counts as a tie
XI0_SEED = -0.768  # xi0 to three digits: seeds ground_state and the crossing guess


@dataclass(frozen=True)
class EigenPoint:
    """One point (n, beta) on an eigenvalue curve.

    ``eta`` is lambda/beta, the field-normalized eigenvalue; it is NaN
    at beta = 0 where the ratio is undefined.  ``nu`` is the Kummer
    parameter (1 - eta)/2, by default computed from eta; the beta > 2n
    solve passes the nu it found, which 1 - eta rounds away once nu is
    below eta's resolution, and sets eta = 1 - 2 nu.
    """

    n: int
    beta: float
    lam: float
    eta: float
    nu: float | None = None

    def __post_init__(self) -> None:
        if self.nu is None:
            object.__setattr__(self, "nu", 0.5 * (1.0 - self.eta))
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
        log_m, sign = kummer_m_many(point.nu, point.n + 1.0,
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
    # nu = 0 (eta = 1) is reached only if the beta <= 2n walk lands on it
    # exactly; the nu term vanishes there and its ratio (e^x - 1)/x can overflow
    if nu == 0.0:
        return (n - x) / scale
    ratio = kummer_ratio_shift_b(nu, n + 1.0, x)
    return (n - x) / scale + 2.0 * nu * x * ratio / ((n + 1.0) * scale)


def boundary_residual(n: int, beta: float, nu: float) -> float:
    """:func:`neumann_residual` at x = beta/2, beta > 0; nu = (1 - eta)/2."""
    if beta <= 0.0:
        raise InvalidParams("boundary residual needs beta > 0")
    return neumann_residual(n, 0.5 * beta, nu)


def _log_m_one(n: int, x: float) -> float:
    """ln M(1, n+2, x) = ln((n+1)! x^{-(n+1)} e^x P(n+1, x)), with P the
    regularized lower incomplete gamma function (Kummer's transformation
    and M(a, a+1, -z) = a z^{-a} gamma(a, z), DLMF 13.2.39 and 13.6.10)."""
    return (math.lgamma(n + 2.0) - (n + 1.0) * math.log(x) + x
            + math.log(float(gammainc(n + 1.0, x))))


def _eta_scan_limit(n: int, beta: float) -> float:
    # lambda(n, .) decreases on (0, 2n], so lambda(n, 0) caps eta there
    return 1.05 * bessel_jnp_first_zero(n) ** 2 / beta + 5.0


def mode_index(n) -> int:
    """n as an int: InvalidParams unless n is an integral number >= 0
    (ints, numpy ints and floats such as 2.0 pass; 2.5, nan, inf do not)."""
    try:
        k = int(n)
    except (TypeError, ValueError, OverflowError):
        k = -1
    if k != n or k < 0:
        raise InvalidParams(f"angular mode n={n!r} must be an integer >= 0")
    return k


@lru_cache(maxsize=None)
def _lowest_eigenvalue_cached(n: int, beta: float) -> EigenPoint:
    if not 0.0 <= beta < math.inf:
        raise InvalidParams(f"beta={beta} must be finite and >= 0")
    if beta == 0.0:
        lam = 0.0 if n == 0 else bessel_jnp_first_zero(n) ** 2
        return EigenPoint(n, 0.0, lam, math.nan)

    if beta > 2.0 * n:
        return _solve_log_nu(n, beta)

    def residual(eta: float) -> float:
        return boundary_residual(n, beta, 0.5 * (1.0 - eta))

    # the potential (n/r - beta r/2)^2 is >= (n - beta/2)^2 on (0, 1], so
    # the walk starts below the first Neumann root N1; a residual <= 0
    # puts hi in (N1, D1), since past the first Dirichlet pole D1 the
    # Kummer ratio raises NonConvergence
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


def _solve_log_nu(n: int, beta: float) -> EigenPoint:
    """The beta > 2n root in u = ln nu, bracketed from the seed u1."""
    x = 0.5 * beta
    log_m_one = _log_m_one(n, x)
    # the root with R frozen at R(0): 2 nu x M(1, n+2, x) = (n+1)(x - n);
    # R falls with nu, so nu*/nu1 >= 1 (1.02-2.53 where measured)
    u1 = math.log((x - n) * (n + 1.0) / (2.0 * x)) - log_m_one
    if log_m_one > _LOG_RATIO_MAX:
        # R overflows at every nu up to the root nu* < 3 nu1 < 1e-300,
        # so no residual there can be evaluated; eta = 1 - 2 nu* is 1
        return EigenPoint(n, beta, beta, 1.0, math.exp(u1))
    values: dict[float, float] = {}

    def residual(u: float) -> float:
        # memoized, so the bracket ends cost nothing again in brent_root
        if u not in values:
            values[u] = boundary_residual(n, beta, math.exp(u))
        return values[u]

    # the residual rises with u from (n - x)/max(1, x) < 0 at nu -> 0 to
    # > 0 at nu = 1/2 (eta = 0); widen a missed bracket by ln 2 steps
    lo = min(u1, _LOG_NU_MAX)
    hi = min(lo + _LN3, _LOG_NU_MAX)
    while residual(lo) > 0.0:
        lo, hi = lo - _LN2, lo
    while residual(hi) < 0.0 and hi < _LOG_NU_MAX:
        lo, hi = hi, min(hi + _LN2, _LOG_NU_MAX)
    nu = math.exp(brent_root(residual, lo, hi, xtol=1e-100))
    eta = 1.0 - 2.0 * nu
    return EigenPoint(n, beta, beta * eta, eta, nu)


def lowest_eigenvalue(n: int, beta: float) -> EigenPoint:
    """Lowest eigenvalue of the fiber operator at angular mode n.

    For beta > 2n one Brent solve (:func:`~diskmag.roots.brent_root`,
    tolerance 4 eps |u|) for u = ln nu on [u1, u1 + ln 3], where the seed
    u1 is the root with the Kummer ratio frozen at nu = 0; a bracket end of
    the wrong sign moves out by ln 2 steps, up to u = ln(1/2) (eta = 0).
    That takes 4-12 residual evaluations, where the solve in eta on [0, 1]
    took 10-53.  eta = 1 - 2 nu is not clamped, so it is correctly rounded
    where nu* < 1e-17, and the point's ``nu`` keeps nu* (3.3e-193 at
    (0, 900)).  Past ln M(1, n+2, x) = 709 (beta >~ 1 400 at n = 0) the
    Kummer ratio overflows near the root, nu* < 1e-300: eta is 1 and nu
    the seed's, within a factor 3.  The solve resolves nu, so eta is good
    to about eps absolute (<= 2 eps, 1.3 eps measured), not relative: at
    n = 0, beta << 1, where eta ~ beta/8, lambda = beta eta carries a
    relative error of order eps/eta (8e-8 at beta = 1e-9, 2e-11 at 1e-4).

    For beta <= 2n a walk up from the potential minimum (n - beta/2)^2 /
    beta brackets the root in eta: its step starts at 0.02 and doubles
    while the residual is positive, and once a trial point is refused
    (past the first Dirichlet pole, or by the Kummer recurrence's error
    bound) it bisects toward the lowest refused point, so the first
    accepted residual <= 0 closes a bracket holding one root and no pole;
    Brent then solves in eta to 4 eps relative.  Raises BracketFailure
    past the cap 1.05 j'_{n,1}^2 / beta + 5, and NonConvergence, chained
    from the last refusal, once the step falls below that tolerance (seen
    at beta <= 1 with eta >~ 8e4: (200, 0.5), (350, 1)).

    Raises InvalidParams unless n is an integer >= 0 (see
    :func:`mode_index`) and beta is finite and >= 0.  Results are memoized.
    """
    return _lowest_eigenvalue_cached(mode_index(n), float(beta))


def _graded_mesh(n: int, beta: float) -> np.ndarray:
    """Cell edges on [0, 1], refined toward r = 1 at the boundary-layer
    scale, and as finely within 12 layer widths of the potential minimum
    r0 = sqrt(2n/beta) when that lies more than a width inside: at beta >
    2n with n << beta/2 the ground state's mass sits there, not at r = 1."""
    width = min(0.25, 1.0 / math.sqrt(max(beta, 16.0)))
    r0 = math.sqrt(2.0 * n / beta)
    edges = [1.0]
    pos = 1.0
    step = 0.5 * width  # 8-point cells -> 16 nodes per layer width
    layer_left = 1.0 - 12.0 * width
    while pos > 0.0:
        if 1.0 - r0 > width and abs(pos - r0) < 12.0 * width:
            step = 0.5 * width
        elif pos <= layer_left:
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
    n, beta, nu = point.n, point.beta, point.nu

    edges = _graded_mesh(n, beta)
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
    if not 0.0 < beta < math.inf:
        raise InvalidParams(f"beta={beta} must be finite and > 0 for the "
                            "ground state scan")

    def lam(m: int) -> float:
        return lowest_eigenvalue(m, beta).lam

    k = max(0, round(0.5 * beta + XI0_SEED * math.sqrt(beta)))
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
