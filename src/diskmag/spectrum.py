"""Lowest eigenvalue lambda(n, beta) of the fiber operators and the
global ground state of the magnetic Neumann Laplacian on the unit disk.

For beta > 0 the eigenvalues are the roots of the Neumann boundary
condition written through Kummer functions,

    (n+1)(n - x) M(nu, n+1, x) + 2 x nu M(nu+1, n+2, x) = 0,
    nu = (1 - eta)/2,  x = beta/2,

whose residual :func:`neumann_residual` evaluates in the O(1),
overflow-free scaled form; the crossing system of
:mod:`diskmag.crossings` is the same residual at n and n+1.

For beta <= 2n the root is found in eta by a walk that uses only the
values the Kummer ratio accepts: between Dirichlet poles (zeros of M(nu,
n+1, x) in eta) the residual decreases in eta, and the ratio refuses
every eta past the first pole.  For beta > 2n nu* is e^{-x}-small
(1.7e-193 at (0, 900)), which eta = 1 - 2 nu rounds away; the root is
found in u = ln nu, and every EigenPoint carries nu.  beta = 0 is the
free Neumann Laplacian, solved through the first zero of J_n'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import jnp_zeros

from .errors import BracketFailure, InvalidParams, NonConvergence, SolverError
from .kummer import _series, kummer_m, kummer_m_many, kummer_ratio_shift_b
from .roots import RTOL, brent_root

_ETA_SCAN_STEP = 0.02  # first eta step of the bracket walk at beta <= 2n
_LN2 = math.log(2.0)
_LOG_NU_MAX = -_LN2  # nu = 1/2, eta = 0: the top of the ln nu bracket
_LOG_RATIO_MAX = 709.0  # ln M(1, n+2, x) past which the Kummer ratio overflows
_TIE_REL = 1e-12  # ground_state: relative lambda margin that counts as a tie
_SIGN_TOL = 1e-10  # ground_state: |residual| nu' below which its sign is not used
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
        object.__setattr__(self, "n", mode_index(self.n))
        if not 0.0 <= self.beta < math.inf:
            raise InvalidParams(f"beta={self.beta} must be finite and >= 0")
        if not 0.0 <= self.lam < math.inf:
            raise InvalidParams(f"eigenvalue {self.lam} must be finite and >= 0")


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


def _eta_scan_limit(n: int, beta: float) -> float:
    # lambda(n, .) decreases on (0, 2n], so lambda(n, 0) caps eta there
    return 1.05 * bessel_jnp_first_zero(n) ** 2 / beta + 5.0


def mode_index(n, name: str = "n") -> int:
    """n as an int: InvalidParams, naming the argument ``name``, unless n is
    an integral number >= 0 (ints, numpy ints and floats such as 2.0 pass;
    2.5, nan, inf do not)."""
    try:
        k = int(n)
    except (TypeError, ValueError, OverflowError):
        k = -1
    if k != n or k < 0:
        raise InvalidParams(f"{name}={n!r}: an angular mode must be an integer >= 0")
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
    lo, step, grow, f_lo = (n - 0.5 * beta) ** 2 / beta, _ETA_SCAN_STEP, 2.0, None
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
        lo, f_lo, step = hi, f_hi, grow * step
    eta = brent_root(residual, lo, hi, xtol=1e-100, fa=f_lo, fb=f_hi)
    return EigenPoint(n, beta, beta * eta, eta)


def _solve_log_nu(n: int, beta: float) -> EigenPoint:
    """The beta > 2n root in u = ln nu, bracketed from one Kummer series.

    Times (n+1) max(1, x) M(nu, n+1, x) the residual is (n+1)(n - x) + nu
    x D, D = 2 S - (x - n) W, S = M(nu+1, n+2, x) = sum t_k and W = sum
    t_k/(k+1); at nu = 0, S = s 2^e and W = w 2^e.  nu1, the root with R =
    S/M(nu, n+1, x) frozen at R(0) = S, is <= nu* as R falls with nu.  nu_c,
    the root with S and W frozen, is >= nu*: t_k(nu) = t_k(0) P_k, P_k =
    prod_{j<=k} (1 + nu/j), so D(nu) - D(0) = sum t_k(0) (P_k - 1)(2 - (x -
    n)/(k+1)), whose factors both rise with k; by Chebyshev's sum
    inequality it is >= 0, as D(0) > 0 (D/S >= 0.11 measured to n = 2 000).
    The residual rises in u, so a value of the wrong sign at a proven end
    is rounding noise and that end is the root: nu_c where nu* is below
    rounding, nu1 within ~1e-14 of beta = 2n, where the two agree.
    """
    x = 0.5 * beta
    if x == 0.0:  # beta = 5e-324: eta ~ beta/8 underflows, as at beta = 1e-323
        return EigenPoint(n, beta, 0.0, 0.0, 0.5)
    s, w, e = _series(1.0, n + 2.0, x)
    c, d = (n + 1.0) * (x - n) / x, 2.0 * s - (x - n) * w
    if math.log(s) + e * _LN2 > _LOG_RATIO_MAX:
        # R overflows on the way to nu* < 1e-300, and nu_c is nu* to rounding
        return EigenPoint(n, beta, beta, 1.0, math.ldexp(c / d, -e))

    def residual(u: float) -> float:
        return boundary_residual(n, beta, math.exp(u))

    # the residual rises with u from (n - x)/max(1, x) < 0 at nu -> 0 to
    # > 0 at nu = 1/2 (eta = 0); an end value clamped to its proven sign
    # reads 0 where it was noise, and brent_root then returns that end
    lo = min(math.log(0.5 * c / s) - e * _LN2, _LOG_NU_MAX)
    hi = min(math.log(c / d) - e * _LN2, _LOG_NU_MAX)
    nu = math.exp(brent_root(residual, lo, hi, xtol=1e-100,
                             fa=min(residual(lo), 0.0), fb=max(residual(hi), 0.0)))
    eta = 1.0 - 2.0 * nu
    return EigenPoint(n, beta, beta * eta, eta, nu)


def lowest_eigenvalue(n: int, beta: float) -> EigenPoint:
    """Lowest eigenvalue of the fiber operator at angular mode n.

    For beta > 2n one Brent solve (:func:`~diskmag.roots.brent_root`,
    tolerance 4 eps |u|) for u = ln nu on a bracket from one Kummer series
    (:func:`_solve_log_nu`) takes 2-10 residual evaluations, 2-3 where nu* <
    1e-17; there eta = 1 - 2 nu is correctly rounded and ``nu`` keeps nu*.
    Past ln M(1, n+2, x) = 709 (beta >~ 1 400 at n = 0) eta is 1 and nu is
    nu* to 2 ulp where measured (0.0 once it underflows), from no residual.
    eta is good to about eps absolute (<= 2 eps), not relative: at n = 0,
    beta << 1, eta ~ beta/8 and lambda's relative error is ~ eps/eta.

    For beta <= 2n a walk up from the potential minimum (n - beta/2)^2 /
    beta brackets the root in eta: its step starts at 0.02 and doubles
    while the residual is positive, and bisects toward the lowest refused
    point (past the first Dirichlet pole, or by the Kummer recurrence's
    error bound), so the first accepted residual <= 0 closes a bracket with
    one root and no pole; Brent solves in eta, 10-21 residual evaluations
    in all.  Its stop, 4 eps relative, is not lambda's error: against the
    90-digit root of the residual lambda is 12 eps off at (30, 0.05) and
    15 eps at (400, 10), where the Kummer recurrence's rounding dominates.
    Raises BracketFailure past the cap 1.05 j'_{n,1}^2 / beta + 5, and
    NonConvergence, chained from the last refusal, once the step falls
    below that tolerance ((200, 0.5), (350, 1)).

    Raises InvalidParams unless n is an integer >= 0 (see
    :func:`mode_index`) and beta is finite and >= 0.  Results are memoized.
    """
    return _lowest_eigenvalue_cached(mode_index(n), float(beta))


def _graded_mesh(n: int, beta: float) -> np.ndarray:
    """Cell edges on [0, 1], refined toward r = 1 at the boundary-layer
    scale, and as finely within 12 layer widths of the potential minimum
    r0 = sqrt(2n/beta) when that lies more than a width inside: at beta >
    2n with n << beta/2 the ground state's mass sits there, not at r = 1.
    Below the layer the steps grow 1.8x, and the step that reaches that
    window ends at its edge, so no cell leaps over r0."""
    width = min(0.25, 1.0 / math.sqrt(max(beta, 16.0)))
    r0 = math.sqrt(2.0 * n / beta)
    window = 1.0 - r0 > width
    low, top = r0 - 12.0 * width, r0 + 12.0 * width
    edges = [1.0]
    pos = 1.0
    step = 0.5 * width  # 8-point cells -> 16 nodes per layer width
    layer_left = 1.0 - 12.0 * width
    while pos > 0.0:
        if window and low < pos <= top:
            step = 0.5 * width
        elif pos <= layer_left:
            step *= 1.8
        last, pos = pos, max(0.0, pos - step)
        if window and pos < top < last:
            pos = top
        edges.append(pos)
    return np.array(edges[::-1])


_GL_NODES, _GL_WEIGHTS = leggauss(8)


def eigenfunction(point: EigenPoint) -> EigenfunctionHandle:
    """Normalize the Kummer-form eigenfunction and take its boundary trace.

    The squared-norm integral is evaluated in log space on a mesh graded
    toward r = 1 (composite 8-point Gauss-Legendre), because the raw
    integrand spans hundreds of orders of magnitude at large beta.  ln M
    at all Gauss nodes comes from one call of the many-z Kummer kernel
    :func:`~diskmag.kummer.kummer_m_many`: for nu >= 0 a few numpy
    products, one per band of nodes whose series need about as many
    terms; per-node :func:`~diskmag.kummer.kummer_m` for nu < 0.
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

    lambda(n, beta) falls then rises in n, so a downhill walk from the
    boundary-layer estimate finds the mode; ties report the smaller n.  It
    moves to m if lambda(m) < t = here (1 - _TIE_REL) and solves only the
    modes it visits: at beta > 2m and nu' = (1 - t/beta)/2 > 0 that holds
    iff nu*(m) > nu' iff r = boundary_residual(m, beta, nu') < 0, as r
    rises with u = ln nu through one root (see _solve_log_nu), at dr/du in
    (0, 1 + r] (R = M(nu+1, m+2, x)/M(nu, m+1, x) falls with nu).  Brent's
    stop (4 eps |u|), r's error (<= 4 eps measured) and the roundings of
    lambda and nu' (4 eps/nu' in u) cannot flip a sign with |r| > 40
    eps/nu', 2e4 times below _SIGN_TOL/nu'.  At beta <= 2m, lambda(m)
    exceeds the least potential (m - beta/2)^2, so m is not lower if that
    reaches t; otherwise there, below the sign tolerance, where r raises or
    at nu' <= 0, lambda(m) is solved and compared.
    """
    if not 0.0 < beta < math.inf:
        raise InvalidParams(f"beta={beta} must be finite and > 0 for the "
                            "ground state scan")

    def lower(m: int, here: float) -> bool:
        t = here * (1.0 - _TIE_REL)
        if beta <= 2.0 * m and (m - 0.5 * beta) ** 2 >= t:
            return False  # lambda(m) > min over r in (0, 1] of (m/r - beta r/2)^2
        nu = 0.5 * (1.0 - t / beta)
        if beta > 2.0 * m and nu > 0.0:
            try:
                r = boundary_residual(m, beta, nu)
            except SolverError:  # solved below, which raises if it must
                r = 0.0
            if abs(r) * nu > _SIGN_TOL:
                return r < 0.0
        return lowest_eigenvalue(m, beta).lam < t

    k = max(0, round(0.5 * beta + XI0_SEED * math.sqrt(beta)))
    point = lowest_eigenvalue(k, beta)
    for step in (-1, 1):
        start = k
        while k + step >= 0 and lower(k + step, point.lam):
            k += step
            point = lowest_eigenvalue(k, beta)
        if k != start:  # it came down: lambda(k + 1) > here/(1 - _TIE_REL)
            break
    return point, k
