"""Independent brute-force oracles used by the test suite.

Each of these deliberately avoids the code paths it checks: rational
series summation and adaptive quadrature of the integral representation
for the Kummer series, the contiguous recurrences as identities between
Kummer values, an ascending-series bisection for Bessel derivative
zeros, and an RK4 shooting integrator for the half-line eigenvalue.
fd_degennes_eigen takes the half-line FD eigenpair on one grid and warns
(TruncationWarning) when the domain is too short; fd_degennes_lambda
combines two grids solved by fd.solve_pair, as degennes.lambda_dg does,
and boundary_pairing_check checks <u0, u0'> = -u0(0)^2/2 on degennes'
own grid pair.  For beta > 2n, nu_root_mp roots the Neumann condition in
mpmath with M in the 2F2 form, which stays right at the tiny nu where
mpmath's hyp1f1 does not; boundary_trace_quadrature normalizes the
eigenfunction at a given nu on a uniform mesh, and fd_boundary_trace
takes the trace from the two-grid FD eigenvector.  fd_crossing and
fd_lambda_prime take the crossings and the derivatives of lambda from
fd_disk_lambda alone.  sturm_smallest_mp bisects on the Sturm count of a
given double tridiagonal in 30-digit arithmetic, the exact smallest
eigenvalue of that very matrix.  ground_state_by_solves is the
ground-state walk that solves every neighbour it compares.
ScaledReal is the log-magnitude arithmetic these oracles compute in;
eta_prime restates lambda_prime for the field-normalized ratio eta.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

import mpmath
import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.optimize import brentq

from diskmag import degennes
from diskmag.crossings import saint_james_beta
from diskmag.derivatives import lambda_prime
from diskmag.errors import InvalidParams, SolverError
from diskmag.fd import (Grid1D, _allowance, assemble_degennes_system,
                        assemble_disk_system, fd_disk_lambda, richardson,
                        solve_pair, solve_smallest)
from diskmag.kummer import kummer_m
from diskmag.spectrum import XI0_SEED, _TIE_REL, lowest_eigenvalue

_QUAD_REL_TOL = 1e-12  # relative tolerance of each adaptive quadrature piece


class QuadratureFailure(SolverError):
    """Adaptive quadrature did not reach the requested tolerance."""


class TruncationWarning(UserWarning):
    """Half-line eigenfunction not negligible at the artificial boundary."""


@dataclass(frozen=True)
class ScaledReal:
    """A real number as (natural log of magnitude, sign).

    Kummer values like M(nu, n+1, beta/2) reach magnitudes around e^422,
    so raw doubles are one curve away from overflow; products, quotients
    and ratios stay exact in the exponent for |log|x|| up to well beyond
    1e6.  ``sign == 0`` iff ``log_mag == -inf`` (the encoding of zero).
    """

    log_mag: float
    sign: int

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or 1, got {self.sign}")
        if (self.sign == 0) != (self.log_mag == -math.inf):
            raise ValueError("sign 0 must pair with log_mag -inf and vice versa")

    @classmethod
    def from_float(cls, x: float) -> "ScaledReal":
        if x == 0.0:
            return cls(-math.inf, 0)
        return cls(math.log(abs(x)), 1 if x > 0 else -1)

    @classmethod
    def zero(cls) -> "ScaledReal":
        return cls(-math.inf, 0)

    def value(self) -> float:
        """Back to an ordinary float; may overflow to inf by design."""
        if self.sign == 0:
            return 0.0
        try:
            return self.sign * math.exp(self.log_mag)
        except OverflowError:
            return self.sign * math.inf

    def __mul__(self, other: "ScaledReal") -> "ScaledReal":
        if self.sign == 0 or other.sign == 0:
            return ScaledReal.zero()
        return ScaledReal(self.log_mag + other.log_mag, self.sign * other.sign)

    def __truediv__(self, other: "ScaledReal") -> "ScaledReal":
        if other.sign == 0:
            raise ZeroDivisionError("ScaledReal division by zero")
        if self.sign == 0:
            return ScaledReal.zero()
        return ScaledReal(self.log_mag - other.log_mag, self.sign * other.sign)

    def __neg__(self) -> "ScaledReal":
        return ScaledReal(self.log_mag, -self.sign)

    def ratio(self, other: "ScaledReal") -> float:
        """self/other as an ordinary float (the safe way to leave log space)."""
        return (self / other).value()

    def scaled_by(self, factor: float) -> "ScaledReal":
        """Multiply by an ordinary float."""
        return self * ScaledReal.from_float(factor)


def signed_sum(terms: list[ScaledReal]) -> float:
    """Sum of scaled terms, normalized by the largest magnitude.

    Returns sum(t_i) / max_i |t_i| as a float, which is what residual
    checks of identities between huge quantities need.
    """
    finite = [t for t in terms if t.sign != 0]
    if not finite:
        return 0.0
    top = max(t.log_mag for t in finite)
    return sum(t.sign * math.exp(t.log_mag - top) for t in finite)


def _quad_piece(f, lo: float, hi: float, rel_tol: float) -> float:
    out = quad(f, lo, hi, epsabs=0.0, epsrel=rel_tol, limit=300, full_output=1)
    if len(out) > 3:
        raise QuadratureFailure(f"adaptive quadrature failed: {out[3]}")
    value, abserr = out[0], out[1]
    if abserr > 100.0 * rel_tol * abs(value) + 1e-300:
        raise QuadratureFailure(
            f"quadrature error estimate {abserr:.2e} too large for value {value:.6e}")
    return value


def kummer_m_integral(a: float, b: float, z: float) -> ScaledReal:
    """M(a, b, z) via the integral representation, for 0 < a < b.

    The e^z factor is pulled out analytically, leaving
    J = int_0^1 e^{-z s} s^{b-a-1} (1-s)^{a-1} ds, which is split at 1/2
    and mapped by s = u^{1/(b-a)} (resp. 1-s = v^{1/a}) wherever the
    endpoint exponent is below 1, so the quadrature only ever sees a
    smooth integrand.  Serves as the independent oracle for the series.
    """
    if not (0.0 < a < b):
        raise InvalidParams(f"integral representation needs 0 < a < b, got ({a}, {b})")
    if z < 0:
        raise InvalidParams(f"z={z} must be >= 0")
    p = b - a
    q = a
    rel_tol = _QUAD_REL_TOL

    if p < 1.0:
        left = (1.0 / p) * _quad_piece(
            lambda u: math.exp(-z * u ** (1.0 / p)) * (1.0 - u ** (1.0 / p)) ** (q - 1.0),
            0.0, 0.5 ** p, rel_tol)
    else:
        left = _quad_piece(
            lambda s: math.exp(-z * s) * s ** (p - 1.0) * (1.0 - s) ** (q - 1.0),
            0.0, 0.5, rel_tol)
    if q < 1.0:
        right = (1.0 / q) * _quad_piece(
            lambda v: math.exp(-z * (1.0 - v ** (1.0 / q))) * (1.0 - v ** (1.0 / q)) ** (p - 1.0),
            0.0, 0.5 ** q, rel_tol)
    else:
        right = _quad_piece(
            lambda s: math.exp(-z * s) * s ** (p - 1.0) * (1.0 - s) ** (q - 1.0),
            0.5, 1.0, rel_tol)

    log_val = (math.lgamma(b) - math.lgamma(p) - math.lgamma(q)
               + z + math.log(left + right))
    return ScaledReal(log_val, 1)


def check_recurrences(a: float, b: float, z: float) -> tuple[float, float]:
    """Relative residuals of the two contiguous recurrences used by the
    crossing-system elimination:

        z M(a+1,b+2,z) - (b+1) M(a+1,b+1,z) + (b+1) M(a,b+1,z) = 0
        a M(a+1,b+1,z) - b M(a,b,z) - (a-b) M(a,b+1,z) = 0

    Each residual is normalized by the largest participating term.
    """
    m_ab = ScaledReal(*kummer_m(a, b, z))
    m_ab1 = ScaledReal(*kummer_m(a, b + 1.0, z))
    m_a1b1 = ScaledReal(*kummer_m(a + 1.0, b + 1.0, z))
    m_a1b2 = ScaledReal(*kummer_m(a + 1.0, b + 2.0, z))
    r1 = signed_sum([
        m_a1b2.scaled_by(z),
        m_a1b1.scaled_by(-(b + 1.0)),
        m_ab1.scaled_by(b + 1.0),
    ])
    r2 = signed_sum([
        m_a1b1.scaled_by(a),
        m_ab.scaled_by(-b),
        m_ab1.scaled_by(-(a - b)),
    ])
    return r1, r2


def eta_prime(n: int, beta: float) -> float:
    """d eta / d beta = (lambda'(n, beta) - eta) / beta, as lambda = beta eta."""
    return (lambda_prime(n, beta, cross_check=False).dlambda
            - lowest_eigenvalue(n, beta).eta) / beta


def kummer_series_rational(a: Fraction, b: Fraction, z: Fraction,
                           terms: int) -> Fraction:
    """Exact partial sum of the ascending series in rational arithmetic."""
    total = Fraction(1)
    term = Fraction(1)
    for k in range(terms):
        term *= (a + k) * z
        term /= (b + k) * (k + 1)
        total += term
    return total


def bessel_j_derivative(n: int, x: float, terms: int = 60) -> float:
    """J_n'(x) from the ascending series of J_n, differentiated termwise."""
    total = 0.0
    for k in range(terms):
        exponent = n + 2 * k
        if exponent == 0:
            continue
        coeff = (-1.0) ** k / (math.factorial(k) * math.factorial(n + k))
        total += coeff * exponent * (0.5 * x) ** (exponent - 1) * 0.5
    return total


def bessel_jnp_first_zero_bisect(n: int) -> float:
    """First positive zero of J_n' by scan plus bisection on the series."""
    lo = max(n, 1e-6)
    step = 0.05
    f_lo = bessel_j_derivative(n, lo)
    hi = lo
    while True:
        hi = hi + step
        f_hi = bessel_j_derivative(n, hi)
        if f_lo * f_hi < 0.0:
            break
        lo, f_lo = hi, f_hi
        if hi > n + 20:
            raise AssertionError("no J_n' sign change found")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if bessel_j_derivative(n, mid) * f_lo > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def shooting_halfline_eigenvalue(xi: float, L: float = 15.0,
                                 steps: int = 8000) -> float:
    """Ground energy of -u'' + (t+xi)^2 u, u'(0) = 0, decay at infinity.

    RK4 integrates the ODE from Neumann initial data; for trial energies
    below the ground state the solution stays positive on [0, L], above
    it the solution crosses zero.  Bisection on that sign criterion.
    """
    h = L / steps

    def crosses_zero(lam: float) -> bool:
        u, du = 1.0, 0.0
        t = 0.0
        for _ in range(steps):
            k1u, k1d = du, ((t + xi) ** 2 - lam) * u
            t2 = t + 0.5 * h
            q2 = (t2 + xi) ** 2 - lam
            k2u, k2d = du + 0.5 * h * k1d, q2 * (u + 0.5 * h * k1u)
            k3u, k3d = du + 0.5 * h * k2d, q2 * (u + 0.5 * h * k2u)
            t3 = t + h
            k4u, k4d = du + h * k3d, ((t3 + xi) ** 2 - lam) * (u + h * k3u)
            u += (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
            du += (h / 6.0) * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
            t = t3
            if u <= 0.0:
                return True
            if u > 1e200:  # far below the eigenvalue; blowing up positive
                return False
        return False

    lo, hi = 0.0, 1.0 + xi * xi
    while not crosses_zero(hi):
        hi *= 2.0
    for _ in range(45):
        mid = 0.5 * (lo + hi)
        if crosses_zero(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def fd_degennes_eigen(xi: float, L: float, grid: Grid1D) -> tuple[float, np.ndarray]:
    """Smallest half-line eigenpair on one grid.

    The eigenvector lives on nodes 0, h, ..., L-h and is normalized in
    L2((0, L), dt).  Warns if the mode has not decayed at the truncation
    boundary (domain too short for the requested xi).
    """
    if grid.right != L:
        raise InvalidParams(f"grid right endpoint {grid.right} != L = {L}")
    lam, vec = solve_smallest(assemble_degennes_system(xi, grid), vectors=True)
    _warn_if_truncated(xi, vec)
    return lam, vec


def _warn_if_truncated(xi: float, vec: np.ndarray) -> None:
    if abs(vec[-1]) > 1e-8:
        warnings.warn(
            f"eigenfunction magnitude {abs(vec[-1]):.2e} at L - h; "
            f"increase L for xi = {xi}", TruncationWarning, stacklevel=3)


def boundary_pairing_check(constants: degennes.DeGennesConstants) -> tuple[float, float]:
    """(<u0, u0'>, -u0(0)^2/2) on degennes' own grid pair at xi0: equal by
    integration by parts."""
    lhs = degennes._combine(degennes._solve_pair(constants.xi0),
                            lambda s: s.inner(degennes._derivative(s.u0, s.h)))
    return lhs, -0.5 * constants.u0_trace ** 2


def fd_degennes_lambda(xi: float, L: float = degennes._L,
                       count: int = degennes._GRID_COUNT) -> float:
    """Richardson-combined half-line FD eigenvalue from grids
    (count, 2*count-1) by :func:`diskmag.fd.solve_pair`, warning as
    fd_degennes_eigen does; the defaults are the grid pair of
    :func:`diskmag.degennes.lambda_dg`."""
    pair = solve_pair(solve_smallest, partial(assemble_degennes_system, xi),
                      Grid1D(0.0, L, count), vectors=True)
    for *_, (_, vec) in pair:
        _warn_if_truncated(xi, vec)
    (*_, (coarse, _)), (*_, (fine, _)) = pair
    return richardson(fine, coarse)


def sturm_smallest_mp(d: np.ndarray, e: np.ndarray, lo: float, hi: float):
    """Smallest eigenvalue (mpf) of the symmetric tridiagonal T with the
    double diagonal d and off-diagonal e, taken exactly, to 2^-20 of
    fd's rounding allowance (about 2e-22 |T|_inf).

    Bisects (lo, hi] on the Sturm count, the number of negative pivots of
    the LDL^T of T - x I, in 30-digit arithmetic, whose midpoints resolve
    far below that tolerance (lambda0 <= |T|_inf); the counts must show
    no eigenvalue at or below lo and one at or below hi."""
    with mpmath.workdps(30):
        diag = [mpmath.mpf(float(v)) for v in d]
        off_sq = [mpmath.mpf(float(v)) ** 2 for v in e]
        tiny = mpmath.mpf(2) ** (-4 * mpmath.mp.prec)

        def count_below(x):
            pivot = diag[0] - x
            count = int(pivot <= 0)
            for d_i, e_sq in zip(diag[1:], off_sq):
                pivot = d_i - x - e_sq / (pivot if pivot != 0 else tiny)
                count += pivot <= 0
            return count

        lo, hi = mpmath.mpf(float(lo)), mpmath.mpf(float(hi))
        if count_below(lo) or not count_below(hi):
            raise AssertionError(f"({lo}, {hi}] does not bracket lambda0")
        tol = mpmath.mpf(_allowance(d, e)) / 2 ** 20
        while hi - lo > tol:
            mid = (lo + hi) / 2
            if count_below(mid):
                hi = mid
            else:
                lo = mid
        return (lo + hi) / 2


def kummer_m_2f2(a, b, z):
    """M(a, b, z) = 1 + a (z/b) 2F2(a+1, 1; b+1, 2; z) in mpmath.

    mpmath's hyp1f1(a, b, z) is wrong at tiny |a| and large z (its root
    of the Neumann condition equals the frozen-ratio seed at beta >= 500);
    this form carries the a-dependence as a factor."""
    return 1 + a * (z / b) * mpmath.hyp2f2(a + 1, 1, b + 1, 2, z)


@lru_cache(maxsize=None)
def nu_root_mp(n: int, beta: float, dps: int = 50):
    """nu* of the Neumann condition at beta > 2n to ``dps`` digits (mpf).

    Roots 1 - (x - n)(n+1) M(nu, n+1, x) / (2 x nu M(nu+1, n+2, x)), which
    rises with t = ln nu, by Anderson-Bjorck in t on a bracket around the
    root with both M frozen at nu = 0, checked by sign, and requires the
    residual at the root below 10^(10 - dps)."""
    with mpmath.workdps(dps):
        x = mpmath.mpf(beta) / 2

        def rho(t):
            nu = mpmath.exp(t)
            return 1 + (n + 1) * (n - x) * kummer_m_2f2(nu, n + 1, x) / (
                2 * x * nu * mpmath.hyp1f1(nu + 1, n + 2, x))

        t1 = mpmath.log((x - n) * (n + 1) / (2 * x * mpmath.hyp1f1(1, n + 2, x)))
        lo, hi = t1 - 1, t1 + 2
        if not rho(lo) < 0 < rho(hi):
            raise AssertionError(f"no sign change of the Neumann residual "
                                 f"around nu = {mpmath.exp(t1)} at {(n, beta)}")
        t = mpmath.findroot(rho, (lo, hi), solver="anderson", verify=False)
        if not abs(rho(t)) < mpmath.mpf(10) ** (10 - dps):
            raise AssertionError(f"nu root at {(n, beta)} not converged")
        return mpmath.exp(t)


def boundary_trace_quadrature(n: int, beta: float, nu: float,
                              cells: int = 200) -> float:
    """f(1) / ||f|| for f(r) = r^n e^{-beta r^2/4} M(nu, n+1, beta r^2/2).

    M takes the 2F2 form, 1 + nu (z/b) F with F = 2F2(nu+1, 1; b+1, 2; z)
    summed in float64 at every node as one positive-term series (z <= 700),
    and the norm integral ||f||^2 = int f^2 r dr is 12-point Gauss-Legendre
    on ``cells`` equal cells of [0, 1], in log space."""
    b = n + 1.0
    nodes, weights = leggauss(12)
    edges = np.linspace(0.0, 1.0, cells + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    rad = 0.5 * (edges[1:] - edges[:-1])[:, None]
    r = np.append((mid + rad * nodes).ravel(), 1.0)
    z = 0.5 * beta * r * r
    term, total = np.ones_like(z), np.ones_like(z)
    for k in range(int(z.max() + 20.0 * math.sqrt(z.max()) + 100.0)):
        term *= (nu + 1.0 + k) * z / ((b + 1.0 + k) * (k + 2.0))
        total += term
    log_m = np.log1p(nu * z / b * total)
    log_f = n * np.log(r) - 0.25 * beta * r * r + log_m
    log_sq = 2.0 * log_f[:-1] + np.log(r[:-1])
    top = log_sq.max()
    log_norm = top + math.log(float(np.sum((rad * weights).ravel()
                                           * np.exp(log_sq - top))))
    return math.exp(log_f[-1] - 0.5 * log_norm)


def fd_boundary_trace(n: int, beta: float, count: int = 4001) -> float:
    """r = 1 entry of the FD eigenvector, Richardson-combined over the grids
    (count, 2 count - 1) of one :func:`diskmag.fd.solve_pair`, normalized
    and sign-fixed by :func:`diskmag.fd.solve_smallest`."""
    (*_, (_, coarse)), (*_, (_, fine)) = solve_pair(
        solve_smallest, partial(assemble_disk_system, n, beta),
        Grid1D(0.0, 1.0, count), vectors=True)
    return float(richardson(fine[-1], coarse[-1]))


def fd_crossing(n: int) -> tuple[float, float]:
    """(beta_n, eta_n*) from the FD route alone: the Brent root of beta ->
    fd_disk_lambda(n, beta) - fd_disk_lambda(n+1, beta) on the bracket of
    crossing_by_curves, [2(n+1) + 1e-9, SJ(n, 0.99) + 10], which comes from
    the Saint-James relation, not from a Kummer solve; eta* is
    fd_disk_lambda(n, beta_n) / beta_n."""
    def gap(beta: float) -> float:
        return fd_disk_lambda(n, beta) - fd_disk_lambda(n + 1, beta)

    beta = brentq(gap, 2.0 * (n + 1.0) + 1e-9, saint_james_beta(n, 0.99) + 10.0,
                  xtol=1e-13, rtol=1e-15)
    return beta, fd_disk_lambda(n, beta) / beta


def fd_lambda_prime(n: int, beta: float, h: float) -> float:
    """d fd_disk_lambda(n, .) / d beta: central differences of steps h and
    2h, Richardson-combined, (4 D(h) - D(2h)) / 3, so the error is O(h^4)
    plus 1.5 delta / h from an absolute noise delta in the FD values."""
    def central(step: float) -> float:
        return (fd_disk_lambda(n, beta + step)
                - fd_disk_lambda(n, beta - step)) / (2.0 * step)

    return (4.0 * central(h) - central(2.0 * h)) / 3.0


def ground_state_by_solves(beta: float):
    """(lowest_eigenvalue(k, beta), k) at the mode k that minimizes
    lambda(., beta), by a downhill walk that solves each neighbour and
    compares the two eigenvalues, with the tie margin of ground_state."""

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
