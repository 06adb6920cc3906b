"""Confluent hypergeometric function M(a, b, z) in overflow-safe arithmetic.

Two independent evaluation routes are provided for cross-validation:

* :func:`kummer_m` sums the ascending series term by term with running
  rescaling, so magnitudes like e^422 never overflow;
* :func:`kummer_m_integral` evaluates the Euler-type integral
  representation (valid for 0 < a < b) by adaptive quadrature after an
  explicit substitution that removes the endpoint singularities.

:func:`kummer_ratio_shift_b` returns M(a+1, b+1, z) / M(a, b, z) as an
ordinary float; eigenvalue residuals are built from this ratio so they
stay O(1) regardless of the raw Kummer magnitudes.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from .config import DEFAULT_CONFIG, SolverConfig
from .errors import InvalidParams, NonConvergence, QuadratureFailure
from .scaled import ScaledReal, signed_sum

# raw-float series are safe while partial sums stay below exp(_RAW_LOG_CAP);
# beyond that the scalar loop rescales
_RAW_LOG_CAP = 600.0
_RESCALE_AT = 1e280
_NUMPY_MIN_Z = 100.0


def _check_args(a: float, b: float, z: float) -> None:
    """Domain checks of M(a, b, z)."""
    if b <= 0 and b == int(b):
        raise InvalidParams(f"b={b} is a non-positive integer (pole of M)")
    if z < 0:
        raise InvalidParams(f"z={z} must be >= 0")


def _series_scalar(a: float, b: float, z: float, rel_tol: float,
                   budget: int) -> tuple[float, float]:
    """Sum the ascending series; returns (mantissa, log_scale).

    The value is mantissa * exp(log_scale).  Truncation requires three
    consecutive terms below the relative tolerance *and* the index to be
    past the term-growth peak at k ~ z, so a small early term cannot
    stop the sum prematurely.
    """
    term = 1.0
    total = 1.0
    log_scale = 0.0
    small = 0
    k = 0
    while k < budget:
        term *= (a + k) * z / ((b + k) * (k + 1.0))
        total += term
        k += 1
        if abs(term) <= rel_tol * abs(total):
            small += 1
            if small >= 3 and k >= z:
                return total, log_scale
        else:
            small = 0
        if abs(total) > _RESCALE_AT:
            scale = abs(total)
            log_scale += math.log(scale)
            term /= scale
            total /= scale
    raise NonConvergence(
        f"Kummer series for (a={a}, b={b}, z={z}) not converged in {budget} terms")


def _series_numpy(a: float, b: float, z: float, rel_tol: float,
                  budget: int) -> tuple[float, float] | None:
    """Vectorized series sum for moderate z; None if the scalar path must run."""
    count = min(budget, int(z + 14.0 * math.sqrt(z + 1.0) + 80.0))
    while True:
        k = np.arange(count, dtype=float)
        terms = np.cumprod((a + k) * z / ((b + k) * (k + 1.0)))
        if not np.isfinite(terms[-1]):
            return None
        total = 1.0 + float(terms.sum())
        tail_ok = np.all(np.abs(terms[-3:]) <= rel_tol * abs(total))
        if tail_ok and count >= z:
            return total, 0.0
        if count >= budget:
            raise NonConvergence(
                f"Kummer series for (a={a}, b={b}, z={z}) not converged "
                f"in {budget} terms")
        count = min(budget, 2 * count)


def kummer_m(a: float, b: float, z: float,
             config: SolverConfig = DEFAULT_CONFIG) -> ScaledReal:
    """M(a, b, z) as a ScaledReal, by direct series summation."""
    _check_args(a, b, z)
    budget = config.series_budget(z)
    result = None
    if a > 0 and _NUMPY_MIN_Z < z <= _RAW_LOG_CAP:
        result = _series_numpy(a, b, z, config.series_rel_tol, budget)
    if result is None:
        result = _series_scalar(a, b, z, config.series_rel_tol, budget)
    total, log_scale = result
    if total == 0.0:
        return ScaledReal.zero()
    return ScaledReal(math.log(abs(total)) + log_scale, 1 if total > 0 else -1)


def kummer_ratio_shift_b(a: float, b: float, z: float,
                         config: SolverConfig = DEFAULT_CONFIG) -> float:
    """M(a+1, b+1, z) / M(a, b, z) via simultaneous scaled summation.

    Both series share one running rescaling factor, so the ratio is exact
    in the exponent.  For a > 0 the result is finite and positive.
    """
    _check_args(a, b, z)
    budget = config.series_budget(z)
    rel_tol = config.series_rel_tol
    if a > 0 and _NUMPY_MIN_Z < z <= _RAW_LOG_CAP:
        num = _series_numpy(a + 1.0, b + 1.0, z, rel_tol, budget)
        den = _series_numpy(a, b, z, rel_tol, budget)
        if num is not None and den is not None:
            return num[0] / den[0]
    t_den = t_num = 1.0
    s_den = s_num = 1.0
    small = 0
    k = 0
    while k < budget:
        t_den *= (a + k) * z / ((b + k) * (k + 1.0))
        t_num *= (a + 1.0 + k) * z / ((b + 1.0 + k) * (k + 1.0))
        s_den += t_den
        s_num += t_num
        k += 1
        if (abs(t_den) <= rel_tol * abs(s_den)
                and abs(t_num) <= rel_tol * abs(s_num)):
            small += 1
            if small >= 3 and k >= z:
                return s_num / s_den
        else:
            small = 0
        peak = max(abs(s_den), abs(s_num))
        if peak > _RESCALE_AT:
            t_den /= peak
            t_num /= peak
            s_den /= peak
            s_num /= peak
    raise NonConvergence(
        f"Kummer ratio for (a={a}, b={b}, z={z}) not converged in {budget} terms")


def _quad_piece(f, lo: float, hi: float, rel_tol: float) -> float:
    out = quad(f, lo, hi, epsabs=0.0, epsrel=rel_tol, limit=300, full_output=1)
    if len(out) > 3:
        raise QuadratureFailure(f"adaptive quadrature failed: {out[3]}")
    value, abserr = out[0], out[1]
    if abserr > 100.0 * rel_tol * abs(value) + 1e-300:
        raise QuadratureFailure(
            f"quadrature error estimate {abserr:.2e} too large for value {value:.6e}")
    return value


def kummer_m_integral(a: float, b: float, z: float,
                      config: SolverConfig = DEFAULT_CONFIG) -> ScaledReal:
    """M(a, b, z) via the integral representation, for 0 < a < b.

    The e^z factor is pulled out analytically, leaving
    J = int_0^1 e^{-z s} s^{b-a-1} (1-s)^{a-1} ds, which is split at 1/2
    and mapped by s = u^{1/(b-a)} (resp. 1-s = v^{1/a}) wherever the
    endpoint exponent is below 1, so the quadrature only ever sees a
    smooth integrand.  Serves as the independent oracle for the series.
    """
    if not (0.0 < a < b):
        raise InvalidParams(f"integral representation needs 0 < a < b, got ({a}, {b})")
    _check_args(a, b, z)
    p = b - a
    q = a
    rel_tol = config.quad_rel_tol

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


def check_recurrences(a: float, b: float, z: float,
                      config: SolverConfig = DEFAULT_CONFIG) -> tuple[float, float]:
    """Relative residuals of the two contiguous recurrences used by the
    crossing-system elimination:

        z M(a+1,b+2,z) - (b+1) M(a+1,b+1,z) + (b+1) M(a,b+1,z) = 0
        a M(a+1,b+1,z) - b M(a,b,z) - (a-b) M(a,b+1,z) = 0

    Each residual is normalized by the largest participating term.
    """
    _check_args(a, b, z)
    m_ab = kummer_m(a, b, z, config)
    m_ab1 = kummer_m(a, b + 1.0, z, config)
    m_a1b1 = kummer_m(a + 1.0, b + 1.0, z, config)
    m_a1b2 = kummer_m(a + 1.0, b + 2.0, z, config)
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
