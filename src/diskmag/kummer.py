"""Confluent hypergeometric function M(a, b, z) in overflow-safe arithmetic.

Values of M leave this module as (ln|M|, sign) pairs, since M(nu, n+1,
beta/2) reaches ~e^422 at the largest crossing points, and ratios of M
as ordinary floats.

:func:`kummer_m` sums the ascending series, whose terms are positive for
a >= 0, rescaled by powers of two so e^422 never overflows; for a < 0 it
recurs down in a from a + ceil(-a) (DLMF 13.3.1; Gil, Segura & Temme,
*Numerical Methods for Special Functions*, ch. 4) instead of summing the
alternating series.  The test suite checks it against an independent
quadrature of the integral representation.

:func:`kummer_m_many` is the many-z kernel: for a >= 0 it sums the
series at every z of an array as one numpy cumulative product per row,
falling back to :func:`kummer_m` for any row that does not settle; the
numpy path of the scalar series (100 < z <= 600) is its one-row call.
Eigenfunction normalization takes all its Gauss nodes from one call.

:func:`kummer_ratio_shift_b` returns M(a+1, b+1, z) / M(a, b, z) as an
ordinary float; eigenvalue residuals are built from this ratio so they
stay O(1) regardless of the raw Kummer magnitudes.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import InvalidParams, NonConvergence

# the numpy path sums raw floats, safe while the sum stays below
# exp(_RAW_LOG_CAP); the scalar loop rescales past _RESCALE_AT
_RAW_LOG_CAP = 600.0
_RESCALE_AT = 1e280
_NUMPY_MIN_Z = 100.0
_LN2 = math.log(2.0)
_EPS = sys.float_info.epsilon
_MAX_REL_ERR = 1e-12  # largest error bound of a recurrence result returned
_SERIES_REL_TOL = 1e-16  # a series stops once three terms fall below this share
_SHIFT_ROWS = np.array([[1.0], [0.0]])  # rows (a+1, b+1) and (a, b) of the ratio


def _check_args(a: float, b: float, z: float) -> None:
    """Domain checks of M(a, b, z)."""
    if b <= 0:
        raise InvalidParams(f"b={b} must be positive")
    if z < 0:
        raise InvalidParams(f"z={z} must be >= 0")


def _series_budget(z: float) -> int:
    """Term budget of the scalar series at z."""
    return int(20.0 * (z + 50.0))


def _numpy_count(z: float) -> int:
    """Terms of the numpy series at z: past the peak at k ~ z and its tail."""
    return int(z + 14.0 * math.sqrt(z + 1.0) + 80.0)


def _series_rows(a, b, z, count: int, head: float | None = None):
    """1 + the first ``count`` terms of the positive-term series, as one
    numpy cumulative product per row: (total, settled).  Rows differ in z
    (an (N, 1) column) or in a and b ((N, 1) columns); scalars give one
    row.  A row is settled when its total is finite and its last three
    terms are within _SERIES_REL_TOL of it."""
    k = np.arange(count, dtype=float)
    terms = (a + k) * z  # one (N, count) buffer: divided and multiplied in place
    terms /= (b + k) * (k + 1.0)
    if head is not None:
        terms[..., :1] = head * z / b
    np.cumprod(terms, axis=-1, out=terms)
    total = 1.0 + terms.sum(axis=-1)
    return total, ((total < math.inf)
                   & (terms[..., -3:].max(axis=-1) <= _SERIES_REL_TOL * total))


def _series(a: float, b: float, z: float,
            head: float | None = None) -> tuple[float, int]:
    """Sum the positive-term ascending series; returns (mantissa, e).

    The value is mantissa * 2**e.  ``head`` replaces the factor a of the
    first term: with a in [-1, 0) and head = 1 every term stays positive
    and the sum is 1 + S, S = (M(a, b, z) - 1)/a.  For 100 < z <= 600 the
    one-row numpy product of z + 14 sqrt(z+1) + 80 terms, fewer than the
    scalar loop's budget, is tried first.
    Truncation requires three consecutive terms below the relative
    tolerance *and* the index to be past the term-growth peak at k ~ z,
    so a small early term cannot stop the sum prematurely.
    """
    assert a >= 0.0 or (head is not None and a >= -1.0), \
        "the ascending series is summed only over positive terms"
    if _NUMPY_MIN_Z < z <= _RAW_LOG_CAP:
        total, settled = _series_rows(a, b, z, _numpy_count(z), head)
        if settled:  # past the peak: _numpy_count(z) > z
            return float(total), 0
    budget = _series_budget(z)
    term = total = 1.0
    exp2 = small = start = 0
    if head is not None:
        term, start = head * z / b, 1
        total += term
    for k in range(start, budget):
        term *= (a + k) * z / ((b + k) * (k + 1.0))
        total += term
        small = small + 1 if term <= _SERIES_REL_TOL * total else 0
        if small >= 3 and k + 1 >= z:
            return total, exp2
        if total > _RESCALE_AT:
            total, e = math.frexp(total)
            term = math.ldexp(term, -e)
            exp2 += e
    raise NonConvergence(
        f"Kummer series for (a={a}, b={b}, z={z}) not converged in {budget} terms")


def _descend(a: float, b: float, z: float) -> tuple[float, float, float]:
    """(p(a), ln M(a+1, b, z), relative error bound of p(a)) for a < 0 < z,
    where p(a) = M(a+1, b, z)/M(a, b, z) - 1.

    p(a0) = (z/b) M(a0+1, b+1, z)/M(a0, b, z) at a0 = a + ceil(-a) (DLMF
    13.3.4) is a quotient of positive-term sums; DLMF 13.3.1 written for p
    (so small z/b costs no digits) carries it down: p(a'-1) = (z - a' p(a'))
    / (b - a' - z + a' p(a')).  At a' = b that step is 0/0, which a0 in
    [0, 1) can meet only for b <= 1; there the chain starts one step lower,
    at a0 - 1 in [-1, 0), where M(a0 - 1, b, z) = 1 + (a0 - 1) S with S a
    positive-term sum, and the cancellation of that sum seeds the bound.
    A p <= -1 above a (a zero of M crossed), a zero denominator or an
    overflow raises NonConvergence; near a zero of M the denominator
    cancels and the bound grows by that factor.
    """
    steps = math.ceil(-a)
    err = 4.0 * math.sqrt(z + 1.0)  # p(a0) observed within 3 sqrt(z+1) eps
    try:
        if b > 1.0:
            ap = a + steps
            m0, e0 = _series(ap, b, z)
            m1, e1 = _series(ap + 1.0, b + 1.0, z)
            p = math.ldexp(m1 / m0, e1 - e0) * z / b
            log_next = math.log(m0) + e0 * _LN2 + math.log1p(p)
        else:
            steps -= 1
            ap = a + steps
            t, e_t = _series(ap, b, z, head=1.0)  # 1 + S
            m0, e0 = _series(ap + 1.0, b, z)
            m1, e1 = _series(ap + 1.0, b + 1.0, z)
            lead = math.ldexp(1.0 - ap, -e_t)
            m_ap = lead + ap * t  # M(ap, b, z) / 2**e_t
            p = math.ldexp(m1 / m_ap, e1 - e_t) * z / b
            log_next = math.log(m0) + e0 * _LN2
            err *= 1.0 + (lead - ap * t) / abs(m_ap)
        prod = 1.0
        b_z, size = b - z, b + z + 2.0
        for _ in range(steps):
            prod *= 1.0 + p  # M(a0+1) / M(ap)
            if not 1e-280 < prod < _RESCALE_AT:
                if not prod > 0.0:
                    raise NonConvergence(f"Kummer recurrence for (a={a}, b={b}, "
                                         f"z={z}) crosses a zero of M")
                log_next -= math.log(prod)
                prod = 1.0
            u = ap * p
            num = z - u
            p = num / (b_z - ap + u)
            # relative errors of num and of the denominator, |den| = |num / p|
            w = abs(u) * (err + 1.0)
            err = (w + z + abs(p) * (w + size - ap)) / abs(num) + 1.0
            ap -= 1.0
    except (ZeroDivisionError, OverflowError):
        raise NonConvergence(
            f"Kummer recurrence for (a={a}, b={b}, z={z}) breaks down") from None
    return p, log_next - math.log(prod), err * _EPS


def kummer_m(a: float, b: float, z: float) -> tuple[float, int]:
    """(ln|M(a, b, z)|, sign of M(a, b, z)): the series for a >= 0, else
    the recurrence, M(a) = M(a+1) / (1 + p(a)), which may cross a zero of
    M only in its last step."""
    _check_args(a, b, z)
    if z == 0.0:
        return 0.0, 1
    if a >= 0.0:
        total, exp2 = _series(a, b, z)
        return math.log(total) + exp2 * _LN2, 1
    p, log_next, err = _descend(a, b, z)
    q = 1.0 + p
    if not abs(p) * err <= _MAX_REL_ERR * abs(q) < math.inf:
        raise NonConvergence(f"M({a}, {b}, {z}): recurrence error bound {err:.1e}")
    return log_next - math.log(abs(q)), 1 if q > 0.0 else -1


def kummer_m_many(a: float, b: float, z) -> tuple[np.ndarray, np.ndarray]:
    """(ln|M(a, b, z_i)|, sign of M(a, b, z_i)) at every z_i of a 1-D array.

    For a >= 0 one numpy product sums the series at every z_i <= 600 at
    once, with the term count of the largest of them; each row keeps the
    scalar path's test (a finite total, its last three terms within
    _SERIES_REL_TOL of it, and count > z_i).  A row that fails it, and every
    row for a < 0, comes from :func:`kummer_m`.
    """
    z = np.asarray(z, dtype=float)
    log_m, sign = np.full_like(z, math.nan), np.ones_like(z)
    if z.size:
        _check_args(a, b, float(z.min()))
    rows = np.flatnonzero(z <= _RAW_LOG_CAP) if a >= 0.0 else []
    if len(rows):
        z_rows = z[rows]
        total, settled = _series_rows(a, b, z_rows[:, None],
                                      _numpy_count(float(z_rows.max())))
        log_m[rows[settled]] = np.log(total[settled])
    for i in np.flatnonzero(np.isnan(log_m)):
        log_m[i], sign[i] = kummer_m(a, b, float(z[i]))
    return log_m, sign


def kummer_ratio_shift_b(a: float, b: float, z: float) -> float:
    """M(a+1, b+1, z) / M(a, b, z): for a >= 0 a quotient of positive-term
    sums, exact in the power-of-two exponent (at 100 < z <= 600 both from
    one two-row numpy product, unless a row does not settle); for a < 0
    (b/z) p(a) by DLMF 13.3.4, refused unless M(a, b, z) > 0 and p(a) is
    within _MAX_REL_ERR."""
    _check_args(a, b, z)
    if z == 0.0:
        return 1.0
    if a >= 0.0:
        if _NUMPY_MIN_Z < z <= _RAW_LOG_CAP:  # both series in one product
            total, settled = _series_rows(_SHIFT_ROWS + a, _SHIFT_ROWS + b, z,
                                          _numpy_count(z))
            if settled.all():
                return float(total[0] / total[1])
        num, e_num = _series(a + 1.0, b + 1.0, z)
        den, e_den = _series(a, b, z)
        try:
            return math.ldexp(num / den, e_num - e_den)
        except OverflowError:
            raise NonConvergence(f"ratio at ({a}, {b}, {z}) overflows") from None
    p, _, err = _descend(a, b, z)
    if not (-1.0 < p < math.inf and err <= _MAX_REL_ERR):
        raise NonConvergence(f"ratio at ({a}, {b}, {z}): M <= 0 or error {err:.1e}")
    return (b / z) * p
