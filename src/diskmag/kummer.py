"""Confluent hypergeometric function M(a, b, z) in overflow-safe arithmetic.

Values of M leave this module as (ln|M|, sign) pairs, since M(nu, n+1,
beta/2) reaches ~e^422 at the largest crossing points, and ratios of M
as ordinary floats.

:func:`kummer_m` sums the ascending series, whose terms are positive for
a >= 0, rescaled by powers of two so e^422 never overflows; for a < 0 it
recurs down in a from a + ceil(-a) (DLMF 13.3.1; Gil, Segura & Temme,
*Numerical Methods for Special Functions*, ch. 4) instead of summing the
alternating series.  The domain is b > 0, z >= 0, and b > 1 where
a < 0 (the solvers' b = n + 1 with a < 0 only at beta <= 2n, n >= 1);
outside it every entry point raises InvalidParams.  The test suite checks
it against an independent quadrature of the integral representation.

Every positive-term sum is sized by the peak of its terms: past the
larger root k2 of k^2 + (b+1-z) k + (b - a z) the term ratio stays below
1 (:func:`_peak`).  The scalar loop stops after three small terms past
k2; a numpy product takes k2 terms and a tail past them
(:func:`_numpy_count`).  The terms peak near k ~ max(0, z - b), not at
k ~ z, so at the crossings' b = n + 1 ~ z = beta/2 the sums are short.

:func:`kummer_m_many` is the many-z kernel: for a >= 0 it sums the
series at every z of an array as numpy cumulative products, one per
band of rows with the same rounded-up count, falling back to
:func:`kummer_m` for any row that does not settle.  Eigenfunction
normalization takes all its Gauss nodes from one call.  A single series
at z <= 600 is one such row wherever its count makes numpy cheaper than
the scalar loop (:data:`_NUMPY_MIN_COUNT`).

:func:`kummer_ratio_shift_b` returns M(a+1, b+1, z) / M(a, b, z) as an
ordinary float; eigenvalue residuals are built from this ratio so they
stay O(1) regardless of the raw Kummer magnitudes.  For a >= 0 it sums
one series: with s_k the terms of M(a+1, b+1, z), M(a, b, z) = 1 +
(a z / b) sum s_k / (k+1).
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
# from this _numpy_count on, a one-row numpy series beats the scalar loop
# in place: over the 378 points of the benchmark's `curves` workload,
# numpy won in 25 of 41 points whose series count 52-55, in all from 56
_NUMPY_MIN_COUNT = 56
# k, k+1 and k+2 of a one-row series are its slices; the longest settled
# row found at z <= 600 has ~870 terms (longer ones overflow a raw sum)
_K = np.arange(1026.0)
_LN2 = math.log(2.0)
_EPS = sys.float_info.epsilon
_MAX_REL_ERR = 1e-12  # largest error bound of a recurrence result returned
_SERIES_REL_TOL = 1e-16  # a series stops once three terms fall below this share
_TAIL_FALL = 50.0  # e-folds the terms fall past their peak in a numpy count
_BAND = 32  # kummer_m_many sums rows whose term counts round up alike together


def _check_args(a: float, b: float, z: float) -> None:
    """Domain checks of M(a, b, z): a, b and z finite, b > 0, z >= 0, and
    b > 1 for a < 0.  Chained comparisons, false for NaN, keep it cheap."""
    if not 0.0 < b < math.inf:
        raise InvalidParams(f"b={b} must be finite and positive")
    if not 0.0 <= z < math.inf:
        raise InvalidParams(f"z={z} must be finite and >= 0")
    if not -math.inf < a < math.inf:
        raise InvalidParams(f"a={a} must be finite")
    if a < 0.0 and b <= 1.0:
        raise InvalidParams(f"a={a} < 0 needs b > 1, not b={b}")


def _series_budget(z: float) -> int:
    """Term budget of the scalar series at z."""
    return int(20.0 * (z + 50.0))


def _pos(x):
    """max(x, 0) for floats and arrays alike."""
    return 0.5 * (x + abs(x))


def _peak(a, b, z):
    """The larger root k2 of k^2 + (b+1-z) k + (b - a z), clipped at 0, for
    floats and arrays alike.  Past k2 the term ratio (a+k) z / ((b+k)(k+1))
    stays below 1, so the terms fall from there on; where the roots are
    complex every ratio is below 1 and the vertex, clipped at 0, stands
    in.  k2 < z whenever a < b + 1.  With h = (z - b - 1)/2 and root =
    sqrt(h^2 - b + a z), k2 = h + root cancels where h < 0, so there it is
    taken rationalized, as (a z - b)+ / (root - h)."""
    h = 0.5 * (z - b - 1.0)
    if isinstance(h, np.ndarray):
        root = np.sqrt(_pos(h * h - b + a * z))
        return np.divide(_pos(a * z - b), root - h, out=h + root, where=h < 0.0)
    root = math.sqrt(_pos(h * h - b + a * z))  # np.sqrt's; x ** 0.5 may be 1 ulp off
    return h + root if h >= 0.0 else _pos(a * z - b) / (root - h)


def _numpy_count(a, b, z):
    """Terms of the numpy series at z (floats or arrays): the peak k2, the
    j at which a model of the terms past it has them fall by
    e^-_TAIL_FALL, and 20 more.  The model takes ln r_(k2+j) = -q - j/s
    with s = b + k2 + 1 and q = max(0, 1 - z/s) <= ln(s/z), so the fall
    over j terms is q j + j^2 / (2s); each row's settled test checks it."""
    return _count_from_peak(_peak(a, b, z), b, z)


def _count_from_peak(k2, b, z):
    """:func:`_numpy_count` from the peak k2 of the row's terms."""
    s = b + k2 + 1.0
    q = _pos(1.0 - z / s)
    v = q * q + 2.0 * _TAIL_FALL / s
    root = np.sqrt(v) if isinstance(v, np.ndarray) else math.sqrt(v)
    return k2 + 2.0 * _TAIL_FALL / (q + root) + 20.0


def _terms(a, b, z, count: int) -> np.ndarray:
    """Terms 1 .. ``count`` of the positive-term series, the cumulative
    products of the ratios (a+k) z / ((b+k)(k+1)), k = 0 .. count - 1, in
    one new buffer: one row for a float z, one per row of an (N, 1) z."""
    k = _K[:count]
    terms = (a + k) * z
    terms /= (b + k) * _K[1:count + 1]
    np.multiply.accumulate(terms, axis=-1, out=terms)  # np.cumprod, less overhead
    return terms


def _series(a: float, b: float, z: float) -> tuple[float, float, int]:
    """Sum the ascending series sum_k s_k of M(a, b, z), whose terms are
    positive for a >= 0; returns (S, W, e) with sum_k s_k = S * 2**e and
    sum_k s_k / (k+1) = W * 2**e.

    At z <= 600 a series of at least _NUMPY_MIN_COUNT terms (by
    :func:`_numpy_count`) is first tried as one numpy row (:func:`_terms`),
    settled where its total is finite and its last three terms are within
    _SERIES_REL_TOL of it; the scalar loop takes shorter
    series, z > 600 (it rescales) and rows that do not settle.  Truncation
    requires three consecutive terms below the relative tolerance *and*
    the index to be past the peak k2 (:func:`_peak`), so a small early
    term cannot stop the sum before the terms rise again.
    """
    assert a >= 0.0, "the ascending series is summed only over positive terms"
    peak = _peak(a, b, z)
    if z <= _RAW_LOG_CAP:
        count = _count_from_peak(peak, b, z)
        if _NUMPY_MIN_COUNT <= count <= _K.size - 2:  # false for inf and NaN
            count = int(count)
            terms = _terms(a, b, z, count)
            total = 1.0 + float(np.add.reduce(terms))
            last = max(terms[-3:].tolist())
            if total < math.inf and last <= _SERIES_REL_TOL * total:
                terms /= _K[2:count + 2]
                return total, 1.0 + float(np.add.reduce(terms)), 0
    budget = _series_budget(z)
    term = total = weighted = 1.0
    exp2 = small = 0
    for k in range(budget):
        term *= (a + k) * z / ((b + k) * (k + 1.0))
        total += term
        weighted += term / (k + 2.0)
        small = small + 1 if term <= _SERIES_REL_TOL * total else 0
        if small >= 3 and k + 1 >= peak:
            return total, weighted, exp2
        if total > _RESCALE_AT:
            total, e = math.frexp(total)
            term = math.ldexp(term, -e)
            weighted = math.ldexp(weighted, -e)
            exp2 += e
    raise NonConvergence(
        f"Kummer series for (a={a}, b={b}, z={z}) not converged in {budget} terms")


def _shift_ratio(a: float, b: float, z: float) -> tuple[float, float]:
    """(M(a+1, b+1, z) / M(a, b, z), ln M(a, b, z)) for a >= 0 from the one
    series M(a+1, b+1, z) = sum s_k, since M(a, b, z) = 1 + (a z / b) sum
    s_k / (k+1): both sums share the power-of-two exponent, so the ratio
    is exact in it.  NonConvergence if the ratio leaves the float range."""
    num, weighted, exp2 = _series(a + 1.0, b + 1.0, z)
    den = math.ldexp(1.0, -exp2) + a * z / b * weighted
    ratio = num / den if den > 0.0 else math.inf
    if not ratio < math.inf:
        raise NonConvergence(f"ratio at ({a}, {b}, {z}) overflows")
    return ratio, math.log(den) + exp2 * _LN2


def _descend(a: float, b: float, z: float) -> tuple[float, float, float]:
    """(p(a), ln M(a+1, b, z), relative error bound of p(a)) for a < 0 < z,
    where p(a) = M(a+1, b, z)/M(a, b, z) - 1.

    p(a0) = (z/b) M(a0+1, b+1, z)/M(a0, b, z) at a0 = a + ceil(-a) (DLMF
    13.3.4) comes from one positive-term series (:func:`_shift_ratio`);
    DLMF 13.3.1 written for p (so small z/b costs no digits) carries it
    down: p(a'-1) = (z - a' p(a')) / (b - a' - z + a' p(a')).  Its domain
    is b > 1, where the 0/0 step at a' = b cannot occur, since a' <= a0 <=
    1 (a0 rounds to 1 for tiny |a|).
    A p <= -1 above a (a zero of M crossed), a zero denominator or an
    overflow raises NonConvergence; near a zero of M the denominator
    cancels and the bound grows by that factor.
    """
    steps = math.ceil(-a)
    err = 4.0 * math.sqrt(z + 1.0)  # p(a0) observed within sqrt(z+1) eps
    try:
        ap = a + steps
        ratio, log_m = _shift_ratio(ap, b, z)
        p = ratio * z / b
        log_next = log_m + math.log1p(p)
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
    (b > 1) the recurrence, M(a) = M(a+1) / (1 + p(a)), which may cross a
    zero of M only in its last step."""
    _check_args(a, b, z)
    if z == 0.0 or a == 0.0:  # M(a, b, 0) = M(0, b, z) = 1
        return 0.0, 1
    if a >= 0.0:
        total, _, exp2 = _series(a, b, z)
        return math.log(total) + exp2 * _LN2, 1
    p, log_next, err = _descend(a, b, z)
    q = 1.0 + p
    if not abs(p) * err <= _MAX_REL_ERR * abs(q) < math.inf:
        raise NonConvergence(f"M({a}, {b}, {z}): recurrence error bound {err:.1e}")
    return log_next - math.log(abs(q)), 1 if q > 0.0 else -1


def kummer_m_many(a: float, b: float, z) -> tuple[np.ndarray, np.ndarray]:
    """(ln|M(a, b, z_i)|, sign of M(a, b, z_i)) at every z_i of a 1-D array.

    For a >= 0 the z_i <= 600 are summed by numpy products in bands: rows
    whose _numpy_count, each from its own z_i, rounds up to the same
    multiple of _BAND share one product of that many terms.  Each row
    keeps the scalar path's test (a finite total and its last three terms
    within _SERIES_REL_TOL of it; the count is past the row's peak).  A
    row that fails it, a row whose count is past the one-row series'
    window (_K.size - 2 terms), and every row for a < 0, come from
    :func:`kummer_m`.  At a = 0 every row is ln M = 0 with sign +1.
    """
    z = np.asarray(z, dtype=float)
    log_m, sign = np.full_like(z, math.nan), np.ones_like(z)
    if z.size:  # the min is NaN if any z_i is, the max inf if any z_i is
        _check_args(a, b, float(z.min()))
        _check_args(a, b, float(z.max()))
    if a == 0.0:  # M(0, b, z) = 1
        return np.zeros_like(z), sign
    rows = np.flatnonzero(z <= _RAW_LOG_CAP) if a >= 0.0 else []
    if len(rows):
        with np.errstate(over="ignore", invalid="ignore"):  # a z may overflow
            counts = _numpy_count(a, b, z[rows])
        fits = counts <= _K.size - 2  # _series' window; false for inf and NaN
        rows, counts = rows[fits], counts[fits]
        bands = np.ceil(counts / _BAND).astype(int) * _BAND
        for count in np.unique(bands):
            band = rows[bands == count]
            terms = _terms(a, b, z[band, None], int(count))
            total = 1.0 + terms.sum(axis=-1)
            settled = (total < math.inf) & (terms[:, -3:].max(axis=-1)
                                             <= _SERIES_REL_TOL * total)
            log_m[band[settled]] = np.log(total[settled])
    for i in np.flatnonzero(np.isnan(log_m)):
        log_m[i], sign[i] = kummer_m(a, b, float(z[i]))
    return log_m, sign


def kummer_ratio_shift_b(a: float, b: float, z: float) -> float:
    """M(a+1, b+1, z) / M(a, b, z): for a >= 0 from the one positive-term
    series of M(a+1, b+1, z) (:func:`_shift_ratio`); for a < 0 (b/z) p(a)
    by DLMF 13.3.4, refused unless M(a, b, z) > 0 and p(a) is within
    _MAX_REL_ERR."""
    _check_args(a, b, z)
    if z == 0.0:
        return 1.0
    if a >= 0.0:
        return _shift_ratio(a, b, z)[0]
    p, _, err = _descend(a, b, z)
    if not (-1.0 < p < math.inf and err <= _MAX_REL_ERR):
        raise NonConvergence(f"ratio at ({a}, {b}, {z}): M <= 0 or error {err:.1e}")
    return (b / z) * p
