import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import diskmag.kummer as kummer_mod
from diskmag.errors import InvalidParams, NonConvergence
from diskmag.kummer import kummer_m, kummer_m_many, kummer_ratio_shift_b
from diskmag.spectrum import boundary_residual

from oracles import (ScaledReal, check_recurrences, kummer_m_2f2,
                     kummer_m_integral, kummer_series_rational)
from refdata import CROSSINGS


def rel_gap(a, b):
    return abs(a - b) / max(abs(a), abs(b))


def mp_ratio(a, b, z, digits):
    """M(a+1, b+1, z) / M(a, b, z) in mpmath at the given precision."""
    with mpmath.workdps(digits):
        return mpmath.hyp1f1(a + 1, b + 1, z) / mpmath.hyp1f1(a, b, z)


def close_or_refused(compute, exact, tol):
    """compute() is within tol of exact (relative), or raises NonConvergence;
    InvalidParams propagates, so an argument outside the domain fails."""
    try:
        value = compute()
    except NonConvergence:
        return True
    return abs(value - exact) <= tol * abs(exact)


def two_row_ratio(a, b, z):
    """M(a+1, b+1, z) / M(a, b, z) as the former numpy path summed it: one
    two-row cumulative product of z + 14 sqrt(z+1) + 80 terms per series."""
    count = int(z + 14.0 * math.sqrt(z + 1.0) + 80.0)
    k = np.arange(count, dtype=float)
    shift = np.array([[1.0], [0.0]])
    terms = np.cumprod((shift + a + k) * z / ((shift + b + k) * (k + 1.0)), axis=-1)
    total = 1.0 + terms.sum(axis=-1)
    return float(total[0] / total[1])


def mp_m(a, b, z, digits=50):
    """M(a, b, z) in mpmath at the given precision."""
    with mpmath.workdps(digits):
        return mpmath.hyp1f1(a, b, z)


class TestSeries:
    def test_value_at_zero_is_exactly_one(self):
        assert ScaledReal(*kummer_m(0.3, 2.0, 0.0)).value() == 1.0

    def test_against_integral_representation(self):
        series = ScaledReal(*kummer_m(0.25, 1.0, 1.0))
        integral = kummer_m_integral(0.25, 1.0, 1.0)
        assert abs(series.log_mag - integral.log_mag) < 1e-13

    def test_against_exact_rational_summation(self):
        oracle = float(kummer_series_rational(
            Fraction(1, 2), Fraction(2), Fraction(10), terms=200))
        assert ScaledReal(*kummer_m(0.5, 2.0, 10.0)).value() == pytest.approx(
            oracle, rel=1e-14)

    def test_large_argument_magnitude(self):
        # M(nu, n+1, beta/2) at the largest crossing reaches ~e^422
        beta, eta = CROSSINGS[400]
        value = ScaledReal(*kummer_m(0.5 * (1.0 - eta), 401.0, 0.5 * beta))
        assert value.sign == 1 and math.isfinite(value.log_mag)

    def test_negative_upper_parameter_is_signed(self):
        # ascending series with a < 0 alternates; sign must be tracked
        assert ScaledReal(*kummer_m(-8.5, 11.0, 2.5)).sign == 1
        value = ScaledReal(*kummer_m(-0.5, 2.0, 5.0))
        assert value.sign == -1
        assert value.value() == pytest.approx(float(mp_m(-0.5, 2.0, 5.0)), rel=1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParams):
            kummer_m(0.3, 0.0, 1.0)
        with pytest.raises(InvalidParams):
            kummer_m(0.3, -2.0, 1.0)
        with pytest.raises(InvalidParams):
            kummer_m(0.3, 2.0, -1.0)
        with pytest.raises(InvalidParams):
            kummer_ratio_shift_b(0.5, -1.0, 2.0)

    NON_FINITE_CALLS = [
        (kummer_m, (0.5, 2.0, math.nan)),  # ValueError
        (kummer_m, (0.5, 2.0, math.inf)),  # OverflowError
        (kummer_m, (math.nan, 2.0, 1.0)),
        (kummer_m, (-math.inf, 2.0, 1.0)),
        (kummer_ratio_shift_b, (0.5, math.nan, 1.0)),  # NonConvergence, 1 020 terms
        (kummer_ratio_shift_b, (0.5, math.inf, 1.0)),
        (kummer_m_many, (0.5, 2.0, [1.0, math.nan])),  # z.min() alone was checked
        (kummer_m_many, (0.5, 2.0, [math.inf, 1.0])),
        (boundary_residual, (2, math.nan, 0.2)),  # ValueError
    ]

    @pytest.mark.parametrize("func, args", NON_FINITE_CALLS,
                             ids=[f"{f.__name__}{a}" for f, a in NON_FINITE_CALLS])
    def test_non_finite_arguments(self, func, args):
        with pytest.raises(InvalidParams):
            func(*args)

    def test_term_budget_exhaustion(self, monkeypatch):
        # both inputs reach the scalar loop: z = 2 with a count below the
        # numpy crossover, z = 700 past the raw-sum cap
        assert kummer_mod._numpy_count(0.5, 1.0, 2.0) < kummer_mod._NUMPY_MIN_COUNT
        monkeypatch.setattr(kummer_mod, "_series_budget", lambda z: 5)
        for z in [2.0, 700.0]:
            with pytest.raises(NonConvergence):
                kummer_m(0.5, 1.0, z)

    @pytest.mark.parametrize("z", [50.0, 150.0])
    def test_overflowing_count_takes_the_loop(self, z):
        # a z = inf makes the row's count inf: the scalar loop runs out of
        # budget, where int(count) raised OverflowError
        with pytest.raises(NonConvergence):
            kummer_m(1e307, 1.0, z)


class TestManyZ:
    """The many-z kernel: one numpy product per row, scalar fallback."""

    def test_matches_scalar_path(self):
        # |delta ln M| <= 1e-14 max(1, |ln M|): relative in ln M, and
        # relative in M itself where ln M is near 0 (small z)
        rng = np.random.default_rng(7)
        for _ in range(40):
            a, b = rng.uniform(0.0, 0.5), float(rng.integers(1, 403))
            z = np.concatenate([[0.0, 99.9, 100.0, 100.1, 450.0],
                                rng.uniform(0.0, 450.0, 30)])
            log_m, sign = kummer_m_many(a, b, z)
            scalar = np.array([ScaledReal(*kummer_m(a, b, float(x))).log_mag
                               for x in z])
            assert np.all(sign == 1.0)
            assert np.all(np.abs(log_m - scalar)
                          <= 1e-14 * np.maximum(1.0, np.abs(scalar)))

    def test_unsettled_rows_fall_back(self, monkeypatch):
        # 40 terms (one band, rounded up to a multiple of _BAND) settle only
        # the small-z rows; every other row must come from kummer_m, one
        # call each, and still match it
        a, b = 0.3, 11.0
        z = np.array([0.1, 2.0, 5.0, 60.0, 150.0, 420.0])
        scalar = [ScaledReal(*kummer_m(a, b, float(x))).log_mag for x in z]
        calls = []

        def counted(*args):
            calls.append(args[2])
            return kummer_m(*args)

        monkeypatch.setattr(kummer_mod, "_numpy_count", lambda a, b, z: 40.0 + 0.0 * z)
        monkeypatch.setattr(kummer_mod, "kummer_m", counted)
        log_m, _ = kummer_mod.kummer_m_many(a, b, z)
        assert calls == [60.0, 150.0, 420.0]
        assert np.all(np.abs(log_m - scalar)
                      <= 1e-14 * np.maximum(1.0, np.abs(scalar)))

    def test_negative_a_is_per_node(self):
        z = np.array([0.5, 3.0, 5.0, 12.0])
        log_m, sign = kummer_m_many(-0.5, 2.0, z)
        assert list(sign) == [1.0, -1.0, -1.0, -1.0]
        for i, x in enumerate(z):
            m = ScaledReal(*kummer_m(-0.5, 2.0, float(x)))
            assert (log_m[i], sign[i]) == (m.log_mag, m.sign)

    @pytest.mark.parametrize("a,b,z", [(0.3, 101.0, 150.0), (0.05, 402.0, 449.5),
                                       (0.5, 1.0, 100.5), (0.2, 7.0, 600.0)])
    def test_one_row_is_the_scalar_numpy_path(self, a, b, z):
        # the scalar path's numpy branch is the one-row call of the row's own
        # peak-sized count: bit-identical to a 1-D cumprod/sum of that many
        # terms (and its sum of s_k / (k+1)), and to the same row of a
        # many-z call with that count
        total, weighted, exp2 = kummer_mod._series(a, b, z)
        count = int(kummer_mod._numpy_count(a, b, z))
        assert kummer_mod._peak(a, b, z) < count < kummer_mod._series_budget(z)
        k = np.arange(count, dtype=float)
        terms = np.cumprod((a + k) * z / ((b + k) * (k + 1.0)))
        assert (total, weighted, exp2) == (1.0 + float(terms.sum()),
                                           1.0 + float(np.sum(terms / (k + 2.0))), 0)
        rows = kummer_mod._terms(a, b, np.array([[z - 50.0], [z], [0.5 * z]]), count)
        assert (1.0 + rows.sum(axis=-1))[1] == total
        assert rows[1, -3:].max() <= kummer_mod._SERIES_REL_TOL * total

    def test_one_row_is_the_former_numpy_row(self):
        # every row the numpy path summed at 100 < z <= 600 before the
        # count crossover gives the same (S, W, e) bit for bit: that path
        # written out, a seeded draw of 2 000 rows
        rng = np.random.default_rng(28)
        rows = 0
        for _ in range(2000):
            a, b = rng.uniform(0.0, 2.0), float(rng.integers(1, 403))
            z = float(rng.uniform(100.0, 600.0))
            if z == 100.0:
                continue
            count = int(kummer_mod._numpy_count(a, b, z))
            assert count >= kummer_mod._NUMPY_MIN_COUNT
            k = np.arange(count, dtype=float)
            terms = (a + k) * z
            terms /= (b + k) * (k + 1.0)
            np.cumprod(terms, axis=-1, out=terms)
            total = 1.0 + terms.sum(axis=-1)
            if not (total < math.inf and terms[-3:].max() <= 1e-16 * total):
                continue  # the scalar loop's row, then as now
            rows += 1
            weighted = 1.0 + float(np.sum(terms / np.arange(2.0, count + 2.0)))
            assert kummer_mod._series(a, b, z) == (float(total), weighted, 0)
        assert rows >= 1900

    @pytest.mark.parametrize("a", [1e307, 1e25, 1e12])
    def test_rows_past_the_series_window_take_kummer_m(self, a):
        # counts of inf (a z overflows), 2.2e13 and 7e6 terms: such a row
        # gets no band, and kummer_m refuses it, where the bands raised
        # ValueError, MemoryError (163 TiB), or took 0.27 s first
        assert not kummer_mod._numpy_count(a, 1.0, 50.0) <= kummer_mod._K.size - 2
        with pytest.raises(NonConvergence):
            kummer_m_many(a, 1.0, np.array([50.0]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidParams):
            kummer_m_many(0.3, 2.0, np.array([1.0, -1.0]))
        with pytest.raises(InvalidParams):
            kummer_m_many(0.3, 0.0, np.array([1.0]))


class TestIntegralRepresentation:
    def test_beta_normalization_at_zero(self):
        assert kummer_m_integral(0.3, 2.0, 0.0).value() == pytest.approx(1.0, abs=1e-12)

    def test_matches_series_moderate(self):
        series = ScaledReal(*kummer_m(0.25, 1.5, 5.0))
        integral = kummer_m_integral(0.25, 1.5, 5.0)
        assert abs(series.log_mag - integral.log_mag) < 1e-11

    def test_matches_series_large_argument(self):
        series = ScaledReal(*kummer_m(0.4, 3.0, 100.0))
        integral = kummer_m_integral(0.4, 3.0, 100.0)
        assert abs(series.log_mag - integral.log_mag) < 1e-10

    def test_domain_checks(self):
        with pytest.raises(InvalidParams):
            kummer_m_integral(0.0, 1.0, 1.0)
        with pytest.raises(InvalidParams):
            kummer_m_integral(1.5, 1.0, 1.0)

    def test_quadrature_failure_surfaces(self):
        from oracles import QuadratureFailure, _quad_piece

        with pytest.raises(QuadratureFailure):
            _quad_piece(lambda s: math.sin(1e7 * s) + 1e-30, 0.0, 1.0, 1e-12)


class TestRatio:
    def test_unity_at_zero(self):
        assert kummer_ratio_shift_b(0.37, 4.0, 0.0) == 1.0

    def test_matches_separate_scaled_division(self):
        ratio = kummer_ratio_shift_b(0.2, 1.0, 2.0)
        separate = ScaledReal(*kummer_m(1.2, 2.0, 2.0)).ratio(
            ScaledReal(*kummer_m(0.2, 1.0, 2.0)))
        assert ratio == pytest.approx(separate, rel=1e-14)

    def test_neumann_condition_at_first_crossing(self):
        # at the n = 0 crossing the boundary condition collapses to
        # ratio = 1 / (2 nu); both sides come from the reference row
        beta, eta = CROSSINGS[0]
        nu = 0.5 * (1.0 - eta)
        ratio = kummer_ratio_shift_b(nu, 1.0, 0.5 * beta)
        assert ratio == pytest.approx(1.0 / (2.0 * nu), rel=1e-10)

    def test_positive_for_positive_parameters(self):
        for z in [0.5, 5.0, 50.0, 300.0]:
            assert kummer_ratio_shift_b(0.31, 2.0, z) > 1.0

    @pytest.mark.parametrize("a,b,z", [(0.3, 101.0, 150.0), (0.05, 402.0, 449.5),
                                       (0.5, 1.0, 100.5), (0.2, 7.0, 600.0)])
    def test_two_row_product_is_the_two_series(self, a, b, z):
        # at 100 < z <= 600 the ratio comes from one numpy row, the series of
        # M(a+1, b+1, z) = sum s_k, with M(a, b, z) = 1 + (a z / b) sum
        # s_k / (k+1): bit for bit that quotient, and no further from
        # 50-digit mpmath than the former two-row product of M(a+1, b+1, z)
        # and M(a, b, z)
        num, weighted, exp2 = kummer_mod._series(a + 1.0, b + 1.0, z)
        assert exp2 == 0
        ratio = kummer_ratio_shift_b(a, b, z)
        assert ratio == num / (1.0 + a * z / b * weighted)
        exact = mp_ratio(a, b, z, 50)
        assert abs(ratio - exact) <= max(abs(two_row_ratio(a, b, z) - exact),
                                         4.0 * math.ulp(ratio))

    def test_unsettled_two_row_product_falls_back(self, monkeypatch):
        # _NUMPY_MIN_COUNT terms do not settle the one row at z = 150, so
        # its one _series call tries that row, then sums with the scalar
        # loop, and the ratio is that loop's quotient
        expected = kummer_ratio_shift_b(0.3, 101.0, 150.0)
        count = kummer_mod._NUMPY_MIN_COUNT
        terms = kummer_mod._terms(1.3, 102.0, 150.0, count)
        assert not terms[-3:].max() <= kummer_mod._SERIES_REL_TOL * (1.0 + terms.sum())
        series, row = kummer_mod._series, kummer_mod._terms
        calls, row_calls = [], []

        def counted(a, b, z):
            calls.append((a, b, z))
            return series(a, b, z)

        def counted_row(a, b, z, count):
            row_calls.append((a, b, z, count))
            return row(a, b, z, count)

        monkeypatch.setattr(kummer_mod, "_count_from_peak", lambda *args: float(count))
        monkeypatch.setattr(kummer_mod, "_series", counted)
        monkeypatch.setattr(kummer_mod, "_terms", counted_row)
        ratio = kummer_ratio_shift_b(0.3, 101.0, 150.0)
        assert calls == [(1.3, 102.0, 150.0)] and row_calls == [(*calls[0], count)]
        monkeypatch.setattr(kummer_mod, "_count_from_peak", lambda *args: 0.0)
        num, weighted, exp2 = series(*calls[0])  # the scalar loop alone
        assert len(row_calls) == 1
        assert ratio == num / (math.ldexp(1.0, -exp2) + 0.3 * 150.0 / 101.0 * weighted)
        assert ratio == pytest.approx(expected, rel=1e-14)

    def test_one_series_no_further_from_mpmath_than_two(self):
        # a seeded draw in the numpy range: the one-series ratio's worst
        # error against 50-digit mpmath is no larger than the former
        # two-row product's
        rng = np.random.default_rng(0)
        new = old = 0.0
        for _ in range(40):
            a, b = rng.uniform(0.0, 0.5), float(rng.integers(1, 403))
            z = rng.uniform(100.5, 600.0)
            exact = mp_ratio(a, b, z, 50)
            new = max(new, float(abs(kummer_ratio_shift_b(a, b, z) / exact - 1)))
            old = max(old, float(abs(two_row_ratio(a, b, z) / exact - 1)))
        assert new <= old < 1e-13

    def test_rows_moved_to_numpy_no_further_from_mpmath(self, monkeypatch):
        # rows at z <= 100 whose count reaches _NUMPY_MIN_COUNT moved from
        # the scalar loop to a numpy row: the same terms, summed pairwise
        # and further into the tail.  Their worst error against 50-digit
        # mpmath is no larger than the loop's in the ratio, and in ln M up
        # to one rounding of ln M, since the order of summation moves the
        # last bit of S either way
        rng = np.random.default_rng(0)
        least = kummer_mod._NUMPY_MIN_COUNT
        points = []
        while len(points) < 40:
            a, b = rng.uniform(0.0, 0.5), float(rng.integers(1, 403))
            z = rng.uniform(0.0, 100.0)
            if (kummer_mod._numpy_count(a, b, z) >= least
                    and kummer_mod._numpy_count(a + 1.0, b + 1.0, z) >= least):
                points.append((a, b, z))
        new, old, ulp = [], [], 0.0
        for a, b, z in points:
            with mpmath.workdps(50):
                m = kummer_m_2f2(mpmath.mpf(a), b, z)
                log_m = mpmath.log(m)
                ratio = kummer_m_2f2(mpmath.mpf(a) + 1, b + 1, z) / m
            ulp = max(ulp, math.ulp(float(log_m)))
            for errors in (new, old):
                errors.append((float(abs(kummer_m(a, b, z)[0] - log_m)),
                               float(abs(kummer_ratio_shift_b(a, b, z) / ratio - 1))))
                monkeypatch.setattr(kummer_mod, "_NUMPY_MIN_COUNT", math.inf)
            monkeypatch.undo()  # the next point's first pass takes numpy rows
        new, old = np.max(new, axis=0), np.max(old, axis=0)
        assert new[1] <= old[1] < 1e-13
        assert new[0] <= old[0] + ulp and old[0] < 1e-13

    def test_ratio_beyond_float_range_raises(self):
        # M(1, 2, z)/M(0, 1, z) = (e^z - 1)/z overflows a float at z = 725
        with pytest.raises(NonConvergence):
            kummer_ratio_shift_b(0.0, 1.0, 725.0)


class TestNegativeA:
    """a < 0 (eta > 1): the downward recurrence in a, never the alternating
    series."""

    # (n, beta, eta) of the ROADMAP baseline, where the alternating series
    # was off by 1.2e-2, 2.9 and 5.4e-13
    @pytest.mark.parametrize("n,beta,eta", [
        (100, 50.0, 6363.41939013 / 50.0), (400, 10.0, 1e4), (20, 2.0, 200.0)])
    def test_ratio_at_baseline_points(self, n, beta, eta):
        a, b, z = 0.5 * (1.0 - eta), n + 1.0, 0.5 * beta
        exact = mp_ratio(a, b, z, 60)
        assert abs(kummer_ratio_shift_b(a, b, z) - exact) <= 1e-13 * abs(exact)

    def test_ratio_past_dirichlet_poles_raises(self):
        # the fourth baseline point, (n, beta, eta) = (50, 60, 30), where the
        # series was off by 8.4e-10: eta(50, 60) = 10.69, and M(a', 51, 30)
        # changes sign twice for a' in (-14.5, 0.5), so the chain is refused
        a, b, z = -14.5, 51.0, 30.0
        assert math.isfinite(mp_ratio(a, b, z, 60))
        with pytest.raises(NonConvergence):
            kummer_ratio_shift_b(a, b, z)

    def test_zero_crossed_before_last_step(self):
        # M(-0.125, 2, 12) < 0 < M(0.875, 2, 12) and M(-1.125, 2, 12) > 0:
        # the chain crosses a zero of M one step before its last, which
        # both entry points refuse although M itself is positive
        a, b, z = -1.125, 2.0, 12.0
        assert mp_m(a + 1.0, b, z) < 0.0 < mp_m(a + 2.0, b, z)
        assert mp_m(a, b, z) > 0.0
        with pytest.raises(NonConvergence, match="crosses a zero"):
            kummer_m(a, b, z)
        with pytest.raises(NonConvergence, match="crosses a zero"):
            kummer_ratio_shift_b(a, b, z)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("z", [0.25, 1.5, 4.0, 9.0])
    def test_integer_a_is_laguerre(self, m, z):
        # M(-m, 2, z) = L_m^(1)(z) / (m+1), with L_m^(1)(z) =
        # sum_k C(m+1, m-k) (-z)^k / k!
        with mpmath.workdps(50):
            laguerre = sum(math.comb(m + 1, m - k) * mpmath.mpf(-z) ** k
                           / math.factorial(k) for k in range(m + 1)) / (m + 1)
        assert close_or_refused(lambda: ScaledReal(*kummer_m(-m, 2.0, z)).value(),
                                laguerre, 1e-12)
        assert close_or_refused(lambda: kummer_ratio_shift_b(-m, 2.0, z),
                                mp_ratio(-m, 2, z, 50), 1e-12)

    @pytest.mark.parametrize("a", [-1e-300, -1e-17, -1e-12])
    def test_tiny_negative_a(self, a):
        # a0 = a + ceil(-a) rounds to 1.0 at the first two; at b = 2 no
        # chain step is the 0/0 step a' = b
        assert kummer_ratio_shift_b(a, 2.0, 2.0) == pytest.approx(
            float(mp_ratio(a, 2.0, 2.0, 50)), rel=1e-13)
        assert ScaledReal(*kummer_m(a, 2.0, 2.0)).value() == pytest.approx(
            float(mp_m(a, 2.0, 2.0)), rel=1e-13)

    @pytest.mark.parametrize("a,b,z", [
        (-1e-300, 1.0, 2.0), (-1e-17, 1.0, 2.0), (-1e-12, 1.0, 2.0),
        (-0.75, 0.25, 0.2)])
    def test_chain_start_below_b(self, a, b, z):
        # b <= 1 at a < 0 is outside the domain: from a0 = a + ceil(-a)
        # the chain could meet the 0/0 step a' = b, and no solver asks
        # for it (b = n + 1 has a < 0 only at beta <= 2n, n >= 1)
        for call in (lambda: kummer_m(a, b, z),
                     lambda: kummer_m_many(a, b, np.array([z, 2.0 * z])),
                     lambda: kummer_ratio_shift_b(a, b, z)):
            with pytest.raises(InvalidParams, match="needs b > 1"):
                call()

    @pytest.mark.parametrize("a", [-0.5, -3.0, -41.7])
    def test_zero_argument(self, a):
        assert ScaledReal(*kummer_m(a, 2.0, 0.0)).value() == 1.0
        assert kummer_ratio_shift_b(a, 2.0, 0.0) == 1.0

    def test_value_below_first_zero(self):
        # the eigenfunction path: M(nu, n+1, x) at eta below the Dirichlet pole
        a, b, z = -250.3, 21.0, 0.5
        exact = mpmath.hyp1f1(a, b, z)
        value = ScaledReal(*kummer_m(a, b, z))
        assert value.sign == 1
        assert abs(value.log_mag - float(mpmath.log(exact))) < 1e-12


class TestRecurrences:
    def test_exact_at_zero(self):
        assert check_recurrences(0.3, 2.0, 0.0) == (0.0, 0.0)

    def test_moderate_argument(self):
        r1, r2 = check_recurrences(0.3, 2.0, 5.0)
        assert abs(r1) < 1e-12 and abs(r2) < 1e-12

    def test_large_argument(self):
        r1, r2 = check_recurrences(0.45, 11.0, 200.0)
        assert abs(r1) < 1e-10 and abs(r2) < 1e-10


bounded = dict(allow_nan=False, allow_infinity=False)


class TestProperties:
    @given(st.floats(min_value=0.05, max_value=3.0, **bounded),
           st.floats(min_value=0.5, max_value=20.0, **bounded))
    def test_unit_value_at_zero(self, a, b):
        assert ScaledReal(*kummer_m(a, b, 0.0)).value() == 1.0

    @given(st.floats(min_value=0.05, max_value=0.95, **bounded),
           st.integers(min_value=1, max_value=20),
           st.floats(min_value=0.0, max_value=450.0, **bounded))
    @settings(max_examples=60, deadline=None)
    def test_recurrence_residuals_small(self, a, b, z):
        r1, r2 = check_recurrences(a, float(b), z)
        assert abs(r1) < 1e-10 and abs(r2) < 1e-10

    @given(st.floats(min_value=0.05, max_value=0.95, **bounded),
           st.floats(min_value=0.2, max_value=8.0, **bounded),
           st.floats(min_value=0.0, max_value=500.0, **bounded))
    @settings(max_examples=50, deadline=None)
    def test_series_and_integral_agree(self, a, gap, z):
        b = a + gap
        series = ScaledReal(*kummer_m(a, b, z))
        integral = kummer_m_integral(a, b, z)
        assert abs(series.log_mag - integral.log_mag) < 1e-10

    @given(st.floats(min_value=0.05, max_value=2.0, **bounded),
           st.floats(min_value=0.5, max_value=10.0, **bounded),
           st.floats(min_value=0.0, max_value=200.0, **bounded),
           st.floats(min_value=0.1, max_value=50.0, **bounded))
    @settings(max_examples=60, deadline=None)
    def test_strictly_increasing_in_z(self, a, b, z, dz):
        lower = ScaledReal(*kummer_m(a, b, z))
        upper = ScaledReal(*kummer_m(a, b, z + dz))
        assert upper.log_mag > lower.log_mag

    @given(st.floats(min_value=-200.0, max_value=-0.01, **bounded)
           .filter(lambda a: a != math.floor(a)),
           st.integers(min_value=2, max_value=400),
           st.floats(min_value=0.25, max_value=450.0, **bounded))
    @settings(max_examples=300, deadline=None)
    def test_ratio_negative_a_matches_mpmath(self, a, b, z):
        assert close_or_refused(lambda: kummer_ratio_shift_b(a, float(b), z),
                                mp_ratio(a, b, z, 50), 1e-12)

    @given(st.floats(min_value=0.05, max_value=1.5, **bounded),
           st.floats(min_value=0.5, max_value=10.0, **bounded),
           st.floats(min_value=0.01, max_value=200.0, **bounded))
    @settings(max_examples=50, deadline=None)
    def test_derivative_identity(self, a, b, z):
        # d/dz M(a,b,z) = (a/b) M(a+1,b+1,z); central difference check
        h = 1e-5 * max(1.0, z)
        upper = ScaledReal(*kummer_m(a, b, z + h)).value()
        lower = ScaledReal(*kummer_m(a, b, z - h)).value()
        fd = (upper - lower) / (2.0 * h)
        closed = (a / b) * ScaledReal(*kummer_m(a + 1.0, b + 1.0, z)).value()
        assert rel_gap(fd, closed) < 1e-6


class TestPeak:
    """Every positive-term sum is sized by the peak of its terms: past k2
    (_peak) the term ratio (a+k) z / ((b+k)(k+1)) stays below 1."""

    @given(st.floats(min_value=0.0, max_value=2.0, **bounded),
           st.floats(min_value=0.0, max_value=402.0, exclude_min=True, **bounded),
           st.floats(min_value=0.0, max_value=600.0, **bounded),
           st.lists(st.floats(min_value=1e-5, max_value=1e4, **bounded),
                    min_size=1, max_size=8))
    @example(a=0.875, b=5e-324, z=1e-16, steps=[1.0])  # h + root cancelled to 1.67e-16
    @settings(max_examples=300, deadline=None)
    def test_terms_fall_past_the_peak(self, a, b, z, steps):
        assume(a < b + 1.0)
        k2 = kummer_mod._peak(a, b, z)
        assert 0.0 <= k2 <= z
        for step in steps:
            k = k2 + step * (1.0 + k2)
            assert (a + k) * z < (b + k) * (k + 1.0)

    @given(st.floats(min_value=0.0, max_value=1e3, **bounded),
           st.floats(min_value=0.0, max_value=1e3, exclude_min=True, **bounded),
           st.floats(min_value=0.0, max_value=600.0, **bounded))
    @example(a=1.4604547947608337, b=249.0, z=342.0901706770145)  # x ** 0.5 was
    @example(a=1.3554526549396122, b=306.0, z=139.82405649291988)  # 1 ulp off sqrt
    @settings(max_examples=300, deadline=None)
    def test_float_count_is_the_array_count(self, a, b, z):
        # _series sizes its one row by the float path of _numpy_count, and
        # kummer_m_many its bands by the array path: bit for bit the same
        for f in (kummer_mod._peak, kummer_mod._numpy_count):
            scalar, array = f(a, b, z), f(a, b, np.array([z]))
            assert type(scalar) is float and float.hex(scalar) == float.hex(array[0])

    @pytest.mark.parametrize("a", [1e-300, 1e-30, 1e-12, 0.05])
    @pytest.mark.parametrize("b,z", [(200.0, 170.0), (200.0, 200.0), (200.0, 240.0),
                                     (401.0, 371.0), (401.0, 401.0), (401.0, 441.0),
                                     (200.0, 400.0), (10.0, 90.0), (400.0, 700.0)])
    def test_dip_then_rise(self, a, b, z):
        # the first terms are ~ a z / b, tiny for tiny a, and at z > b + 1
        # they rise again up to the peak: no sum may stop in the dip.  At
        # a = 1e-30 and z - b >= 80 the first three terms are < 1e-16 and
        # the peak term is not; (400, 700) runs the scalar loop (z > 600),
        # the others numpy rows
        with mpmath.workdps(50):
            m = kummer_m_2f2(mpmath.mpf(a), b, z)
            log_m = float(mpmath.log(m))
            ratio = kummer_m_2f2(mpmath.mpf(a) + 1, b + 1, z) / m
        assert abs(kummer_m(a, b, z)[0] - log_m) <= 1e-13
        assert abs(kummer_m_many(a, b, np.array([0.5 * z, z]))[0][1] - log_m) <= 1e-13
        assert abs(kummer_ratio_shift_b(a, b, z) / ratio - 1) <= 1e-13

    @pytest.mark.parametrize("n", [0, 10, 100, 400])
    def test_eigenfunction_rows_settle(self, n, monkeypatch):
        # at the (n+1, beta_n) eigenfunction every Gauss node's row settles
        # in its numpy band: none falls back to kummer_m
        from diskmag.spectrum import eigenfunction, lowest_eigenvalue

        point = lowest_eigenvalue(n + 1, CROSSINGS[n][0])
        assert point.nu > 0.0
        calls = []
        monkeypatch.setattr(kummer_mod, "kummer_m",
                            lambda *args: calls.append(args) or (0.0, 1))
        assert math.isfinite(eigenfunction(point).boundary_trace)
        assert calls == []
