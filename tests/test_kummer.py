import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import diskmag.kummer as kummer_mod
from diskmag.errors import InvalidParams, NonConvergence
from diskmag.kummer import kummer_m, kummer_m_many, kummer_ratio_shift_b

from oracles import (ScaledReal, check_recurrences, kummer_m_integral,
                     kummer_series_rational)
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

    def test_term_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(kummer_mod, "_series_budget", lambda z: 5)
        with pytest.raises(NonConvergence):
            kummer_m(0.5, 1.0, 50.0)


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
        # 40 terms settle only the small-z rows; every other row must come
        # from kummer_m, one call each, and still match it
        a, b = 0.3, 11.0
        z = np.array([0.1, 2.0, 5.0, 60.0, 150.0, 420.0])
        scalar = [ScaledReal(*kummer_m(a, b, float(x))).log_mag for x in z]
        calls = []

        def counted(*args):
            calls.append(args[2])
            return kummer_m(*args)

        monkeypatch.setattr(kummer_mod, "_numpy_count", lambda z_max: 40)
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
        # the scalar path's numpy branch is the one-row call: bit-identical
        # to the former 1-D cumprod/sum, and to the same row of a many-z call
        total, exp2 = kummer_mod._series(a, b, z)
        count = kummer_mod._numpy_count(z)
        k = np.arange(count, dtype=float)
        terms = np.cumprod((a + k) * z / ((b + k) * (k + 1.0)))
        assert (total, exp2) == (1.0 + float(terms.sum()), 0)
        column = np.array([[z - 50.0], [z], [0.5 * z]])
        rows, settled = kummer_mod._series_rows(a, b, column, count)
        assert settled[1] and rows[1] == total

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
        # at 100 < z <= 600 both sums come from one two-row product, bit
        # for bit the quotient of the two separate _series calls
        num, e_num = kummer_mod._series(a + 1.0, b + 1.0, z)
        den, e_den = kummer_mod._series(a, b, z)
        assert kummer_ratio_shift_b(a, b, z) == math.ldexp(num / den, e_num - e_den)

    def test_unsettled_two_row_product_falls_back(self, monkeypatch):
        # 40 terms settle neither row at z = 150, so the ratio comes from
        # two _series calls, which then sum with the scalar loop
        expected = kummer_ratio_shift_b(0.3, 101.0, 150.0)
        series, calls = kummer_mod._series, []

        def counted(a, b, z):
            calls.append((a, b, z))
            return series(a, b, z)

        monkeypatch.setattr(kummer_mod, "_numpy_count", lambda z: 40)
        monkeypatch.setattr(kummer_mod, "_series", counted)
        ratio = kummer_ratio_shift_b(0.3, 101.0, 150.0)
        assert len(calls) == 2
        (num, e_num), (den, e_den) = (series(*args) for args in calls)
        assert ratio == math.ldexp(num / den, e_num - e_den)
        assert ratio == pytest.approx(expected, rel=1e-14)

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
