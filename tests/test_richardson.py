import math

import pytest

from diskmag.errors import InsufficientData, InvalidParams
from diskmag.richardson import (gamma_sequence, r4_gamma, richardson_iterate,
                                richardson_step)

from checks import (beta_residual, delta_at_crossings, eta_deficit,
                    eta_deficit_next_order, limits, loglog_slope)
from refdata import GAMMA_0, GAMMA_10, R4_GAMMA_1, R4_GAMMA_24


def seq_from(func, indices):
    return {n: func(n) for n in indices}


class TestStep:
    def test_preserves_constants(self):
        seq = seq_from(lambda n: 7.25, range(1, 33))
        for k in (1, 2, 3):
            seq = richardson_step(seq, k)
            assert all(v == pytest.approx(7.25, rel=1e-15) for v in seq.values())

    def test_eliminates_single_power_term_exactly(self):
        seq = seq_from(lambda n: 2.0 + n ** -0.5, range(1, 65))
        out = richardson_step(seq, 1)
        assert all(v == pytest.approx(2.0, abs=5e-15) for v in out.values())

    def test_consumes_unpaired_indices(self):
        seq = seq_from(lambda n: 1.0 / n, [1, 2, 3, 4, 8])
        out = richardson_step(seq, 2)
        assert sorted(out) == [1, 2, 4]

    def test_insufficient_data(self):
        seq = seq_from(lambda n: 1.0, [3, 5, 7])
        with pytest.raises(InsufficientData):
            richardson_step(seq, 1)

    def test_index_zero_is_always_consumed(self):
        seq = seq_from(lambda n: float(n), [0, 1, 2])
        out = richardson_step(seq, 1)
        assert sorted(out) == [1]

    def test_rejects_bad_sequences(self):
        with pytest.raises(InvalidParams):
            richardson_step({1: math.nan, 2: 1.0}, 1)

    def test_depth_four_on_full_model(self):
        def model(n):
            return 3.0 + sum(c * n ** (-0.5 * k)
                             for k, c in enumerate([0.7, -0.4, 0.2, -0.1], 1))
        out = richardson_iterate(seq_from(model, range(1, 257)), 4)
        assert out[max(out)] == pytest.approx(3.0, abs=1e-6)


class TestGapSequence:
    def test_reference_entries(self, crossings400):
        gaps = gamma_sequence(crossings400)
        assert gaps[0] == pytest.approx(GAMMA_0, abs=1e-10)
        assert gaps[10] == pytest.approx(GAMMA_10, abs=1e-10)

    def test_strictly_decreasing(self, crossings400):
        gaps = gamma_sequence(crossings400)
        values = [gaps[n] for n in sorted(gaps)]
        assert all(b < a for a, b in zip(values[1:], values[2:]))  # n >= 1
        assert all(v >= 2.0 for v in values)

    def test_four_fold_extrapolation(self, crossings400):
        r4 = r4_gamma(crossings400)
        assert r4[1] == pytest.approx(R4_GAMMA_1, abs=1e-8)
        assert r4[24] == pytest.approx(R4_GAMMA_24, abs=1e-8)
        assert sorted(r4) == list(range(1, 25))

    def test_remainder_decay_rate(self, crossings400):
        slope = loglog_slope(r4_gamma(crossings400), 2.0, n_min=12)
        assert -2.8 < slope < -2.2

    def test_requires_consecutive_crossings(self, crossings400):
        with pytest.raises(InvalidParams):
            gamma_sequence(crossings400[1:])


class TestBetaExpansion:
    def test_sqrt_term_is_necessary(self, constants, crossings400):
        # without the xi1 sqrt(n) term the residual diverges like sqrt(n)
        raw = {p.n: p.beta_n - 2.0 * p.n for p in crossings400}
        assert raw[400] > raw[100] + 10.0
        xi1 = -2.0 ** 1.5 * constants.xi0
        corrected = {p.n: p.beta_n - 2.0 * p.n - xi1 * math.sqrt(p.n)
                     for p in crossings400 if p.n >= 1}
        assert abs(corrected[400] - corrected[100]) < 0.05

    def test_constant_term(self, constants, crossings400):
        seq, kappa0 = beta_residual(crossings400, constants)
        lim4, _ = limits(seq)
        assert lim4 == pytest.approx(kappa0, abs=5e-3)

    def test_tail_budget_at_the_far_end(self, constants, crossings400):
        xi1 = -2.0 ** 1.5 * constants.xi0
        kappa0 = 1.0 - 2.0 * constants.delta0_formula + 2.0 * constants.xi0 ** 2
        predicted = xi1 * 20.0 + kappa0
        assert abs((crossings400[400].beta_n - 800.0) - predicted) < 0.15

    def test_depth_stability(self, constants, crossings400):
        lim4, lim3 = limits(beta_residual(crossings400, constants)[0])
        assert abs(lim4 - lim3) < 1e-3


class TestEtaStarExpansion:
    def test_leading_deficit_coefficient(self, constants, crossings400):
        lim4, _ = limits(eta_deficit(crossings400, constants)[0])
        assert lim4 == pytest.approx(constants.c1, abs=2e-3)
        assert lim4 == pytest.approx(0.254, abs=2e-3)

    def test_deficit_at_far_end_within_one_percent(self, constants, crossings400):
        point = crossings400[400]
        deficit = constants.theta0 - point.eta_star
        model = constants.c1 / math.sqrt(point.beta_n)
        assert deficit == pytest.approx(model, rel=0.01)

    def test_next_order_matches_profile_offset(self, constants, crossings400):
        seq, target = eta_deficit_next_order(crossings400, constants)
        assert limits(seq)[0] == pytest.approx(target, abs=1e-2)

    def test_depth_stability(self, constants, crossings400):
        for build in (eta_deficit, eta_deficit_next_order):
            lim4, lim3 = limits(build(crossings400, constants)[0])
            assert abs(lim4 - lim3) < 1e-3


class TestDeltaAtCrossings:
    def test_unit_offset_is_exact(self, constants, crossings400):
        xi0 = constants.xi0
        for point in crossings400[::40]:
            lower = point.n - 0.5 * point.beta_n - xi0 * math.sqrt(point.beta_n)
            upper = point.n + 1 - 0.5 * point.beta_n - xi0 * math.sqrt(point.beta_n)
            assert upper - lower == pytest.approx(1.0, abs=1e-12)

    def test_limits(self, constants, crossings400):
        (lower, lower_target), (upper, upper_target) = (
            delta_at_crossings(crossings400, constants, shift) for shift in (0, 1))
        assert limits(lower)[0] == pytest.approx(lower_target, abs=2e-3)
        assert limits(upper)[0] == pytest.approx(upper_target, abs=2e-3)
        assert upper_target - lower_target == pytest.approx(1.0, rel=1e-14)

    def test_depth_stability(self, constants, crossings400):
        for shift in (0, 1):
            lim4, lim3 = limits(delta_at_crossings(crossings400, constants, shift)[0])
            assert abs(lim4 - lim3) < 1e-3
