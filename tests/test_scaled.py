import math

import pytest
from hypothesis import given, strategies as st

from oracles import ScaledReal, signed_sum


def test_zero_encoding():
    zero = ScaledReal.zero()
    assert zero.sign == 0 and zero.log_mag == -math.inf
    assert zero.value() == 0.0
    assert ScaledReal.from_float(0.0).sign == 0


def test_sign_log_pairing_enforced():
    with pytest.raises(ValueError):
        ScaledReal(0.0, 0)
    with pytest.raises(ValueError):
        ScaledReal(-math.inf, 1)
    with pytest.raises(ValueError):
        ScaledReal(1.0, 2)


def test_roundtrip_and_negation():
    x = ScaledReal.from_float(-3.25)
    assert x.sign == -1
    assert x.value() == pytest.approx(-3.25, rel=1e-15)
    assert (-x).value() == pytest.approx(3.25, rel=1e-15)


def test_huge_products_do_not_overflow():
    big = ScaledReal(5e5, 1)
    prod = big * big
    assert prod.log_mag == 1e6 and prod.sign == 1
    assert (prod / big).log_mag == pytest.approx(5e5)
    assert big.value() == math.inf  # only leaving log space overflows


def test_ratio_of_huge_values_is_finite():
    a = ScaledReal(422.0 + math.log(2.0), 1)
    b = ScaledReal(422.0, 1)
    assert a.ratio(b) == pytest.approx(2.0, rel=1e-14)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ScaledReal.from_float(1.0) / ScaledReal.zero()


def test_signed_sum_normalizes_by_largest():
    terms = [ScaledReal.from_float(1e200), ScaledReal.from_float(-1e200)]
    assert signed_sum(terms) == 0.0
    terms = [ScaledReal.from_float(3e100), ScaledReal.from_float(-1e100)]
    assert signed_sum(terms) == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert signed_sum([]) == 0.0
    assert signed_sum([ScaledReal.zero()]) == 0.0


@given(st.floats(min_value=1e-3, max_value=1e3),
       st.floats(min_value=1e-3, max_value=1e3))
def test_product_matches_float_product(x, y):
    prod = ScaledReal.from_float(x) * ScaledReal.from_float(y)
    assert prod.value() == pytest.approx(x * y, rel=1e-12)


@given(st.floats(min_value=-700.0, max_value=700.0), st.sampled_from([-1, 1]),
       st.floats(min_value=-700.0, max_value=700.0), st.sampled_from([-1, 1]))
def test_multiplication_is_exact_in_log_space(la, sa, lb, sb):
    prod = ScaledReal(la, sa) * ScaledReal(lb, sb)
    assert prod.log_mag == la + lb
    assert prod.sign == sa * sb
