import random
from fractions import Fraction

import pytest

from nilorb.exactnum import PolyQ, RationalFunctionQ, RF_ONE, RF_ZERO
from nilorb.series import TruncatedXSeries

RF = RationalFunctionQ


def random_rf(rng, max_deg=2):
    num = PolyQ([Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(0, max_deg + 1))])
    den = PolyQ([1] + [Fraction(rng.randint(-2, 2)) for _ in range(rng.randint(0, max_deg))])
    return RF(num, den)


def random_unit_series(rng, order):
    return TruncatedXSeries([RF_ONE] + [random_rf(rng) for _ in range(order)])


def random_zero_series(rng, order):
    return TruncatedXSeries([RF_ZERO] + [random_rf(rng) for _ in range(order)])


def alternating_log(series):
    """Test-local log via the alternating sum of powers of (series - 1)."""
    n = series.order
    u = series - TruncatedXSeries.one(n)
    acc = TruncatedXSeries([RF_ZERO] * (n + 1))
    power = TruncatedXSeries.one(n)
    for i in range(1, n + 1):
        power = power * u
        acc = acc + power.scale(Fraction((-1) ** (i - 1), i))
    return acc


def test_binomial_product():
    plus = TruncatedXSeries([RF_ONE, RF_ONE, RF_ZERO])
    minus = TruncatedXSeries([RF_ONE, RF(PolyQ([-1])), RF_ZERO])
    assert (plus * minus).coefficients == (RF_ONE, RF_ZERO, RF(PolyQ([-1])))


def test_log_of_geometric():
    got = TruncatedXSeries([RF_ONE] * 5).log()
    expected = [RF_ZERO] + [RF(PolyQ([Fraction(1, n)])) for n in range(1, 5)]
    assert got == TruncatedXSeries(expected)


def test_log_of_one_is_zero():
    assert TruncatedXSeries.one(5).log() == TruncatedXSeries([RF_ZERO] * 6)


def test_exp_of_zero_is_one():
    assert TruncatedXSeries([RF_ZERO] * 4).exp() == TruncatedXSeries.one(3)


def test_exp_log_inverse_pair_on_binomial():
    plus = TruncatedXSeries([RF_ONE, RF_ONE] + [RF_ZERO] * 4)
    assert plus.log().exp() == plus


def test_exp_of_x():
    x = TruncatedXSeries([RF_ZERO, RF_ONE, RF_ZERO, RF_ZERO])
    got = x.exp()
    expected = TruncatedXSeries(
        [RF_ONE, RF_ONE, RF(PolyQ([Fraction(1, 2)])), RF(PolyQ([Fraction(1, 6)]))]
    )
    assert got == expected


def test_log_matches_alternating_sum_definition():
    rng = random.Random(20240)
    for _ in range(5):
        series = random_unit_series(rng, 6)
        assert series.log() == alternating_log(series)


def test_exp_log_round_trips_randomized():
    rng = random.Random(777)
    for _ in range(5):
        unit = random_unit_series(rng, 5)
        assert unit.log().exp() == unit
        vanishing = random_zero_series(rng, 5)
        assert vanishing.exp().log() == vanishing


def test_log_turns_products_into_sums():
    rng = random.Random(99)
    a = random_unit_series(rng, 5)
    b = random_unit_series(rng, 5)
    assert (a * b).log() == a.log() + b.log()


def test_pow_with_zero_exponent():
    rng = random.Random(5)
    series = random_unit_series(rng, 4)
    assert series.pow_with_exponent(0) == TruncatedXSeries.one(4)


def test_pow_minus_one_matches_inverse():
    one_minus_x = TruncatedXSeries([RF_ONE, RF(PolyQ([-1])), RF_ZERO, RF_ZERO])
    assert one_minus_x.pow_with_exponent(-1) == TruncatedXSeries([RF_ONE] * 4)


def test_integer_pow_matches_repeated_multiplication():
    rng = random.Random(31)
    series = random_unit_series(rng, 5)
    assert series.pow_with_exponent(3) == series * series * series


def test_pow_exponent_additivity():
    rng = random.Random(13)
    series = random_unit_series(rng, 4)
    e1 = PolyQ([0, 2])
    e2 = PolyQ([1, -1])
    combined = series.pow_with_exponent(e1 + e2)
    split = series.pow_with_exponent(e1) * series.pow_with_exponent(e2)
    assert combined == split


def test_pow_polynomial_exponent_first_coefficient():
    got = TruncatedXSeries([RF_ONE] * 4).pow_with_exponent(PolyQ([0, 2]))
    assert got.coefficient(1) == RF(PolyQ([0, 2]))


def test_adams_example():
    series = TruncatedXSeries(
        [RF_ONE, RF(PolyQ([1]), PolyQ([-1, 1]))] + [RF_ZERO] * 3
    )
    got = series.adams(2)
    assert got.coefficient(0) == RF_ONE
    assert got.coefficient(1) == RF_ZERO
    assert got.coefficient(2) == RF(PolyQ([1]), PolyQ([-1, 0, 1]))
    assert got.order == 4


def test_adams_identity_and_composition():
    rng = random.Random(47)
    series = random_unit_series(rng, 6)
    assert series.adams(1) == series
    assert series.adams(2).adams(3) == series.adams(6)


def test_adams_is_ring_morphism():
    rng = random.Random(53)
    a = random_unit_series(rng, 6)
    b = random_unit_series(rng, 6)
    assert (a * b).adams(2) == a.adams(2) * b.adams(2)


def test_order_mismatch_is_loud():
    with pytest.raises(ValueError, match="order mismatch"):
        TruncatedXSeries.one(3) * TruncatedXSeries.one(4)
    with pytest.raises(ValueError, match="order mismatch"):
        TruncatedXSeries.one(3) + TruncatedXSeries.one(2)


def test_constant_term_preconditions():
    x = TruncatedXSeries([RF_ZERO, RF_ONE, RF_ZERO])
    with pytest.raises(ValueError):
        x.log()
    with pytest.raises(ValueError):
        TruncatedXSeries.one(2).exp()
    with pytest.raises(ValueError):
        x.pow_with_exponent(2)
