import random
from fractions import Fraction

import pytest

from nilorb.exactnum import InternalCheckError, PolyQ
from nilorb.partitions import weight_denominator
from nilorb.series import exp_coefficients, log_coefficients
from rf_arithmetic import RF, poly

RF_ZERO = RF(PolyQ())
RF_ONE = RF(PolyQ([1]))


def q_minus_one(n):
    return PolyQ.q_power(n) - 1


def random_poly(rng, max_deg=3):
    return poly([Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                 for _ in range(rng.randint(0, max_deg + 1))])


def random_zero_series(rng, order):
    """A random log: its X**n denominator divides q**n - 1, as the weight
    series' log does."""
    return (RF_ZERO,) + tuple(RF(random_poly(rng), q_minus_one(n))
                              for n in range(1, order + 1))


def random_unit_series(rng, order):
    """The exp of a random log, so its X**n denominator divides D_n."""
    return exp_coefficients(random_zero_series(rng, order))


def numerators(series):
    """Numerators over D_n of a series whose X**n denominator divides D_n."""
    return tuple((c * weight_denominator(n)).as_poly() for n, c in enumerate(series))


def log(series):
    """The log of a series of rational functions, by log_coefficients on its
    numerators over D_n, read back over q**n - 1."""
    logs = log_coefficients(numerators(series))
    return (RF_ZERO,) + tuple(RF(c, q_minus_one(n)) for n, c in enumerate(logs) if n)


def one(order):
    return (RF_ONE,) + (RF_ZERO,) * order


def convolve(a, b):
    """Test-local truncated product of two coefficient tuples of one length."""
    out = [RF_ZERO] * len(a)
    for i, x in enumerate(a):
        for j in range(len(a) - i):
            out[i + j] = out[i + j] + x * b[j]
    return tuple(out)


def scaled(a, x):
    return tuple(c * x for c in a)


def power(series, e):
    """series ** e as exp(e * log(series)), the form the product route uses."""
    return exp_coefficients(scaled(log(series), e))


def adams(series, d):
    """Test-local substitution (X, q) -> (X**d, q**d) at the same order."""
    out = [RF_ZERO] * len(series)
    for k in range(0, len(series), d):
        out[k] = series[k // d].adams(d)
    return tuple(out)


def alternating_log(series):
    """Test-local log via the alternating sum of powers of (series - 1)."""
    n = len(series) - 1
    u = (RF_ZERO,) + tuple(series[1:])
    acc = (RF_ZERO,) * (n + 1)
    term = one(n)
    for i in range(1, n + 1):
        term = convolve(term, u)
        acc = tuple(a + b for a, b in zip(acc, scaled(term, Fraction((-1) ** (i - 1), i))))
    return acc


def test_log_of_geometric():
    got = log_coefficients([weight_denominator(n) for n in range(5)])
    assert got == (PolyQ(),) + tuple(q_minus_one(n) * PolyQ([1], n) for n in range(1, 5))
    expected = (RF_ZERO,) + tuple(RF(PolyQ([1], n)) for n in range(1, 5))
    assert log((RF_ONE,) * 5) == expected


def test_log_of_one_is_zero():
    assert log_coefficients((PolyQ([1]),) + (PolyQ(),) * 5) == (PolyQ(),) * 6
    assert log(one(5)) == (RF_ZERO,) * 6


def test_exp_of_zero_is_one():
    assert exp_coefficients((RF_ZERO,) * 4) == one(3)
    assert exp_coefficients((PolyQ(),) * 4) == (PolyQ([1]),) + (PolyQ(),) * 3


def test_exp_log_inverse_pair_on_binomial():
    plus = (RF_ONE, RF_ONE) + (RF_ZERO,) * 4
    assert exp_coefficients(log(plus)) == plus


def test_exp_of_x():
    halves = [1, 1, Fraction(1, 2), Fraction(1, 6)]
    assert exp_coefficients((RF_ZERO, RF_ONE, RF_ZERO, RF_ZERO)) == tuple(
        RF(poly([c])) for c in halves)
    assert exp_coefficients((PolyQ(), PolyQ([1]), PolyQ(), PolyQ())) == tuple(
        poly([c]) for c in halves)


def test_exp_over_polynomials_matches_rational_functions():
    rng = random.Random(4242)
    for _ in range(5):
        h = (PolyQ(),) + tuple(random_poly(rng) for _ in range(6))
        got = exp_coefficients(h)
        assert all(isinstance(c, PolyQ) for c in got)
        assert tuple(RF(c) for c in got) == exp_coefficients(tuple(RF(c) for c in h))


def test_log_matches_alternating_sum_definition():
    rng = random.Random(20240)
    for _ in range(5):
        series = random_unit_series(rng, 6)
        assert log(series) == alternating_log(series)


def test_exp_log_round_trips_randomized():
    rng = random.Random(777)
    for _ in range(5):
        unit = convolve(random_unit_series(rng, 5), random_unit_series(rng, 5))
        assert exp_coefficients(log(unit)) == unit
        vanishing = random_zero_series(rng, 5)
        assert log(exp_coefficients(vanishing)) == vanishing


def test_log_turns_products_into_sums():
    rng = random.Random(99)
    a = random_unit_series(rng, 5)
    b = random_unit_series(rng, 5)
    summed = tuple(x + y for x, y in zip(log(a), log(b)))
    assert log(convolve(a, b)) == summed


def test_pow_minus_one_matches_inverse():
    one_minus_x = (RF_ONE, RF(PolyQ([-1])), RF_ZERO, RF_ZERO)
    assert power(one_minus_x, -1) == (RF_ONE,) * 4


def test_integer_pow_matches_repeated_multiplication():
    rng = random.Random(31)
    series = random_unit_series(rng, 5)
    assert power(series, 3) == convolve(convolve(series, series), series)


def test_pow_exponent_additivity():
    rng = random.Random(13)
    series = random_unit_series(rng, 4)
    e1 = PolyQ([0, 2])
    e2 = PolyQ([1, -1])
    assert power(series, e1 + e2) == convolve(power(series, e1), power(series, e2))


def test_pow_polynomial_exponent_first_coefficient():
    got = power((RF_ONE,) * 4, PolyQ([0, 2]))
    assert got[1] == RF(PolyQ([0, 2]))


def test_adams_is_ring_morphism():
    rng = random.Random(53)
    a = random_unit_series(rng, 6)
    b = random_unit_series(rng, 6)
    assert adams(convolve(a, b), 2) == convolve(adams(a, 2), adams(b, 2))
    # so the log of a transported series is the transported log, which is
    # what lets the product route read H(q**d, X**d) off the log coefficients
    for d in (1, 2, 3):
        assert log(adams(a, d)) == adams(log(a), d)


def test_log_rejects_a_denominator_beyond_q_n_minus_1():
    # 1 + X**2 / D_2 has log coefficient 1 / D_2 at X**2, and D_2 = (q - 1)(q**2 - 1)
    # does not divide q**2 - 1
    with pytest.raises(InternalCheckError, match="X\\^2"):
        log_coefficients((PolyQ([1]), PolyQ(), PolyQ([1])))


def test_constant_term_preconditions():
    with pytest.raises(ValueError):
        log_coefficients((PolyQ(), PolyQ([1]), PolyQ()))
    with pytest.raises(ValueError):
        exp_coefficients(one(2))
    with pytest.raises(ValueError):
        exp_coefficients((PolyQ([1]), PolyQ(), PolyQ()))
