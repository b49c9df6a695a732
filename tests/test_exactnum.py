import ast
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import nilorb
from nilorb import checks, poly_text, quotient_text
from nilorb.exactnum import InexactDivisionError, PolyQ, RationalFunctionQ
from nilorb.partitions import inner_product, partitions_of
from nilorb.pipeline import CountingPolynomial
from rf_arithmetic import RF, centralizer_order, coefficients, divmod_poly, poly_gcd, value_at

Q = PolyQ([0, 1])
ONE = PolyQ([1])


def longdiv(num, den, order):
    """Independent schoolbook series division (ascending coefficients).

    Deliberately not sharing any code with checks._expand_weight_series.
    """
    num = [Fraction(c) for c in num] + [Fraction(0)] * (order + 1)
    den = [Fraction(c) for c in den]
    assert den[0] != 0
    out = []
    for k in range(order + 1):
        c = num[k] / den[0]
        out.append(c)
        for j, d in enumerate(den):
            if k + j <= order:
                num[k + j] -= c * d
    return out


# ---------------------------------------------------------------------------
# polynomials


def test_polyq_takes_its_integer_form():
    p = PolyQ([1, 2, 0])
    assert p.numerators == (1, 2) and PolyQ.__slots__ == ("numerators",)
    # a bool is an int to isinstance, but no coefficient: [True, 2] would
    # print as 2q + True
    for bad in ([Fraction(1, 2)], [1.5], [True, 2], [1, 0, False]):
        with pytest.raises(TypeError):
            PolyQ(bad)
    # there is no second, denominator argument
    with pytest.raises(TypeError):
        PolyQ([1], 2)
    # scalar operands are ints
    for bad in (Fraction(1, 2), 0.5):
        for op in (lambda: p + bad, lambda: p - bad, lambda: p * bad, lambda: bad * p,
                   lambda: p / bad):
            with pytest.raises(TypeError):
                op()
    assert p * PolyQ([2]) == PolyQ([2, 4]) and p + 1 == PolyQ([2, 2])
    assert p != Fraction(1, 2) and PolyQ([1]) != Fraction(1, 2)


def test_no_module_imports_fractions():
    for path in sorted(Path(nilorb.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert "fractions" not in [name.split(".")[0] for name in names], path.name
            if isinstance(node, ast.ImportFrom) and node.module == "math":
                assert "lcm" not in [alias.name for alias in node.names], path.name


def test_product_difference_of_squares():
    assert PolyQ([-1, 1]) * PolyQ([1, 1]) == PolyQ([-1, 0, 1])


def test_gcd_example():
    # (q-1)(q+1) and q(q-1) share exactly q-1, in the reference arithmetic
    assert poly_gcd(coefficients([-1, 0, 1]), coefficients([0, -2, 2])) == (-1, 1)
    assert poly_gcd((), ()) == ()


def test_exact_divide():
    # the one division by a polynomial is by q^j - 1: q^3 - q = q (q^2 - 1)
    p = PolyQ([0, -1, 0, 1])
    assert p.div_q_power_minus_one(2) == Q
    assert p.div_q_power_minus_one(1) == PolyQ([0, 1, 1])
    assert PolyQ.q_power_minus_one(4).div_q_power_minus_one(4) == ONE
    assert PolyQ().div_q_power_minus_one(3).is_zero
    with pytest.raises(ValueError):
        p.div_q_power_minus_one(0)


def test_exact_divide_rejects_remainder():
    with pytest.raises(InexactDivisionError):  # q + 1 is 2 at q = 1
        PolyQ([1, 1]).div_q_power_minus_one(1)
    # a nonzero polynomial of at most j coefficients has degree below j
    for nums in ([5], [0, 0, 5], [-1, 0, 1]):
        with pytest.raises(InexactDivisionError):
            PolyQ(nums).div_q_power_minus_one(3)
    # (q^2 + 1)(q - 1) = (q^3 - 1) - q^2 + q: the remainder lies only in the
    # top coefficients below index j, past where the pass ends with zeros
    with pytest.raises(InexactDivisionError):
        PolyQ([-1, 1, -1, 1]).div_q_power_minus_one(3)


def test_degree_and_zero_conventions():
    assert PolyQ().degree() == -1
    assert PolyQ().is_zero
    assert PolyQ([0, 0]).is_zero
    assert (PolyQ() * Q).is_zero


def test_monomials_have_the_canonical_representation():
    for k in range(4):
        assert PolyQ.q_power(k) == PolyQ([0] * k + [1])
        assert PolyQ.q_power_minus_one(k + 1) == PolyQ([0] * (k + 1) + [1]) - ONE
    with pytest.raises(ValueError):
        PolyQ.q_power(-1)
    with pytest.raises(ValueError):
        PolyQ.q_power_minus_one(0)


def test_poly_str_matches_display_style():
    assert str(PolyQ([0, 2, 3, 0, 1])) == "q^4 + 3q^2 + 2q"
    assert str(PolyQ([1])) == "1"
    assert str(PolyQ([0, 2])) == "2q"
    assert str(PolyQ([-1, 1])) == "q - 1"
    assert str(PolyQ()) == "0"


def test_display_works_on_coefficient_strings():
    # the pretty printer of cached results formats the stored strings alone,
    # the rational coefficients of I included
    assert poly_text(["1/2", "3", "-3/4"]) == "-(3/4)q^2 + 3q + (1/2)"
    assert poly_text(["0", "-1"]) == "-q" and poly_text([]) == "0"
    assert quotient_text(["2"], ["1"]) == "2"
    assert quotient_text(["1"], ["-1", "1"]) == "(1) / (q - 1)"
    assert str(RF(ONE, PolyQ([-2, 2]))) == "(1) / (2q - 2)"


def test_equal_values_have_one_representation():
    a = PolyQ([2, 12, -3, 0, 0])
    assert a.numerators == (2, 12, -3) and a == PolyQ([2, 12, -3])
    assert hash(a) == hash(PolyQ([2, 12, -3])) and str(a) == "-3q^2 + 12q + 2"
    third = PolyQ([0, 1])
    assert (third - third).numerators == ()


def test_constants_hash_as_their_ints():
    # a constant equals its int, so a set or a dict finds it under that int
    for c in (3, -7, 1, 2**70):
        assert PolyQ([c]) == c and hash(PolyQ([c])) == hash(c)
        assert c in {PolyQ([c])} and PolyQ([c]) in {c}
    assert PolyQ() == 0 and hash(PolyQ()) == hash(0) == 0 and 0 in {PolyQ()}
    assert {PolyQ([3]): "three"}[3] == "three"
    assert PolyQ([0, 3]) not in {3}


def test_integer_scalings_and_shifts():
    p = PolyQ([2, 0, -12])
    assert p * 3 == 3 * p == PolyQ([6, 0, -36]) == p * PolyQ([3])
    assert p / 2 == PolyQ([1, 0, -6]) and p / -2 == PolyQ([-1, 0, 6])
    assert (p * 0).is_zero and (PolyQ() / 5).is_zero
    with pytest.raises(InexactDivisionError):
        p / 4
    with pytest.raises(ZeroDivisionError):
        p / 0
    with pytest.raises(TypeError):
        p / Q  # the one polynomial divisor is q^j - 1, by div_q_power_minus_one
    assert p.shift(2) == p * PolyQ.q_power(2) and p.shift(0) == p
    assert PolyQ([0, 0, 5, 1]).shift(-2) == PolyQ([5, 1])
    assert PolyQ().shift(3).is_zero and PolyQ().shift(-3).is_zero
    with pytest.raises(InexactDivisionError):
        PolyQ([0, 1, 1]).shift(-2)


def test_evaluate_paper_value():
    # q^4 + 3q^2 + 2q at q = 2
    assert PolyQ([0, 2, 3, 0, 1]).at(2) == 32
    assert PolyQ().at(7) == 0 and PolyQ([5]).at(-3) == 5


# ---------------------------------------------------------------------------
# rational functions


def test_rf_addition_example():
    left = RF(ONE, PolyQ([-1, 1])) + RF(ONE, PolyQ([1, 1]))
    assert left == RF(PolyQ([0, 2]), PolyQ([-1, 0, 1]))


def test_rf_reduction_example():
    assert RF(Q, PolyQ([0, -1, 1])) == RF(ONE, PolyQ([-1, 1]))
    # over n(q^n - 1), the factors of q^n - 1 that divide the numerator
    # cancel, and so does the common factor of n and the content
    assert str(RationalFunctionQ(PolyQ([2, 2]), 2)) == "(1) / (q - 1)"
    assert str(RationalFunctionQ(PolyQ([1, 1]), 2)) == "(1) / (2q - 2)"
    assert str(RationalFunctionQ(PolyQ([2, 0, 0, 0, -2]), 4)) == "(-1) / (2)"
    assert str(RationalFunctionQ(PolyQ([12, 0, 12]), 4)) == "(3) / (q^2 - 1)"
    assert str(RationalFunctionQ(PolyQ([6]), 4)) == "(3) / (2q^4 - 2)"
    assert str(RationalFunctionQ(PolyQ(), 3)) == "0"
    with pytest.raises(ValueError):
        RationalFunctionQ(ONE, 0)


def test_rf_canonical_form_is_structural():
    a = RF(PolyQ([0, 2]), PolyQ([0, 0, 2]))
    b = RF(ONE, Q)
    assert a.num == b.num and a.den == b.den
    # the integer form it prints: 1 / q
    assert (a.num, a.den) == ((1,), (0, 1))
    assert RF([Fraction(1, 2)], [0, Fraction(3, 4)]) == RF(2, [0, 3])


def test_rf_adams_examples():
    f = RF(ONE, PolyQ([-1, 1]))
    assert f.adams(2) == RF(ONE, PolyQ([-1, 0, 1]))
    assert RF(PolyQ([0, 2])).adams(3) == RF(PolyQ([0, 0, 0, 2]))
    assert f.adams(1) == f


# ---------------------------------------------------------------------------
# the weight series expanded in q (the left side of the product identities)


def test_expand_negated_geometric():
    # the X^1 coefficient is 1 / (q - 1) for every g
    for g in (1, 2, 3):
        row = checks._expand_weight_series(g, 1, 2)[1]
        assert row == [-1, -1, -1]
        assert all(type(c) is int for c in row)


def test_expand_against_schoolbook_division():
    # each X^n coefficient rebuilt from the defining quotients
    # q^(g(<lam,lam> - length)) / centralizer_order(lam), reduced by
    # rational-function arithmetic, then divided out by longdiv
    order = 12
    for g in (1, 2, 3):
        rows = checks._expand_weight_series(g, 5, order)
        for n in range(1, 6):
            total = RF(PolyQ())
            for lam in partitions_of(n):
                ip = inner_product(lam, lam)
                total = total + RF(PolyQ.q_power(g * (ip - lam.length)), centralizer_order(lam))
            expected = longdiv(total.num, total.den, order)
            assert rows[n] == expected, (g, n)
    # (q^2 + q - 1) / ((q-1)^2 (q+1)) at g = 1, n = 2
    assert checks._expand_weight_series(1, 2, 3)[2] == [-1, 0, 0, 1]


# ---------------------------------------------------------------------------
# randomized properties

polys = st.lists(st.integers(-3, 3), min_size=0, max_size=5).map(PolyQ)
nonzero_polys = polys.filter(lambda p: not p.is_zero)


def schoolbook_product(a, b):
    """The coefficients of a * b, by a plain convolution that shares no code
    with ``PolyQ.__mul__``, trailing zeros stripped."""
    out = [0] * (len(a.numerators) + len(b.numerators))
    for i, x in enumerate(a.numerators):
        for j, y in enumerate(b.numerators):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out


# zero, small and large coefficients; a saturated operand repeats one +-c,
# so that a product coefficient reaches max|a| * max|b| * min(len), the bound
# that a packed product's digit width must hold
coefficient_values = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-2**100, 2**100))
saturated = st.builds(lambda c, k: [c] * k,
                      st.one_of(st.sampled_from((2**64, -2**64)), st.integers(-2**64, 2**64)),
                      st.integers(0, 40))
operands = st.builds(PolyQ, st.one_of(st.lists(coefficient_values, max_size=40), saturated))


@settings(max_examples=300, deadline=None)
@given(operands, operands)
def test_product_equals_the_schoolbook_product(a, b):
    assert list((a * b).numerators) == schoolbook_product(a, b)
    assert b * a == a * b


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_distributivity(a, b, c):
    assert (a + b) * c == a * c + b * c


def times_q_power_minus_one(a, j):
    """The coefficients of a (q^j - 1), by a test-local shift and
    subtraction that shares no code with ``PolyQ``."""
    out = [0] * (len(a.numerators) + j)
    for i, x in enumerate(a.numerators):
        out[i + j] += x
        out[i] -= x
    return out


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-50, 50), max_size=10).map(PolyQ), st.integers(1, 8),
       st.lists(st.integers(-5, 5), max_size=8))
def test_div_q_power_minus_one_inverts_multiplication(a, j, r):
    # a (q^j - 1) + r with deg r < j: the reference's Fraction long division
    # leaves the remainder r, and the stride division returns a when r is
    # zero and raises for every nonzero r
    r = r[:j]
    t = times_q_power_minus_one(a, j)
    for i, x in enumerate(r):
        t[i] += x
    dividend = PolyQ(t)
    divisor = coefficients([-1] + [0] * (j - 1) + [1])
    assert divmod_poly(coefficients(dividend), divisor) == (coefficients(a), coefficients(r))
    if any(r):
        with pytest.raises(InexactDivisionError):
            dividend.div_q_power_minus_one(j)
    else:
        assert dividend.div_q_power_minus_one(j) == a


@settings(max_examples=60, deadline=None)
@given(nonzero_polys, nonzero_polys)
def test_gcd_divides_both(a, b):
    g = poly_gcd(coefficients(a), coefficients(b))
    for p in (a, b):
        assert divmod_poly(coefficients(p), g)[1] == ()


def quotient_reference(a, b):
    """The quotient a / b over the rationals, as Fractions, or None when it
    leaves a remainder: a test-local long division."""
    quot, rem = divmod_poly(coefficients(a), coefficients(b))
    return None if rem else quot


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-50, 50), max_size=8).map(PolyQ),
       st.integers(-12, 12).filter(bool), st.booleans(), st.booleans())
def test_exact_divisions_raise_exactly_when_the_quotient_is_not_integral(a, b, by_int, multiple):
    # a / d by an int and a.div_q_power_minus_one(j): each gives the
    # rational quotient when that is an integer polynomial, and raises
    # InexactDivisionError otherwise; half the dividends are multiples of the
    # divisor
    divisor = PolyQ([b]) if by_int else PolyQ.q_power_minus_one(abs(b))
    if multiple:
        a = a * divisor
    expected = quotient_reference(a, divisor)
    integral = expected is not None and all(c.denominator == 1 for c in expected)
    divide = (lambda: a / b) if by_int else (lambda: a.div_q_power_minus_one(abs(b)))
    if integral:
        assert coefficients(divide()) == expected
    else:
        with pytest.raises(InexactDivisionError):
            divide()


@settings(max_examples=40, deadline=None)
@given(nonzero_polys, nonzero_polys, st.integers(1, 3), st.integers(1, 3))
def test_adams_composition(num, den, d1, d2):
    f = RF(num, den)
    assert f.adams(d1).adams(d2) == f.adams(d1 * d2)


@settings(max_examples=40, deadline=None)
@given(nonzero_polys, nonzero_polys, st.integers(1, 3))
def test_adams_evaluation_compatibility(num, den, d):
    f = RF(num, den)
    q0 = 3
    try:
        expected = value_at(f, q0 ** d)
    except ZeroDivisionError:  # a pole
        return
    assert value_at(f.adams(d), q0) == expected


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-40, 40), min_size=0, max_size=5), st.integers(1, 12))
def test_coefficient_texts_match_the_fractions(nums, d):
    # a count over a denominator prints each coefficient as its Fraction does
    cp = CountingPolynomial("I", 2, 1, PolyQ(nums), d)
    assert cp.coefficient_texts == [str(Fraction(c, d)) for c in cp.value.numerators]


@settings(max_examples=80, deadline=None)
@given(polys, st.integers(1, 12), st.data())
def test_rf_over_q_power_minus_one_is_its_gcd_reduced_form(num, n, data):
    # multiplying in q^k - 1 for k | n puts every Phi_d, d | k, in the numerator
    k = data.draw(st.sampled_from([k for k in range(1, n + 1) if n % k == 0]))
    for factor in (ONE, PolyQ.q_power_minus_one(k), PolyQ([k]), PolyQ.q_power_minus_one(k) * n):
        f = RationalFunctionQ(num * factor, n)
        assert f == RF(num * factor, PolyQ.q_power_minus_one(n) * n)


@settings(max_examples=80, deadline=None)
@given(polys, nonzero_polys, st.one_of(st.integers(-3, 3).filter(bool),
                                      st.fractions(-3, 3, max_denominator=3).filter(bool),
                                      nonzero_polys))
def test_rf_canonical_form_is_the_printed_integer_pair(num, den, c):
    f = RF(num, den)
    # scaling both sides by one nonzero number or polynomial keeps the form
    if isinstance(c, PolyQ):
        scaled = RF(num * c, den * c)
    else:
        scaled = RF([x * c for x in coefficients(num)], [x * c for x in coefficients(den)])
    assert scaled == f
    assert all(type(x) is int for x in f.num + f.den)
    assert len(poly_gcd(coefficients(f.num), coefficients(f.den))) == 1
    assert gcd(*f.num, *f.den) == 1
    assert f.den[-1] > 0
    if value_at(den, 5):
        assert value_at(f, 5) == value_at(num, 5) / value_at(den, 5)
    assert str(f) == quotient_text([str(x) for x in f.num], [str(x) for x in f.den])
