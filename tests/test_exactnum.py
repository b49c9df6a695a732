import ast
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import nilorb
from nilorb import checks, poly_text, quotient_text
from nilorb.exactnum import InexactDivisionError, PolyQ, RationalFunctionQ, ratio_text
from nilorb.partitions import centralizer_order, inner_product, partitions_of
from rf_arithmetic import RF, poly, poly_gcd, value_at

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


def fractions_of(p):
    """The coefficients of p as Fractions, read off its stored numerators."""
    return [Fraction(c, p.denominator) for c in p.numerators]


# ---------------------------------------------------------------------------
# polynomials


def test_polyq_takes_its_integer_form():
    p = PolyQ([1, 2], 2)
    assert (p.numerators, p.denominator) == ((1, 2), 2)
    for bad in ([Fraction(1, 2)], [1.5]):
        with pytest.raises(TypeError):
            PolyQ(bad)
    for den in (0, -2):
        with pytest.raises(ValueError):
            PolyQ([1], den)
    # scalar operands are ints; a rational scalar is a constant PolyQ
    for bad in (Fraction(1, 2), 0.5):
        for op in (lambda: p + bad, lambda: p - bad, lambda: p * bad, lambda: bad * p,
                   lambda: p.exact_div(bad)):
            with pytest.raises(TypeError):
                op()
    assert p * PolyQ([1], 2) == PolyQ([1, 2], 4) and p + 1 == PolyQ([3, 2], 2)
    assert p != Fraction(1, 2) and PolyQ([1], 2) != Fraction(1, 2)


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


def test_product_difference_of_squares():
    assert PolyQ([-1, 1]) * PolyQ([1, 1]) == PolyQ([-1, 0, 1])


def test_gcd_example():
    # (q-1)(q+1) and q(q-1) share exactly q-1
    assert poly_gcd(PolyQ([-1, 0, 1]), PolyQ([0, -1, 1])) == PolyQ([-1, 1])


def test_exact_divide():
    assert PolyQ([0, -1, 0, 1]).exact_div(Q) == PolyQ([-1, 0, 1])


def test_exact_divide_rejects_remainder():
    with pytest.raises(InexactDivisionError):
        PolyQ([1, 1]).exact_div(Q)
    with pytest.raises(InexactDivisionError):  # q / (2q + 3): 2 does not divide 1
        PolyQ([0, 1]).exact_div(PolyQ([3, 2]))


def test_degree_and_zero_conventions():
    assert PolyQ().degree() == -1
    assert PolyQ().is_zero
    assert PolyQ([0, 0]).is_zero
    assert (PolyQ() * Q).is_zero
    assert PolyQ([1], 2).is_integral is False
    assert PolyQ([2, 3]).is_integral


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
    # the pretty printer of cached results formats the stored strings alone
    assert poly_text(["1/2", "3", "-3/4"]) == "-(3/4)q^2 + 3q + (1/2)"
    assert poly_text(["0", "-1"]) == "-q" and poly_text([]) == "0"
    assert quotient_text(["2"], ["1"]) == "2"
    assert quotient_text(["1"], ["-1", "1"]) == "(1) / (q - 1)"
    assert str(RF(ONE, PolyQ([-2, 2]))) == "(1) / (2q - 2)"


def test_equal_values_have_one_representation():
    a = PolyQ([4, 24, -6, 0], 8)
    b = poly([Fraction(1, 2), Fraction(6, 2), Fraction(-3, 4), 0])
    assert (a.numerators, a.denominator) == ((2, 12, -3), 4)
    assert a == b and hash(a) == hash(b) and str(a) == str(b)
    assert str(a) == "-(3/4)q^2 + 3q + (1/2)"
    half = PolyQ([1], 2)
    assert half + half == 1
    third = PolyQ([0, 1], 3)
    assert ((third - third).numerators, (third - third).denominator) == ((), 1)


def test_integer_scalings_and_shifts():
    p = PolyQ([2, 0, -12], 3)
    assert p * 3 == 3 * p == PolyQ([2, 0, -12]) == p * PolyQ([3])
    assert p / 4 == p * PolyQ([1], 4) == poly([Fraction(1, 6), 0, -1])
    assert p / -2 == poly([Fraction(-1, 3), 0, 2])
    assert (p * 0).is_zero and (PolyQ() / 5).is_zero
    with pytest.raises(ZeroDivisionError):
        p / 0
    with pytest.raises(TypeError):
        p / Q  # a polynomial divisor goes through exact_div
    assert p.shift(2) == p * PolyQ.q_power(2) and p.shift(0) == p
    assert PolyQ([0, 0, 5, 1]).shift(-2) == PolyQ([5, 1])
    assert PolyQ().shift(3).is_zero and PolyQ().shift(-3).is_zero
    with pytest.raises(InexactDivisionError):
        PolyQ([0, 1, 1]).shift(-2)


def test_content_and_primitive_part():
    p = poly([Fraction(2, 3), Fraction(4, 3)])
    content = Fraction(gcd(*p.numerators), p.denominator)
    assert content == Fraction(2, 3)
    assert p * PolyQ([content.denominator], content.numerator) == PolyQ([1, 2])


def test_evaluate_paper_value():
    # q^4 + 3q^2 + 2q at q = 2
    assert PolyQ([0, 2, 3, 0, 1]).numerator_at(2) == 32
    assert PolyQ([0, 2, 3, 0, 1], 4).numerator_at(2) == 32


# ---------------------------------------------------------------------------
# rational functions


def test_rf_addition_example():
    left = RF(ONE, PolyQ([-1, 1])) + RF(ONE, PolyQ([1, 1]))
    assert left == RF(PolyQ([0, 2]), PolyQ([-1, 0, 1]))


def test_rf_reduction_example():
    assert RF(Q, PolyQ([0, -1, 1])) == RF(ONE, PolyQ([-1, 1]))
    # over q^n - 1, the factors of q^n - 1 that divide the numerator cancel
    assert str(RationalFunctionQ(PolyQ([1, 1]), 2)) == "(1) / (q - 1)"
    assert str(RationalFunctionQ(PolyQ([1, 0, 0, 0, -1], 2), 4)) == "(-1) / (2)"
    assert str(RationalFunctionQ(PolyQ([3, 0, 3]), 4)) == "(3) / (q^2 - 1)"
    assert str(RationalFunctionQ(PolyQ(), 3)) == "0"
    with pytest.raises(ValueError):
        RationalFunctionQ(ONE, 0)


def test_rf_canonical_form_is_structural():
    a = RF(PolyQ([0, 2]), PolyQ([0, 0, 2]))
    b = RF(ONE, Q)
    assert a.num == b.num and a.den == b.den
    # the integer form it prints: 1 / q
    assert (a.num.numerators, a.num.denominator) == ((1,), 1)
    assert (a.den.numerators, a.den.denominator) == ((0, 1), 1)


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
            expected = longdiv(fractions_of(total.num), fractions_of(total.den), order)
            assert rows[n] == expected, (g, n)
    # (q^2 + q - 1) / ((q-1)^2 (q+1)) at g = 1, n = 2
    assert checks._expand_weight_series(1, 2, 3)[2] == [-1, 0, 0, 1]


# ---------------------------------------------------------------------------
# randomized properties

small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
polys = st.lists(small_fracs, min_size=0, max_size=5).map(poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero)


def schoolbook_product(a, b):
    """The coefficients of a * b as Fractions, by a plain convolution that
    shares no code with ``PolyQ.__mul__``, trailing zeros stripped."""
    out = [Fraction(0)] * (len(a.numerators) + len(b.numerators))
    for i, x in enumerate(fractions_of(a)):
        for j, y in enumerate(fractions_of(b)):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out


# zero, small and large coefficients; a saturated operand repeats one +-c,
# so that a product coefficient reaches max|a| * max|b| * min(len), the bound
# that a packed product's digit width must hold
coefficients = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-2**100, 2**100))
saturated = st.builds(lambda c, k: [c] * k,
                      st.one_of(st.sampled_from((2**64, -2**64)), st.integers(-2**64, 2**64)),
                      st.integers(0, 40))
operands = st.builds(PolyQ, st.one_of(st.lists(coefficients, max_size=40), saturated),
                     st.integers(1, 12))


@settings(max_examples=300, deadline=None)
@given(operands, operands)
def test_product_equals_the_schoolbook_product(a, b):
    assert fractions_of(a * b) == schoolbook_product(a, b)
    assert b * a == a * b


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_distributivity(a, b, c):
    assert (a + b) * c == a * c + b * c


@settings(max_examples=60, deadline=None)
@given(polys, nonzero_polys, nonzero_polys)
def test_exact_div_inverts_multiplication(a, b, r):
    assert (a * b).exact_div(b) == a
    if r.degree() < b.degree():  # a nonzero remainder
        with pytest.raises(InexactDivisionError):
            (a * b + r).exact_div(b)


@settings(max_examples=60, deadline=None)
@given(nonzero_polys, nonzero_polys)
def test_gcd_divides_both(a, b):
    g = poly_gcd(a, b)
    a.exact_div(g)
    b.exact_div(g)


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
@given(st.lists(small_fracs, min_size=0, max_size=5))
def test_coefficient_texts_match_the_fractions(coeffs):
    p = poly(coeffs)
    assert p.coefficient_texts == tuple(str(c) for c in fractions_of(p))
    assert all(ratio_text(c.numerator, c.denominator) == str(c) for c in coeffs)


@settings(max_examples=80, deadline=None)
@given(polys, st.integers(1, 12), st.data())
def test_rf_over_q_power_minus_one_is_its_gcd_reduced_form(num, n, data):
    # multiplying in q^k - 1 for k | n puts every Phi_d, d | k, in the numerator
    k = data.draw(st.sampled_from([k for k in range(1, n + 1) if n % k == 0]))
    for factor in (ONE, PolyQ.q_power_minus_one(k)):
        f = RationalFunctionQ(num * factor, n)
        reference = RF(num * factor, PolyQ.q_power_minus_one(n))
        assert (f.num, f.den) == (reference.num, reference.den)


@settings(max_examples=80, deadline=None)
@given(polys, nonzero_polys, st.one_of(st.integers(-3, 3).filter(bool),
                                      small_fracs.filter(bool).map(lambda c: poly([c])),
                                      nonzero_polys))
def test_rf_canonical_form_is_the_printed_integer_pair(num, den, c):
    f = RF(num, den)
    assert RF(num * c, den * c) == f
    assert f.num.denominator == 1 and f.den.denominator == 1
    assert poly_gcd(f.num, f.den).degree() == 0
    assert gcd(*f.num.numerators, *f.den.numerators) == 1
    assert f.den.numerators[-1] > 0
    if den.numerator_at(5):
        assert value_at(f, 5) == value_at(num, 5) / value_at(den, 5)
    assert str(f) == quotient_text([str(x) for x in f.num.numerators],
                                   [str(x) for x in f.den.numerators])
