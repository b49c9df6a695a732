import json
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nilorb import checks, cli, exactnum, fforacle, partitions, pipeline, poly_text
from nilorb.exactnum import InternalCheckError, PolyQ, RationalFunctionQ
from nilorb.partitions import Partition, divisors, mobius, partition_count, weight_denominator
from nilorb.series import exp_coefficients, log_coefficients
from rf_arithmetic import RF, value_at

RF_ZERO = RF(PolyQ())
ONE = PolyQ([1])
QM1 = PolyQ([-1, 1])

# the six displayed counts for pairs of nilpotent matrices, ascending coefficients
GOLDEN_PAIR_COUNTS = {
    1: [1],
    2: [0, 2],
    3: [0, 2, 3, 0, 1],
    4: [0, 2, 4, 7, 2, 4, 1, 1, 0, 1],
    5: [0, 2, 7, 14, 16, 13, 13, 8, 7, 4, 4, 2, 2, 1, 1, 0, 1],
    6: [0, 2, 8, 25, 40, 52, 48, 53, 40, 39, 29, 28, 17, 19, 11, 10,
        7, 7, 3, 4, 2, 2, 1, 1, 0, 1],
}


def inverted_log_coefficient(g, n):
    """Test-local inversion: reconstruct the log coefficient from the
    counting polynomials via H(n,q) = sum over d | n of
    (1/d) * [A(n/d) / (q - 1)] with q -> q**d."""
    total = RF_ZERO
    for d in divisors(n):
        a = pipeline.absolutely_indecomposable_count(g, n // d).value
        total = total + RF(a, QM1).adams(d) * Fraction(1, d)
    return total


def weight_series(g, order):
    """The weight series as rational functions, from its numerators over D_n."""
    return tuple(RF(p, weight_denominator(n))
                 for n, p in enumerate(pipeline.weight_series(g, order)))


# ---------------------------------------------------------------------------
# the weight series and its log


def test_weight_series_constant_and_linear_terms():
    for g in (1, 2, 3):
        series = weight_series(g, 3)
        assert len(series) == 4
        assert series[0] == RF(ONE)
        assert series[1] == RF(ONE, QM1)
        assert pipeline.weight_series(g, 1) == (ONE, ONE)


def test_weight_series_order_zero():
    assert pipeline.weight_series(2, 0) == (ONE,)


def test_weight_series_quadratic_term_at_g1():
    # sum of the two partition weights of weight 2, reduced
    term_2 = RF(ONE, QM1)
    term_11 = RF(PolyQ([0, 1]), QM1 * QM1 * PolyQ([1, 1]))
    expected = RF(PolyQ([-1, 1, 1]), QM1 * QM1 * PolyQ([1, 1]))
    assert term_2 + term_11 == expected
    assert weight_series(1, 2)[2] == expected


def test_log_coefficient_linear_term():
    for g in (1, 2, 3):
        assert pipeline.log_weight_coefficient(g, 1) == RF(ONE, QM1)


def test_log_coefficient_quadratic_term_pairs():
    # fixed by back-substituting the known count 2q through the Moebius sum
    expected = RF(PolyQ([1, 2]) * PolyQ([1, 2]), PolyQ([-2, 0, 2]))
    assert pipeline.log_weight_coefficient(2, 2) == expected


# every entry that takes a count, an order, a degree or an exponent: its
# valid arguments, the name of one integer argument and that argument's
# least value
INTEGER_ARGUMENTS = [
    (PolyQ.q_power, {"k": 2}, "k", 0),
    (PolyQ.q_power_minus_one, {"k": 2}, "k", 1),
    (PolyQ([1, 1]).div_q_power_minus_one, {"j": 2}, "j", 1),
    (PolyQ([1, 1]).adams, {"d": 2}, "d", 1),
    (mobius, {"n": 2}, "n", 1),
    (divisors, {"n": 2}, "n", 1),
    (RationalFunctionQ, {"num": ONE, "n": 2}, "n", 1),
    (partitions.partitions_of, {"n": 2}, "n", 0),
    (partitions.orbit_weight, {"lam": Partition((1,)), "g": 2}, "g", 1),
    (partitions.q_binomial, {"n": 3, "k": 2}, "k", 0),
    (partitions.q_binomial, {"n": 3, "k": 2}, "n", 2),  # n >= k
    (partitions.monic_irreducible_numerator, {"d": 2}, "d", 1),
    (pipeline.weight_series, {"g": 2, "order": 2}, "g", 1),
    (pipeline.weight_series, {"g": 2, "order": 2}, "order", 0),
    *((entry, {"g": 2, "n": 2}, name, 1) for name in ("g", "n")
      for entry in (pipeline.log_weight_coefficient, pipeline.absolutely_indecomposable_count,
                    pipeline.indecomposable_count)),
    *((entry, {"g": 2, "order": 2}, name, 1) for name in ("g", "order")
      for entry in (pipeline.orbit_count_series, checks.verify_weight_routes,
                    checks.verify_product_routes)),
    *((checks.verify_triple_product, {"g": 2, "x_order": 2, "q_order": 3}, name, 1)
      for name in ("g", "x_order", "q_order")),
    *((checks.verify_g1_product, {"x_order": 2, "q_order": 3}, name, 1)
      for name in ("x_order", "q_order")),
    (checks.scan_nonnegativity, {"g": 2, "n_max": 2}, "g", 2),
    (checks.scan_nonnegativity, {"g": 2, "n_max": 2}, "n_max", 1),
]


def integer_argument_cases():
    for entry, arguments, name, least in INTEGER_ARGUMENTS:
        for value in (True, 2.0, "2", least - 1):
            yield pytest.param(entry, {**arguments, name: value}, name,
                               ValueError if type(value) is int else TypeError,
                               id=f"{entry.__qualname__}-{name}-{value!r}")


@pytest.mark.parametrize("entry, arguments, name, error", integer_argument_cases())
def test_integer_arguments_are_refused_before_any_memo(monkeypatch, entry, arguments, name,
                                                       error):
    # a bool, a float or a str is no count, and neither is a value below
    # the bound; the refusal names the argument and comes before any memo
    monkeypatch.setattr(pipeline, "_MEMOS", {})
    with pytest.raises(error, match=f"^{name} must be "):
        entry(**arguments)
    assert pipeline._MEMOS == {}


def test_a_refused_bool_g_leaves_no_record_behind(monkeypatch):
    # True == 1 and hashes as 1, so a memo made for it would serve g = 1
    # with records labelled g=True
    monkeypatch.setattr(pipeline, "_MEMOS", {})
    with pytest.raises(TypeError, match="^g must be an int, got bool$"):
        pipeline.absolutely_indecomposable_count(True, 2)
    assert str(pipeline.absolutely_indecomposable_count(1, 2)) == "A_1(2,q) = 1"


def test_building_h_renders_no_polynomial(monkeypatch):
    # RationalFunctionQ tries each cyclotomic factor by exact divisions that
    # mostly fail; a failed division names its divisor alone, so the search
    # renders no dividend through poly_text
    calls = []
    monkeypatch.setattr(exactnum, "poly_text", lambda texts: calls.append(texts) or poly_text(texts))
    monkeypatch.setattr(pipeline, "_MEMOS", {})
    for n in range(1, 13):
        pipeline.log_weight_coefficient(5, n)
    assert calls == []


H_SIZES = [(g, n) for g in range(1, 6) for n in range(1, 13)]


def log_denominator(n):
    """n(q^n - 1), as a coefficient list of the reference arithmetic."""
    return [-n] + [0] * (n - 1) + [n]


def test_log_coefficient_is_its_gcd_reduced_form():
    for g, n in H_SIZES:
        h = pipeline.log_weight_coefficient(g, n)
        assert h == RF(pipeline._log_numerators(g, n)[n], log_denominator(n)), (g, n)


def cancellation_mismatches() -> list:
    """The (g, n) in H_SIZES at which H's numerator times q^n - 1, over
    q^n - 1, reduces otherwise than by the reference arithmetic's gcd.

    No factor of q^n - 1 divides the numerator of any H at these sizes (nor
    up to n = 20), so reducing H itself cancels nothing; with q^n - 1
    multiplied in, every factor cancels."""
    out = []
    for g, n in H_SIZES:
        num = pipeline._log_numerators(g, n)[n] * PolyQ.q_power_minus_one(n)
        if RationalFunctionQ(num, n) != RF(num, log_denominator(n)):
            out.append((g, n))
    return out


def test_h_numerators_times_q_power_minus_one_cancel_every_factor():
    assert cancellation_mismatches() == []


def test_h_reference_catches_a_skipped_cyclotomic_factor(monkeypatch):
    # the trial of Phi_2 always fails, so Phi_2 = q + 1 is never cancelled
    trial = exactnum._over_cyclotomic
    monkeypatch.setattr(exactnum, "_over_cyclotomic", lambda p, d: None if d == 2 else trial(p, d))
    assert cancellation_mismatches() == [(g, n) for g, n in H_SIZES if n % 2 == 0]


def test_exp_of_log_reproduces_weight_series():
    for g in (1, 2):
        logs = log_coefficients(pipeline.weight_series(g, 5))
        h = (RF_ZERO,) + tuple(RF(c, log_denominator(n)) for n, c in enumerate(logs) if n)
        assert h[1:] == tuple(pipeline.log_weight_coefficient(g, n) for n in range(1, 6))
        # exp takes n h_n, the numerator K_n over q^n - 1
        j = (RF_ZERO,) + tuple(RF(c, PolyQ.q_power_minus_one(n)) for n, c in enumerate(logs) if n)
        assert exp_coefficients(j) == weight_series(g, 5)


# ---------------------------------------------------------------------------
# counting polynomials


def test_pair_counts_match_golden_table():
    for n, coeffs in GOLDEN_PAIR_COUNTS.items():
        got = pipeline.absolutely_indecomposable_count(2, n)
        assert list(got.coefficient_list) == coeffs, f"n={n}"


def test_single_matrix_counts_are_one():
    for n in range(1, 11):
        assert pipeline.absolutely_indecomposable_count(1, n).value == ONE


def has_expected_shape(g: int, n: int, a: PolyQ, m: PolyQ) -> bool:
    """True when A = a and M = m at (g, n) have the degree g(n^2 - n) -
    (n^2 - 1), or 0 if that is negative, which is g times the dimension
    n^2 - n of the nilpotent cone minus dim PGL_n = n^2 - 1, and A has the
    leading coefficient 1, or 2 at A_2(2,q) = 2q."""
    degree = max(g * (n * n - n) - (n * n - 1), 0)
    lead = 2 if (g, n) == (2, 2) else 1
    return a.degree() == m.degree() == degree and a.numerators[-1] == lead


def test_counts_are_integral_with_bounded_degree():
    # deg A <= (g - 1) n^2 is a hard assertion of the engine.  The exact
    # degree of A and M and A's leading coefficient are tested facts: no
    # written proof covers every (g, n)
    for g in range(1, 6):
        orders = range(1, 13 if g <= 3 else 10)
        orbits = pipeline.orbit_count_series(g, orders[-1])
        for n in orders:
            cp = pipeline.absolutely_indecomposable_count(g, n)
            assert cp.denominator == orbits[n - 1].denominator == 1
            assert cp.value.degree() <= (g - 1) * n * n
            assert has_expected_shape(g, n, cp.value, orbits[n - 1].value), (g, n)


def test_expected_shape_negative_control():
    # one degree too many in A and M, a leading coefficient of 2 in A away
    # from (2, 2), and 1 at (2, 2), each fail the shape the counts have
    for g, n in ((2, 2), (2, 3), (3, 2), (4, 3)):
        a = pipeline.absolutely_indecomposable_count(g, n).value
        m = pipeline.orbit_count(g, n).value
        assert has_expected_shape(g, n, a, m), (g, n)
        higher = PolyQ.q_power(a.degree() + 1)
        assert not has_expected_shape(g, n, a + higher, m + higher), (g, n)
        lead = PolyQ.q_power(a.degree())
        wrong_lead = a - lead if (g, n) == (2, 2) else a + lead
        assert not has_expected_shape(g, n, wrong_lead, m), (g, n)


def test_moebius_inversion_round_trip():
    for g in (1, 2, 3):
        for n in range(1, 7):
            assert pipeline.log_weight_coefficient(g, n) == inverted_log_coefficient(g, n)


def test_indecomposable_counts():
    assert pipeline.indecomposable_count(2, 1).value == ONE
    assert pipeline.indecomposable_count(2, 2).value == PolyQ([0, 2])
    assert pipeline.indecomposable_count(2, 3).value == PolyQ([0, 2, 3, 0, 1])
    for n in range(1, 9):
        assert pipeline.indecomposable_count(1, n).value == ONE


def test_orbit_counts_for_pairs():
    counts = pipeline.orbit_count_series(2, 3)
    assert counts[0].value == ONE
    assert counts[1].value == PolyQ([1, 2])
    assert counts[2].value == PolyQ([1, 4, 3, 0, 1])


def test_orbit_counts_single_matrix_are_partition_numbers():
    for cp in pipeline.orbit_count_series(1, 8):
        assert cp.value == PolyQ([partition_count(cp.n)])


def test_counts_nested_at_prime_powers():
    for g in (1, 2, 3):
        for n in range(1, 5):
            a = pipeline.absolutely_indecomposable_count(g, n)
            i = pipeline.indecomposable_count(g, n)
            m = pipeline.orbit_count(g, n)
            for q in (2, 3, 4):
                va, vi, vm = (value_at(cp, q) for cp in (a, i, m))
                for v in (va, vi, vm):
                    assert v.denominator == 1 and v > 0
                assert va <= vi <= vm


def test_counting_value_dispatch():
    assert pipeline.counting_value("A", 2, 3).value == PolyQ([0, 2, 3, 0, 1])
    assert pipeline.counting_value("I", 2, 2).value == PolyQ([0, 2])
    assert pipeline.counting_value("M", 2, 2).value == PolyQ([1, 2])
    # an H value is a rational function, reached only through its log coefficient
    assert pipeline.log_weight_coefficient(2, 1) == RF(ONE, QM1)
    for kind in ("H", "Z"):
        with pytest.raises(ValueError, match=f"no counting polynomial of kind '{kind}'"):
            pipeline.counting_value(kind, 2, 2)
        # nor can one be built around an H value
        with pytest.raises(ValueError, match=f"no counting polynomial of kind '{kind}'"):
            pipeline.CountingPolynomial(kind, 2, 1, pipeline.log_weight_coefficient(2, 1))


def test_coefficient_list_rejects_rational_coefficients():
    assert pipeline.absolutely_indecomposable_count(2, 3).coefficient_list == (0, 2, 3, 0, 1)
    rational = pipeline.indecomposable_count(2, 6)  # has 1/3, 15/2, 77/3 and 81/2
    with pytest.raises(ValueError, match="non-integral"):
        rational.coefficient_list
    # its numerator over 6, reduced: the texts are the Fractions' own
    assert rational.denominator == 6
    texts = [str(Fraction(c, 6)) for c in rational.value.numerators]
    assert rational.coefficient_texts == texts
    assert {"1/3", "15/2", "77/3", "81/2"} <= set(texts)


def test_counting_polynomial_str():
    assert str(pipeline.absolutely_indecomposable_count(2, 3)) == "A_2(3,q) = q^4 + 3q^2 + 2q"


# ---------------------------------------------------------------------------
# identity verification


def test_product_routes_agree():
    for g in (1, 2, 3):
        report = checks.verify_product_routes(g, 4)
        assert report.passed
        assert report.identity == "thm5-routes"
        assert report.mismatch is None


def test_product_routes_report_a_mismatch_in_reduced_form(monkeypatch):
    # coefficient n of the product route is a numerator over q^n - 1; off
    # by q^2 - 1 at X^4, its reduced form cancels the factors q - 1 and q + 1
    route = pipeline._log_orbit_product_coefficient

    def perturbed(g, n):
        return route(g, n) + (PolyQ.q_power_minus_one(2) * n if n == 4 else PolyQ())

    monkeypatch.setattr(pipeline, "_log_orbit_product_coefficient", perturbed)
    mismatch = checks.verify_product_routes(2, 5).mismatch
    reduced = RF(perturbed(2, 4), log_denominator(4))
    assert reduced.den == (4, 0, 4)
    # the component route's side is 4 times its coefficient, printed over 4
    component = pipeline._log_orbit_component_coefficient(2, 4)
    assert mismatch == pipeline.Mismatch(
        4, None, str(reduced), poly_text([str(Fraction(c, 4)) for c in component.numerators]))


def test_triple_product_identity_passes():
    report = checks.verify_triple_product(2, 3, 12)
    assert report.passed


def test_triple_product_negative_control():
    report = checks.verify_triple_product(2, 3, 12, perturb=(2, 1, 1))
    assert not report.passed
    assert report.mismatch is not None
    assert report.mismatch.x_degree == 2
    assert report.mismatch.q_degree is not None


def test_triple_product_perturbation_at_the_window_edge_fails():
    report = checks.verify_triple_product(2, 3, 6, perturb=(2, 6, 1))
    assert not report.passed
    assert (report.mismatch.x_degree, report.mismatch.q_degree) == (2, 6)


@pytest.mark.parametrize("perturb", [(2, 7, 1), (2, 1, 0), (4, 1, 1), (0, 1, 1), (2, -1, 1)])
def test_triple_product_rejects_perturbations_outside_the_window(perturb):
    # (2, 7, 1) lies past q^6 and (2, 1, 0) changes no exponent, so neither
    # could make the control fail
    with pytest.raises(ValueError, match="outside the verified window"):
        checks.verify_triple_product(2, 3, 6, perturb=perturb)


def test_triple_product_at_g1_equals_plain_product():
    assert checks.verify_triple_product(1, 4, 10).passed
    assert checks.verify_g1_product(4, 10).passed


@pytest.mark.parametrize("a", [-3, -2, -1, 0, 1, 2, 3])
@pytest.mark.parametrize("n, c", [(2, 1), (3, 0), (1, 3)])
def test_bi_mul_power_equals_repeated_factor(a, n, c):
    rows = checks._expand_weight_series(2, 7, 9)
    # reference on separate coefficient lists: |a| steps of multiplying by
    # (1 - q^c X^n), or of dividing by it for a < 0
    expected = [list(row) for row in rows]
    for _ in range(abs(a)):
        prev = [list(r) for r in expected]
        for m in range(n, len(expected)):
            for k in range(c, len(expected[m])):
                if a > 0:
                    expected[m][k] = prev[m][k] - prev[m - n][k - c]
                else:
                    expected[m][k] = prev[m][k] + expected[m - n][k - c]
    assert checks._bi_mul_power(rows, n, c, a) is None
    assert rows == expected
    assert all(type(x) is int for row in rows for x in row)


def test_bi_mul_power_reads_each_row_before_it_changes():
    # (1 - X)^2 = 1 - 2X + X^2: row m gains rows m-1 and m-2 as they were
    # before the multiplication; read after their own update, rows 2 and 3
    # would come out as 5 and -12
    rows = [[1, 0], [0, 0], [0, 0], [0, 0]]
    checks._bi_mul_power(rows, 1, 0, 2)
    assert rows == [[1, 0], [-2, 0], [1, 0], [0, 0]]
    # (1 - q X)^-1 = sum of q^m X^m, truncated at q^2
    rows = [[1, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]]
    checks._bi_mul_power(rows, 1, 1, -1)
    assert rows == [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]]


def _product_rows_per_factor(tables, x_order, q_order):
    # the reference: one binomial pass per (n, s, i), as before the
    # exponents of one (n, s + i) were merged
    rows = [[0] * (q_order + 1) for _ in range(x_order + 1)]
    rows[0][0] = 1
    for n in range(1, x_order + 1):
        for s, a in enumerate(tables[n]):
            if a == 0 or s > q_order:
                continue
            for i in range(q_order - s + 1):
                checks._bi_mul_power(rows, n, s + i, a)
    return rows


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.integers(1, 12), st.data())
def test_product_rows_equal_the_per_factor_product(x_order, q_order, data):
    # tables with negative entries, zeros and entries past q^q_order
    tables = {n: data.draw(st.lists(st.integers(-4, 4), max_size=q_order + 4), label=f"a({n})")
              for n in range(1, x_order + 1)}
    assert checks._product_rows(tables, x_order, q_order) \
        == _product_rows_per_factor(tables, x_order, q_order)


def test_product_rows_take_one_pass_per_n_and_q_degree(monkeypatch):
    calls = []
    bi_mul_power = checks._bi_mul_power
    monkeypatch.setattr(checks, "_bi_mul_power",
                        lambda *args: calls.append(args[1:]) or bi_mul_power(*args))
    assert checks.verify_triple_product(2, 6, 24).passed
    # one pass per (n, c) with a nonzero merged exponent; one per (n, s, i)
    # made 833
    passes = [(n, c) for n, c, _ in calls]
    assert len(passes) <= 6 * (24 + 1)
    assert len(set(passes)) == len(passes)


def test_g1_product_control_fails_on_a_corrupted_weight_series(monkeypatch, capsys):
    # a fresh memo for g = 1 (restored after the test) whose X^3 numerator
    # gains q^5: over D_3, with D_3(0) = -1, the expanded row changes by -1
    # at q^5 first, so both verifiers must name (X^3, q^5)
    monkeypatch.setattr(pipeline, "_MEMOS", {})
    weights = list(pipeline.weight_series(1, 6))
    weights[3] = weights[3] + PolyQ.q_power(5)
    pipeline._memo(1).weights = tuple(weights)
    report = checks.verify_g1_product(6, 12)
    assert not report.passed
    m = report.mismatch
    assert (m.x_degree, m.q_degree) == (3, 5)
    assert int(m.lhs) - int(m.rhs) == -1
    assert cli.main(["verify", "g1-product", "--N", "6", "--Q", "12"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("g1-product (g=1, N=6, Q=12): FAIL  first mismatch at X^3, q^5: ")


def test_records_are_immutable_values():
    mismatch = pipeline.Mismatch(2, 1, "3", "4")
    report = checks.VerificationReport("kwi", 2, 3, 12, mismatch)
    same = checks.VerificationReport(identity="kwi", g=2, x_order=3, q_order=12,
                                     mismatch=pipeline.Mismatch(2, 1, "3", "4"))
    assert report == same and hash(report) == hash(same)
    assert report != checks.VerificationReport("kwi", 2, 3, 13, mismatch)
    # passed is read off the mismatch, so no report can fail without one
    assert not report.passed and checks.VerificationReport("kwi", 2, 3, 12, None).passed
    assert mismatch != (2, 1, "3", "4")
    assert repr(mismatch) == "Mismatch(x_degree=2, q_degree=1, lhs='3', rhs='4')"
    cp = pipeline.CountingPolynomial("A", 2, 3, PolyQ([0, 2, 3, 0, 1]))
    assert cp == pipeline.absolutely_indecomposable_count(2, 3)
    scan = checks.ScanReport(2, 1, (), (cp,))
    lam = Partition((2, 1))
    assert repr(lam) == "Partition(2, 1)"
    assert lam == Partition([2, 1]) and hash(lam) == hash(Partition([2, 1]))
    zero = ((0, 0), (0, 0))
    orbit = fforacle.OrbitRecord((zero,), 1, 4, None)
    same_orbit = fforacle.OrbitRecord(representative=(zero,), size=1, endo_dim=4,
                                      residue_size=None)
    assert orbit == same_orbit and hash(orbit) == hash(same_orbit)
    # local is read off the residue size, so neither can contradict the other
    assert not orbit.local and fforacle.OrbitRecord((zero,), 1, 4, 2).local
    # so are the engine's numbers and the oracle's finite fields
    h = pipeline.log_weight_coefficient(2, 3)
    for record, field in ((mismatch, "lhs"), (report, "mismatch"), (cp, "value"), (scan, "g"),
                          (lam, "parts"), (orbit, "residue_size"), (cp.value, "numerators"),
                          (h, "num"), (fforacle.FieldSpec.of(9), "q")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert pickle.loads(pickle.dumps(record)) == record
    with pytest.raises(ValueError, match="no counting polynomial of kind 'Z'"):
        pipeline.CountingPolynomial("Z", 2, 3, ONE)
    # a record takes its fields by position or by name, each exactly once
    for args, named in (((2, 1, "3"), {}), ((2, 1, "3"), {"side": "4"}),
                        ((2, 1, "3"), {"lhs": "4"})):
        with pytest.raises(TypeError, match="Mismatch takes the fields x_degree, q_degree, lhs, rhs"):
            pipeline.Mismatch(*args, **named)
    assert pipeline.Mismatch(2, 1, rhs="4", lhs="3") == mismatch


def test_shared_values_refuse_assignment(run_fresh):
    # A(2, 3) is held by the memo and weight_denominator(1) by a cache that
    # every g shares, and GF(2) keys the oracle's caches: an assignment to
    # any of them that went through would change what later calls compute
    out = run_fresh("""
import json
from nilorb import fforacle, partitions, pipeline
from nilorb.exactnum import PolyQ
field = fforacle.FieldSpec.of(2)
refused = []
for value, name, new in ((pipeline.absolutely_indecomposable_count(2, 3).value, "numerators", (0,)),
                         (partitions.weight_denominator(1), "numerators", (0, 1)),
                         (pipeline.log_weight_coefficient(2, 3), "den", PolyQ([1])),
                         (field, "q", 3)):
    try:
        setattr(value, name, new)
    except AttributeError:
        refused.append(name)
print(json.dumps([refused, str(pipeline.absolutely_indecomposable_count(2, 3)),
                  str(pipeline.absolutely_indecomposable_count(3, 2)), repr(field)]))
""")
    assert json.loads(out) == [
        ["numerators", "numerators", "den", "q"],
        "A_2(3,q) = q^4 + 3q^2 + 2q", "A_3(2,q) = q^3 + q^2 + q", "FieldSpec(q=2)"]


def test_positivity_check_on_integer_values():
    def check(kind, g, n, value, denominator=1):
        pipeline._check_prime_power_positivity(
            pipeline.CountingPolynomial(kind, g, n, value, denominator))

    check("M", 2, 2, PolyQ([1, 2]))
    pipeline._check_prime_power_positivity(pipeline.indecomposable_count(2, 6))  # rational
    # (q^2 + q) / 2 is an integer at every q, q / 2 is not at q = 3
    check("I", 2, 1, PolyQ([0, 1, 1]), 2)
    with pytest.raises(InternalCheckError, match=r"evaluates to 3/2 at q=3; expected a positive"):
        check("I", 2, 1, PolyQ([0, 1]), 2)
    with pytest.raises(InternalCheckError, match="M at g=2, n=2 evaluates to 0 at q=2"):
        check("M", 2, 2, PolyQ([-2, 1]))
    with pytest.raises(InternalCheckError, match="evaluates to -1 at q=2"):
        check("M", 2, 2, PolyQ([1, -1]))
    with pytest.raises(InternalCheckError, match="evaluates to 0 at q=2"):
        check("M", 2, 2, PolyQ())


# ---------------------------------------------------------------------------
# nonnegativity scan


def test_scan_is_clean_for_pairs_up_to_six():
    report = checks.scan_nonnegativity(2, 6)
    assert report.all_nonnegative
    assert report.negative_terms == ()
    assert len(report.polynomials) == 6


def test_scan_runs_for_triples():
    report = checks.scan_nonnegativity(3, 3)
    assert len(report.polynomials) == 3


def test_scan_rejects_single_matrices():
    with pytest.raises(ValueError):
        checks.scan_nonnegativity(1, 4)


# ---------------------------------------------------------------------------
# the per-g memo, observed in fresh interpreters (empty memos)


@pytest.fixture
def run_fresh(nilorb_env):
    """Run code in a new interpreter and return the last line it prints."""
    def run(code: str) -> str:
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=nilorb_env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1]
    return run


def test_compute_weighs_each_partition_once(run_fresh):
    # the partition route is the per-run check: it weighs each partition of
    # n once, and only for n up to the cutoff
    out = run_fresh("""
import json
from nilorb import cli, pipeline
calls = []
weigh = pipeline.orbit_weight
pipeline.orbit_weight = lambda lam, g: calls.append(lam.parts) or weigh(lam, g)
assert cli.main(["compute", "--kind", "A", "--g", "2", "--N", "9", "--no-cache"]) == 0
print(json.dumps([pipeline._WEIGHT_CHECK_ORDER, calls]))
""")
    cutoff, calls = json.loads(out)
    assert cutoff == 6
    assert len(calls) == len({tuple(c) for c in calls})
    assert len(calls) == sum(partition_count(n) for n in range(1, cutoff + 1)) == 29
    assert max(sum(c) for c in calls) == cutoff


def test_compute_builds_each_column_cell_once(run_fresh):
    # A for n = 1..9 extends the weight series one order at a time, and each
    # extension adds rows to the memoised table instead of rebuilding it
    out = run_fresh("""
import json
from nilorb import cli, pipeline
cells = []
cell = pipeline.column_sum
pipeline.column_sum = lambda g, rows, s, c: cells.append((g, s, c)) or cell(g, rows, s, c)
assert cli.main(["compute", "--kind", "A", "--g", "2", "--N", "9", "--no-cache"]) == 0
print(json.dumps(cells))
""")
    cells = [tuple(c) for c in json.loads(out)]
    assert sorted(cells) == [(2, s, c) for s in range(1, 10) for c in range(1, s + 1)]


TESTS = str(Path(__file__).resolve().parent)


def chain_record_changes(setup: str = "") -> str:
    """Code that runs ``setup`` and prints, as JSON, the rows and fields
    that ``record_chain.changes`` finds moved."""
    return f"""
import json, sys
sys.path.insert(0, {TESTS!r})
import record_chain
from nilorb import pipeline
from nilorb.exactnum import PolyQ
{setup}
print(json.dumps(record_chain.changes()))
"""


def test_chain_matches_its_committed_record(run_fresh):
    # every payload byte for byte, and every count of polynomial products,
    # a count of work with no noise in it
    moved = json.loads(run_fresh(chain_record_changes()))
    assert moved == {}, "\n".join(f"{row}: {field} {old} -> {new}"
                                   for row, fields in moved.items()
                                   for field, (old, new) in fields.items())


def test_chain_record_negative_control(run_fresh):
    # a wrong degree in the A_7(3) payload moves only that row's digest, and
    # a product by 1 after each coefficient of log M moves only the M rows'
    # counts, since it changes no output
    out = run_fresh(chain_record_changes("""
payload = pipeline.CountingPolynomial.payload
def wrong_payload(cp):
    out = payload(cp)
    if (cp.kind, cp.g, cp.n) == ("A", 7, 3):
        out["degree"] += 1
    return out
pipeline.CountingPolynomial.payload = wrong_payload
orbit_log = pipeline._orbit_log
pipeline._orbit_log = lambda g, n: orbit_log(g, n) * PolyQ([1])
"""))
    moved = {row: sorted(fields) for row, fields in json.loads(out).items()}
    m_rows = ["M g=1 N=14", "M g=2 N=24", "M g=3 N=20", "M g=4 N=12", "M g=5 N=16",
              "M g=7 N=8", "M g=2 N=9", "M g=3 N=7", "M g=3 N=22"]
    assert moved == {"A g=7 N=8": ["sha256"],
                     **{row: ["coefficient_products", "products"] for row in m_rows}}


def test_chain_record_holds_the_cold_chain_workload():
    # the record's count rows stand for the benchmark's cold-chain requests:
    # each request of that workload, in order, is a session of its own
    import record_chain
    workloads = json.loads((Path(TESTS).parent / "perfbench" / "workloads.json").read_text())
    [cold] = [w for w in workloads["workloads"] if w["name"] == "cold-chain"]
    requests = []
    for request in cold["requests"]:
        args = request["args"]
        mode = next(flag[2:] for flag in ("--N", "--n") if flag in args)
        value = int(args[args.index(f"--{mode}") + 1])
        assert "--no-cache" in args
        requests.append((args[args.index("--kind") + 1], int(args[args.index("--g") + 1]),
                         mode, value))
    singles = [session[0] for session in record_chain.SESSIONS if len(session) == 1]
    assert singles == [*requests, ("M", 3, "N", 22)]


def test_weight_routes_agree():
    for g in (1, 2, 3):
        report = checks.verify_weight_routes(g, 8)
        assert report.passed and report.mismatch is None
        assert (report.identity, report.g, report.x_order, report.q_order) == (
            "weight-routes", g, 8, None)
    with pytest.raises(ValueError):
        checks.verify_weight_routes(2, 0)


@pytest.mark.parametrize("parts, s, within_cutoff", [((2, 1), 5, True), ((3, 2, 2, 1), 11, False)])
def test_weight_routes_negative_control(run_fresh, parts, s, within_cutoff):
    # q^s more in one partition's weight numerator reaches only the partition
    # route: verify weight-routes names (X^n, q^s), and compute exits 3 when
    # n is within the per-run cutoff and is not checked beyond it
    n = sum(parts)
    out = run_fresh(f"""
import contextlib, io, json
from nilorb import cli, pipeline
from nilorb.exactnum import PolyQ
weigh = pipeline.orbit_weight
def corrupted(lam, g):
    w = weigh(lam, g)
    return w + PolyQ.q_power({s}) if lam.parts == {parts!r} else w
pipeline.orbit_weight = corrupted
stdout, stderr = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
    verify = cli.main(["verify", "weight-routes", "--g", "2", "--N", "{n + 1}"])
    compute = cli.main(["compute", "--kind", "A", "--g", "2", "--n", "{n}", "--no-cache"])
print(json.dumps([verify, compute, stdout.getvalue(), stderr.getvalue()]))
""")
    verify, compute, stdout, stderr = json.loads(out)
    assert verify == 1
    assert stdout.startswith(f"weight-routes (g=2, N={n + 1}): FAIL  first mismatch at X^{n}, q^{s}: ")
    if within_cutoff:
        assert compute == 3
        assert f"weight routes disagree at g=2, X^{n}, q^{s}" in stderr
    else:
        assert compute == 0 and stderr == ""


def test_shorter_orbit_count_reuses_the_longer_series(run_fresh):
    out = run_fresh("""
from nilorb import pipeline
series = pipeline.orbit_count_series(2, 6)
def refuse(g, n):
    raise AssertionError("an M route was built again")
pipeline._log_orbit_product_coefficient = refuse
pipeline._log_orbit_component_coefficient = refuse
assert pipeline.orbit_count(2, 4) == series[3]
assert pipeline.orbit_count_series(2, 5) == series[:5]
print("ok")
""")
    assert out == "ok"


def test_a_longer_orbit_count_extends_the_shorter_series(run_fresh):
    # M to X^9 after M to X^6 builds each route coefficient of X^7..X^9 once,
    # and the exp takes up at X^7
    out = run_fresh("""
import json
from nilorb import pipeline
built = {"product": [], "component": [], "exp": []}
def counted(name, route):
    def call(g, n):
        built[name].append(n)
        return route(g, n)
    return call
pipeline._log_orbit_product_coefficient = counted(
    "product", pipeline._log_orbit_product_coefficient)
pipeline._log_orbit_component_coefficient = counted(
    "component", pipeline._log_orbit_component_coefficient)
exp = pipeline.exp_coefficients
def exp_counted(h, known=()):
    built["exp"].extend(range(max(len(known), 1), len(h)))
    return exp(h, known)
pipeline.exp_coefficients = exp_counted
short = pipeline.orbit_count_series(2, 6)
first = {name: list(ns) for name, ns in built.items()}
for ns in built.values():
    ns.clear()
assert pipeline.orbit_count_series(2, 9)[:6] == short
print(json.dumps([first, built]))
""")
    first, second = json.loads(out)
    assert first == {name: list(range(1, 7)) for name in ("product", "component", "exp")}
    assert second == {name: [7, 8, 9] for name in ("product", "component", "exp")}


def test_orbit_count_routes_negative_control(run_fresh):
    # a wrong I(2, 3) reaches only the component route, first at X^3
    out = run_fresh("""
from nilorb import checks, pipeline
from nilorb.exactnum import InternalCheckError, PolyQ, RationalFunctionQ
count = pipeline.indecomposable_count
def corrupted(g, n):
    cp = count(g, n)
    if n != 3:
        return cp
    return pipeline.CountingPolynomial("I", g, n, cp.value + PolyQ([0, 1]))
pipeline.indecomposable_count = corrupted
report = checks.verify_product_routes(2, 5)
assert not report.passed and report.mismatch.q_degree is None
try:
    pipeline.orbit_count_series(2, 5)
except InternalCheckError as exc:
    assert "X^3" in str(exc), exc
else:
    raise AssertionError("the M cross-check let a wrong I through")
print(report.mismatch.x_degree)
""")
    assert out == "3"


def test_log_denominator_negative_control(run_fresh):
    # one more 1 / D_3 in the X^3 coefficient of the weight series, or one
    # more q in the log's lower numerator K_2, which enters the X^3 sum
    # part-way through its divisions, gives the X^3 log a denominator that
    # does not divide 3(q^3 - 1); each is put into the memo, behind the
    # per-run check of the two weight routes
    for field, n, corruption in (("weights", 3, "1"), ("logs", 2, "PolyQ.q_power(1)")):
        out = run_fresh(f"""
import contextlib, io
from nilorb import cli, pipeline
from nilorb.exactnum import InternalCheckError, PolyQ
pipeline.weight_series(2, 3), pipeline._log_numerators(2, 2)
entries = list(pipeline._memo(2).{field})
entries[{n}] = entries[{n}] + {corruption}
pipeline._memo(2).{field} = tuple(entries)
try:
    pipeline.log_weight_coefficient(2, 3)
except InternalCheckError as exc:
    assert "g=2" in str(exc) and "X^3" in str(exc), exc
else:
    raise AssertionError("the log accepted a denominator beyond q^3 - 1")
with contextlib.redirect_stderr(io.StringIO()):
    print(cli.main(["verify", "kwi", "--g", "2", "--N", "3", "--Q", "12"]))
""")
        assert out == "3", field


@pytest.mark.parametrize("corruption, message", [
    ("1", "non-polynomial result for A at g=2, n=3"),
    ("PolyQ([1, 1, 1])", "non-integral coefficients for A at g=2, n=3"),
    ("PolyQ.q_power(40) * PolyQ.q_power_minus_one(3)",
     "degree bound exceeded for A at g=2, n=3: 41 > 9"),
])
def test_a_assertions_negative_control(run_fresh, corruption, message):
    # one corrupted X^3 log numerator K_3, put into the memo: its transported
    # sum is no longer divisible by 1 + q + q^2, or its quotient by
    # 1 + q + q^2 gains 1, which 3 does not divide, or q^40 (q - 1), and
    # each breaks one of A's hard assertions
    out = run_fresh(f"""
import contextlib, io, json
from nilorb import cli, pipeline
from nilorb.exactnum import InternalCheckError, PolyQ
logs = list(pipeline._log_numerators(2, 3))
logs[3] = logs[3] + {corruption}
pipeline._memo(2).logs = tuple(logs)
try:
    pipeline.absolutely_indecomposable_count(2, 3)
except InternalCheckError as exc:
    raised = str(exc)
else:
    raised = None
stdout, stderr = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
    code = cli.main(["compute", "--kind", "A", "--g", "2", "--n", "3", "--no-cache"])
print(json.dumps([raised, code, stdout.getvalue(), stderr.getvalue()]))
""")
    raised, code, stdout, stderr = json.loads(out)
    assert raised == message
    assert code == 3 and stdout == "" and message in stderr


def test_m_division_negative_control(run_fresh):
    # one more 1 in n log M at X^2, put into the memo past both routes: the
    # exp's X^2 coefficient gains 1/2, which its exact division by 2 refuses
    out = run_fresh("""
import contextlib, io, json
from nilorb import cli, pipeline
pipeline.orbit_count_series(2, 1)
memo = pipeline._memo(2)
logs = memo.grown("orbit_logs", 3, lambda m, _: pipeline._orbit_log(2, m))
memo.orbit_logs = logs[:2] + (logs[2] + 1,)
stdout, stderr = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
    code = cli.main(["compute", "--kind", "M", "--g", "2", "--n", "2", "--no-cache"])
print(json.dumps([code, stdout.getvalue(), stderr.getvalue()]))
""")
    assert json.loads(out) == [3, "", "nilorb: internal assertion failed: "
                                      "non-integral coefficients for M at g=2, n=2\n"]


def test_i_value_negative_control(run_fresh):
    # A(2, 2) = 2q less q^2, put into the memo: I(2, 2), its numerator over 2
    # reduced, carries it and is 0 at q = 2, which I's check refuses
    out = run_fresh("""
import contextlib, io, json
from nilorb import cli, pipeline
from nilorb.exactnum import PolyQ
counts = [pipeline.absolutely_indecomposable_count(2, n) for n in (1, 2)]
counts[1] = pipeline.CountingPolynomial("A", 2, 2, counts[1].value - PolyQ.q_power(2))
pipeline._memo(2).a_counts = tuple(counts)
stdout, stderr = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
    code = cli.main(["compute", "--kind", "I", "--g", "2", "--n", "2", "--no-cache"])
print(json.dumps([code, stdout.getvalue(), stderr.getvalue()]))
""")
    assert json.loads(out) == [3, "", "nilorb: internal assertion failed: I at g=2, n=2 "
                                      "evaluates to 0 at q=2; expected a positive integer\n"]


def test_a_prefix_negative_control(run_fresh):
    # q more in A(2, 3), put into the memo's prefix of A: I(2, 3) carries it,
    # so the component route to log M departs from the product route at X^3
    out = run_fresh("""
import contextlib, io, json
from nilorb import cli, pipeline
from nilorb.exactnum import InternalCheckError, PolyQ
counts = [pipeline.absolutely_indecomposable_count(2, n) for n in (1, 2, 3)]
counts[2] = pipeline.CountingPolynomial("A", 2, 3, counts[2].value + PolyQ([0, 1]))
pipeline._memo(2).a_counts = tuple(counts)
carried = str(pipeline.indecomposable_count(2, 3).value)
try:
    pipeline.orbit_count_series(2, 5)
except InternalCheckError as exc:
    raised = str(exc)
else:
    raised = None
stdout, stderr = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
    verify = cli.main(["verify", "thm5-routes", "--g", "2", "--N", "5"])
    compute = cli.main(["compute", "--kind", "M", "--g", "2", "--N", "5", "--no-cache"])
print(json.dumps([carried, raised, verify, compute, stdout.getvalue(), stderr.getvalue()]))
""")
    carried, raised, verify, compute, stdout, stderr = json.loads(out)
    assert carried == str(pipeline.indecomposable_count(2, 3).value + PolyQ([0, 1])) == (
        "q^4 + 3q^2 + 3q")
    assert raised.startswith("orbit-count routes disagree at g=2, X^3: ")
    assert verify == 1
    assert stdout.startswith("thm5-routes (g=2, N=5): FAIL  first mismatch at X^3: ")
    assert compute == 3 and raised in stderr


def test_late_shorter_build_keeps_the_longer_prefix():
    memo = pipeline._ChainMemo()

    def step(k, have):
        # a longer build by another caller lands while this one runs
        assert memo.grown("orbits", 3, lambda k, _: f"m{k + 1}") == ("m1", "m2", "m3")
        return "m1"

    assert memo.grown("orbits", 1, step) == ("m1",)
    assert memo.orbits == ("m1", "m2", "m3")


def test_concurrent_requests_match_sequential_ones(run_fresh):
    out = run_fresh("""
import json, sys, threading
from nilorb import pipeline
results = [None] * 4
start = threading.Barrier(4)
def work(k):
    ns = [1 + (k * 2 + i) % 8 for i in range(8)]
    start.wait()
    results[k] = {n: pipeline.absolutely_indecomposable_count(2, n).coefficient_list
                  for n in ns}
threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
interval = sys.getswitchinterval()
sys.setswitchinterval(1e-5)
try:
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
finally:
    sys.setswitchinterval(interval)
assert not any(t.is_alive() for t in threads)
memo = pipeline._MEMOS[2]
assert len(memo.columns) == len(memo.weights) == len(memo.logs) == 9, (
    "a shorter prefix replaced a longer one")
print(json.dumps([[r[n] for n in range(1, 9)] for r in results]))
""")
    sequential = [list(pipeline.absolutely_indecomposable_count(2, n).coefficient_list)
                  for n in range(1, 9)]
    assert json.loads(out) == [sequential] * 4
