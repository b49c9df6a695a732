import pytest

from nilorb import partitions
from nilorb.exactnum import PolyQ
from nilorb.fforacle import FieldSpec, monic_irreducibles
from nilorb.partitions import (
    Partition,
    centralizer_order,
    column_sum,
    column_weight,
    divisors,
    inner_product,
    mobius,
    monic_irreducible_count,
    orbit_weight,
    partition_count,
    partitions_of,
    q_binomial,
    weight_denominator,
)
from rf_arithmetic import RF, value_at



def conjugate_inner(lam, mu):
    """Test-local route: sum of products of conjugate parts."""
    lc, mc = lam.conjugate().parts, mu.conjugate().parts
    return sum(a * b for a, b in zip(lc, mc))


def multiplicity_inner(lam, mu):
    """Test-local route: min-weighted double sum over multiplicities."""
    em, en = lam.exponential_form(), mu.exponential_form()
    return sum(min(i, j) * a * b for i, a in em.items() for j, b in en.items())


def all_partitions_up_to(w):
    out = []
    for n in range(w + 1):
        out.extend(partitions_of(n))
    return out


# ---------------------------------------------------------------------------
# enumeration


def test_partitions_of_zero():
    assert partitions_of(0) == [Partition()]


def test_partitions_of_four_in_reverse_lex_order():
    assert [p.parts for p in partitions_of(4)] == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1),
    ]


def test_partitions_of_eight_count():
    assert len(partitions_of(8)) == 22


def test_enumeration_matches_pentagonal_recurrence():
    for n in range(31):
        assert len(partitions_of(n)) == partition_count(n)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((0,))
    # a part that is not an int is refused, never truncated or converted
    for parts in ([2.7, 1.2], [2.0], ("3", "1")):
        with pytest.raises(TypeError, match="partition parts must be ints"):
            Partition(parts)


def test_partition_count_recurses_no_deeper_for_large_n():
    partitions.partition_count.cache_clear()
    assert partition_count(1000) == 24061467864032622473692149727991


def test_weight_and_length():
    lam = Partition((3, 2, 2))
    assert lam.weight == 7
    assert lam.length == 3
    assert lam.exponential_form() == {3: 1, 2: 2}


# ---------------------------------------------------------------------------
# conjugation and the inner product


def test_conjugate_examples():
    assert Partition((3, 2, 2)).conjugate() == Partition((3, 3, 1))
    assert Partition((5,)).conjugate() == Partition((1,) * 5)


def test_conjugate_is_involution():
    for lam in all_partitions_up_to(10):
        assert lam.conjugate().conjugate() == lam


def test_inner_product_examples():
    assert inner_product(Partition((3, 2, 2)), Partition((3, 2, 2))) == 19
    assert inner_product(Partition((1,)), Partition((1,))) == 1
    assert inner_product(Partition((1, 1)), Partition((1, 1))) == 4


def test_inner_product_routes_agree_exhaustively():
    parts = all_partitions_up_to(8)
    for lam in parts:
        for mu in parts:
            expected = conjugate_inner(lam, mu)
            assert expected == multiplicity_inner(lam, mu)
            assert inner_product(lam, mu) == expected


def test_inner_product_symmetry():
    parts = all_partitions_up_to(8)
    for lam in parts:
        for mu in parts:
            assert inner_product(lam, mu) == inner_product(mu, lam)


def test_self_inner_product_lower_bound():
    for lam in all_partitions_up_to(10):
        if lam.weight == 0:
            continue
        assert inner_product(lam, lam) >= lam.weight
        assert (inner_product(lam, lam) == lam.weight) == (lam.length == 1)


# ---------------------------------------------------------------------------
# q-products and weights


def test_centralizer_order_of_scalar_types_is_gl_order():
    # the type with n parts equal to 1 centralizes to the full group
    for n in range(1, 5):
        lam = Partition((1,) * n)
        poly = centralizer_order(lam)
        for q in (2, 3, 4):
            expected = 1
            for i in range(n):
                expected *= q ** n - q ** i
            assert value_at(poly, q) == expected


def weight(lam, g):
    """The partition weight as a rational function, from its numerator over D_n."""
    return RF(orbit_weight(lam, g), weight_denominator(lam.weight))


def test_weight_denominator_examples():
    qm1 = PolyQ([-1, 1])
    assert weight_denominator(0) == PolyQ([1])
    assert weight_denominator(1) == qm1
    assert weight_denominator(3) == qm1 * PolyQ([-1, 0, 1]) * PolyQ([-1, 0, 0, 1])


def test_orbit_weight_examples():
    one = PolyQ([1])
    qm1 = PolyQ([-1, 1])
    assert weight(Partition((1,)), 1) == RF(one, qm1)
    assert weight(Partition((1,)), 3) == RF(one, qm1)
    assert weight(Partition((2,)), 1) == RF(one, qm1)
    expected = RF(PolyQ([0, 1]), qm1 * qm1 * PolyQ([1, 1]))
    assert weight(Partition((1, 1)), 1) == expected
    assert orbit_weight(Partition((1, 1)), 1) == PolyQ([0, 1])


def test_orbit_weight_numerators_match_the_defining_quotient():
    for lam in all_partitions_up_to(7)[1:]:
        for g in (1, 2, 3):
            ip = inner_product(lam, lam)
            numerator = orbit_weight(lam, g)
            assert numerator.is_integral
            assert weight(lam, g) == RF(PolyQ.q_power(g * (ip - lam.length)),
                                        centralizer_order(lam))


def test_orbit_weight_computes_the_inner_product_once(monkeypatch):
    calls = []
    real = partitions.inner_product
    monkeypatch.setattr(partitions, "inner_product",
                        lambda lam, mu: calls.append(lam) or real(lam, mu))
    orbit_weight(Partition((2, 1, 1)), 2)
    assert calls == [Partition((2, 1, 1))]


def test_orbit_weight_rejects_bad_input():
    with pytest.raises(ValueError):
        orbit_weight(Partition(), 1)
    with pytest.raises(ValueError):
        orbit_weight(Partition((1,)), 0)


def column_route(g, order):
    """The column route's numerators P_0..P_order, from its table of G(s, c)."""
    rows = [(PolyQ([1]),)]
    for s in range(1, order + 1):
        rows.append((PolyQ(),) + tuple(column_sum(g, rows, s, c) for c in range(1, s + 1)))
    return [PolyQ([1])] + [column_weight(g, rows[n], n) for n in range(1, order + 1)]


def test_column_route_equals_the_partition_sum():
    for g in range(1, 6):
        via_columns = column_route(g, 10)
        for n in range(1, 11):
            via_partitions = sum((orbit_weight(lam, g) for lam in partitions_of(n)), PolyQ())
            assert via_columns[n] == via_partitions, (g, n)


def test_column_sums_by_hand():
    # G(1, 1) = [1; 0] q^1 q^((g-1) 1), G(2, 2) = [2; 0] q^3 q^((g-1) 4) and
    # G(2, 1) = [1; 1] q^0 G(1, 1) q^(g-1); then P_2 = G(2, 1) q^-g (q^2 - 1)
    # + G(2, 2) q^-2g, which is the sum of the weights of (2) and (1, 1)
    for g, (g11, g21, g22, p2) in {1: ([0, 1], [0, 1], [0, 0, 0, 1], [-1, 1, 1]),
                                   2: ([0, 0, 1], [0, 0, 0, 1], [0] * 7 + [1], [0, -1, 0, 2])}.items():
        rows = [(PolyQ([1]),)]
        for s in range(1, 3):
            rows.append((PolyQ(),) + tuple(column_sum(g, rows, s, c) for c in range(1, s + 1)))
        assert rows[1][1:] == (PolyQ(g11),) and rows[2][1:] == (PolyQ(g21), PolyQ(g22))
        assert column_weight(g, rows[2], 2) == PolyQ(p2)


def test_q_binomials():
    assert q_binomial(4, 2) == PolyQ([1, 1, 2, 1, 1])
    for n in range(9):
        for k in range(n + 1):
            b = q_binomial(n, k)
            assert b == q_binomial(n, n - k)
            assert value_at(b, 1) == len([s for s in range(2 ** n) if bin(s).count("1") == k])
            quotient = weight_denominator(n).exact_div(weight_denominator(k) * weight_denominator(n - k))
            assert b == quotient
    with pytest.raises(ValueError):
        q_binomial(3, 4)


# ---------------------------------------------------------------------------
# number theory


def test_mobius_values():
    assert [mobius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def test_mobius_sum_over_divisors():
    # sum of mobius over divisors is the indicator of n == 1
    for n in range(1, 60):
        total = sum(mobius(d) for d in divisors(n))
        assert total == (1 if n == 1 else 0)


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]


def test_irreducible_count_closed_forms():
    assert monic_irreducible_count(1) == PolyQ([-1, 1])
    assert monic_irreducible_count(2) == PolyQ([0, -1, 1], 2)


def test_irreducible_count_matches_enumeration():
    # every field of the oracle's table, and the trial division by monic
    # divisors, against the closed form
    for q in (2, 3, 4, 5, 7, 8, 9):
        field = FieldSpec.of(q)
        for d in range(1, 5 if q <= 4 else 4):
            expected = len(monic_irreducibles(field, d))
            assert value_at(monic_irreducible_count(d), q) == expected
