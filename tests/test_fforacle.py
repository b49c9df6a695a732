import pickle
import random
import re
import subprocess
import sys

import pytest

from nilorb import fforacle, pipeline
from nilorb.fforacle import (
    FieldSpec,
    InternalCheckError,
    SizeGuardError,
    _ORBIT_REACH,
    _ORBIT_REACH_N1,
    _endomorphism_profile,
    burnside_orbit_count,
    commutant_basis,
    companion_matrix,
    indecomposability_counts,
    invertible_matrices,
    is_irreducible,
    jordan_type_matrix,
    mat_mul,
    mat_rank,
    monic_irreducibles,
    nilpotent_commutant_count,
    nilpotent_matrices,
    orbit_listing,
    orbits,
    zero_matrix,
)
from nilorb.partitions import Partition, inner_product, partition_count
from rf_arithmetic import value_at

F2 = FieldSpec.of(2)
F3 = FieldSpec.of(3)

DECOMPOSABLE = "decomposable"
INDECOMPOSABLE = "indecomposable"
ABSOLUTELY_INDECOMPOSABLE = "absolutely indecomposable"


def identity_matrix(n: int):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def classify_tuple(field, matrices) -> str:
    """Classify one tuple via its endomorphism algebra: indecomposable iff
    the algebra is local (Fitting), absolutely indecomposable iff the
    residue field is the base field itself.  These criteria are standard
    representation theory rather than anything specific to this package."""
    _, residue = _endomorphism_profile(field, matrices)
    if residue is None:
        return DECOMPOSABLE
    if residue == field.q:
        return ABSOLUTELY_INDECOMPOSABLE
    return INDECOMPOSABLE


def classify_orbit(record, field) -> str:
    """Classification of an orbit from its recorded algebra profile."""
    if not record.local:
        return DECOMPOSABLE
    if record.residue_size == field.q:
        return ABSOLUTELY_INDECOMPOSABLE
    return INDECOMPOSABLE


def random_orbit_member(field, n, rep, rng):
    """A uniformly random conjugate of the given tuple."""
    group = invertible_matrices(field, n)
    t = rng.choice(group)
    ti = next(s for s in group if mat_mul(field, t, s) == identity_matrix(n))
    return tuple(mat_mul(field, mat_mul(field, ti, m), t) for m in rep)


# ---------------------------------------------------------------------------
# fields


def test_all_supported_fields_construct():
    for q in (2, 3, 4, 5, 7, 8, 9):
        field = FieldSpec.of(q)
        assert field.q == q


def test_unsupported_fields_rejected():
    with pytest.raises(ValueError):
        FieldSpec.of(6)
    with pytest.raises(SizeGuardError):
        FieldSpec.of(16)
    with pytest.raises(SizeGuardError):
        FieldSpec.of(11)


def test_unsupported_fields_are_refused_before_any_work(nilorb_env):
    # a table lookup refuses it: finding a divisor of 1,000,000,007 (a
    # prime) by trial division would run far past the timeout
    proc = subprocess.run(
        [sys.executable, "-c", "from nilorb.fforacle import FieldSpec; FieldSpec.of(1_000_000_007)"],
        capture_output=True, text=True, env=nilorb_env, timeout=5)
    assert (proc.returncode, proc.stderr.splitlines()[-1]) == (
        1, "nilorb.exactnum.SizeGuardError: fields beyond 9 elements are not supported (q=1000000007)")


def test_reducible_modulus_fails_the_field_axioms(monkeypatch):
    # negative control for the table: x^2 + 2 = (x + 1)(x + 2) over F_3
    # gives a ring with zero divisors, which the axiom check must refuse;
    # unpickling a field builds it through FieldSpec.of, so it is refused too
    pickled = pickle.dumps(FieldSpec.of(9))
    monkeypatch.setitem(fforacle._FIELDS, 9, (3, 2, (2, 0, 1)))
    with pytest.raises(InternalCheckError, match="no multiplicative inverse"):
        FieldSpec.of(9)
    with pytest.raises(InternalCheckError, match="no multiplicative inverse"):
        pickle.loads(pickled)


def test_extension_field_arithmetic():
    f4 = FieldSpec.of(4)
    # element 2 encodes x; x * x = x + 1 under x^2 + x + 1
    assert f4.mul[2][2] == 3
    f9 = FieldSpec.of(9)
    # element 3 encodes x; x * x = -1 = 2 under x^2 + 1
    assert f9.mul[3][3] == 2
    f8 = FieldSpec.of(8)
    # element 2 encodes x; x * x^2 = x + 1 under x^3 + x + 1
    assert f8.mul[2][4] == 3


def test_inverses():
    for q in (2, 3, 4, 5, 7, 8, 9):
        field = FieldSpec.of(q)
        for a in range(1, q):
            assert field.mul[a][field.inv[a]] == 1
            assert field.add[a][field.neg[a]] == 0
        # 0 has no inverse, so a division by zero fails rather than reads a value
        assert field.inv[0] is None
        with pytest.raises(TypeError):
            field.mul[field.inv[0]]


# ---------------------------------------------------------------------------
# exhaustive enumerations


def test_nilpotent_two_by_two_over_f2():
    got = set(nilpotent_matrices(F2, 2))
    assert got == {
        ((0, 0), (0, 0)),
        ((0, 1), (0, 0)),
        ((0, 0), (1, 0)),
        ((1, 1), (1, 1)),
    }


def test_nilpotent_counts_follow_closed_form():
    assert len(nilpotent_matrices(F2, 1)) == 1
    assert len(nilpotent_matrices(F2, 3)) == 64
    assert len(nilpotent_matrices(F3, 3)) == 729
    for q in (4, 5, 7, 8, 9):
        assert len(nilpotent_matrices(FieldSpec.of(q), 2)) == q * q


def test_invertible_counts():
    assert len(invertible_matrices(F2, 2)) == 6
    assert len(invertible_matrices(F2, 3)) == 168
    assert len(invertible_matrices(F3, 1)) == 2
    assert len(invertible_matrices(F3, 2)) == 48
    assert len(invertible_matrices(FieldSpec.of(4), 2)) == 180


def test_size_guards():
    with pytest.raises(SizeGuardError):
        nilpotent_matrices(F2, 4)
    with pytest.raises(SizeGuardError):
        nilpotent_matrices(FieldSpec.of(5), 3)
    with pytest.raises(SizeGuardError):
        orbits(F3, 3, 2)
    # one tuple length past the guard's reach at q = 2 and q = 7
    with pytest.raises(SizeGuardError):
        burnside_orbit_count(F2, 2, 8)
    with pytest.raises(SizeGuardError):
        orbits(FieldSpec.of(7), 2, 3)
    # n = 1 has one orbit, but its listing grows with g: the guard refuses
    # past its reach at every q, before any tuple is built
    for q in (2, 9):
        with pytest.raises(SizeGuardError, match=f"g={_ORBIT_REACH_N1 + 1} "):
            next(orbit_listing(FieldSpec.of(q), 1, _ORBIT_REACH_N1 + 1))
        with pytest.raises(SizeGuardError):
            burnside_orbit_count(FieldSpec.of(q), 1, 10 ** 9)


# every oracle entry that takes a count: its valid arguments, the name of
# one integer argument and that argument's least value
ORACLE_INTEGER_ARGUMENTS = [
    (FieldSpec.of, {"q": 2}, "q", 2),
    *((entry, {"field": F2, "n": 2}, "n", 1)
      for entry in (nilpotent_matrices, invertible_matrices, fforacle._conjugation_tables)),
    *((entry, {"field": F2, "n": 2, "g": 2}, name, 1) for name in ("n", "g")
      for entry in (burnside_orbit_count, orbit_listing, orbits, indecomposability_counts)),
    (monic_irreducibles, {"field": F2, "d": 2}, "d", 1),
]
ORACLE_CACHES = (nilpotent_matrices, invertible_matrices, fforacle._conjugation_tables)


def oracle_integer_argument_cases():
    for entry, arguments, name, least in ORACLE_INTEGER_ARGUMENTS:
        for value in (True, 2.0, "2", least - 1):
            yield pytest.param(entry, {**arguments, name: value}, name,
                               ValueError if type(value) is int else TypeError,
                               id=f"{entry.__qualname__}-{name}-{value!r}")
    # f's coefficients pass the rule one by one; f's degree is bounded below
    arguments = {"field": F2, "lam": Partition((1,))}
    for value in (True, 2.0, "2"):
        yield pytest.param(nilpotent_commutant_count, {**arguments, "f": (value, 1)}, "f[0]",
                           TypeError, id=f"nilpotent_commutant_count-f[0]-{value!r}")
    yield pytest.param(nilpotent_commutant_count, {**arguments, "f": (1,)}, "f", ValueError,
                       id="nilpotent_commutant_count-f-(1,)")


@pytest.mark.parametrize("entry, arguments, name, error", oracle_integer_argument_cases())
def test_oracle_integer_arguments_are_refused_before_any_cached_work(entry, arguments, name,
                                                                    error):
    # a bool, a float or a str is no count, and neither is a value below
    # the bound; the refusal names the argument and adds no cache entry
    sizes = [cache.cache_info().currsize for cache in ORACLE_CACHES]
    with pytest.raises(error, match=f"^{re.escape(name)} must be "):
        next(entry(**arguments))  # the listing is a generator: its guard runs at next
    assert [cache.cache_info().currsize for cache in ORACLE_CACHES] == sizes


def test_a_cached_order_serves_no_bool():
    # True == 1 and hashes as 1: an untyped cache would hand the n = 1 list
    # to n = True without running the guard
    assert len(nilpotent_matrices(F2, 1)) == 1
    with pytest.raises(TypeError, match="^n must be an int, got bool$"):
        nilpotent_matrices(F2, True)
    with pytest.raises(TypeError, match="^g must be an int, got float$"):
        burnside_orbit_count(F2, 2, 2.0)
    assert burnside_orbit_count(F2, 2, 2) == 5


def test_rank():
    # over F_3, (1 2; 2 1) has determinant -3 = 0
    assert mat_rank(F3, ((1, 2), (2, 1))) == 1
    assert mat_rank(F2, ((0, 1, 1), (0, 1, 1))) == 1
    assert mat_rank(F2, zero_matrix(3)) == 0
    assert mat_rank(F3, identity_matrix(3)) == 3


# ---------------------------------------------------------------------------
# orbit counting


def test_burnside_examples():
    assert burnside_orbit_count(F2, 2, 1) == 2
    assert burnside_orbit_count(F2, 2, 2) == 5
    assert burnside_orbit_count(F3, 2, 2) == 7
    assert burnside_orbit_count(F2, 3, 1) == 3
    assert burnside_orbit_count(F2, 3, 2) == 37


def test_conjugation_tables_are_the_conjugation_permutations():
    # each table sends i to the j with t m_j = m_i t, checked here by the
    # products themselves rather than through the table's lookup
    for field, n in ((F2, 2), (F3, 2), (F2, 3)):
        perms, nil = fforacle._conjugation_tables(field, n)
        group = invertible_matrices(field, n)
        assert nil == nilpotent_matrices(field, n) and len(perms) == len(group)
        for t, perm in zip(group, perms):
            assert sorted(perm) == list(range(len(nil)))
            for i, j in enumerate(perm):
                assert mat_mul(field, t, nil[j]) == mat_mul(field, nil[i], t)


def test_burnside_and_the_listing_share_one_table():
    fforacle._conjugation_tables.cache_clear()
    burnside_orbit_count(F3, 2, 2)
    list(orbit_listing(F3, 2, 2))
    info = fforacle._conjugation_tables.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_burnside_on_a_warm_table_multiplies_no_matrices(monkeypatch):
    fforacle._conjugation_tables(F3, 2)
    calls = []
    mul = fforacle.mat_mul
    monkeypatch.setattr(fforacle, "mat_mul", lambda *a: calls.append(a) or mul(*a))
    assert burnside_orbit_count(F3, 2, 2) == 7
    assert calls == []


def test_orbits_partition_the_tuple_space():
    recs = orbits(F2, 2, 2)
    assert len(recs) == 5
    assert sum(r.size for r in recs) == 16
    for r in recs:
        assert 6 % r.size == 0


def test_orbit_listing_is_the_orbit_list_unclassified():
    for field, n, g in ((F2, 2, 2), (F3, 2, 2), (F2, 3, 1), (F3, 1, 4)):
        listing = list(orbit_listing(field, n, g))
        assert listing == [(r.representative, r.size) for r in orbits(field, n, g)]


def test_single_matrix_orbits_are_partition_classes():
    for n, field in ((2, F2), (3, F2), (2, F3)):
        assert len(orbits(field, n, 1)) == partition_count(n)


#: the (n, q, g) that CI runs through the CLI instead: four corners of the
#: guard's reach, and all of q = 7, whose conjugation table over 2016
#: invertible matrices takes about 1 s to build even at g = 1
CI_SIZES = {(2, 2, 7), (2, 3, 5), (2, 4, 4), (2, 7, 1), (2, 7, 2)}


def sizes_in_guard():
    """Every (field, n, g) the orbit guard admits but the CI sizes, and
    n = 1 at three fields."""
    for (n, q), g_max in _ORBIT_REACH.items():
        for g in range(1, g_max + 1):
            if (n, q, g) not in CI_SIZES:
                yield FieldSpec.of(q), n, g
    for q in (2, 4, 9):
        for g in (1, 2, 5):
            yield FieldSpec.of(q), 1, g


def test_burnside_equals_orbit_listing_everywhere_in_guard():
    for field, n, g in sizes_in_guard():
        assert burnside_orbit_count(field, n, g) == len(orbits(field, n, g)), (field.q, n, g)


def test_pipeline_counts_match_oracle_everywhere_in_guard():
    for field, n, g in sizes_in_guard():
        m_engine = value_at(pipeline.orbit_count(g, n), field.q)
        i_engine = value_at(pipeline.indecomposable_count(g, n), field.q)
        a_engine = value_at(pipeline.absolutely_indecomposable_count(g, n), field.q)
        # the listing behind the I and A counts is compared to Burnside above
        i_oracle, a_oracle = indecomposability_counts(field, n, g)
        assert m_engine == burnside_orbit_count(field, n, g), (field.q, n, g)
        assert (i_engine, a_engine) == (i_oracle, a_oracle), (field.q, n, g)


# ---------------------------------------------------------------------------
# commutants


def test_commutant_of_zero_tuple_is_everything():
    assert len(commutant_basis(F2, (zero_matrix(2),))) == 4
    assert len(commutant_basis(F3, (zero_matrix(3),))) == 9


def test_commutant_of_regular_nilpotent_block():
    j = jordan_type_matrix(F2, (0, 1), Partition((2,)))
    assert j == ((0, 1), (0, 0))
    basis = commutant_basis(F2, (j,))
    assert len(basis) == 2
    # the span is exactly {aI + bJ}
    from nilorb.fforacle import mat_add

    span = set()
    for a in range(F2.q):
        for b in range(F2.q):
            m = zero_matrix(2)
            if a:
                m = mat_add(F2, m, basis[0])
            if b:
                m = mat_add(F2, m, basis[1])
            span.add(m)
    assert identity_matrix(2) in span
    assert j in span


def test_commutant_of_scalar_type():
    # two 1x1 blocks of x - 1: the identity matrix, commutant is everything
    j = jordan_type_matrix(F2, (1, 1), Partition((1, 1)))
    assert j == identity_matrix(2)
    assert len(commutant_basis(F2, (j,))) == 4


def test_commutant_solves_the_equations_of_distinct_members_once(monkeypatch):
    # a repeated member adds no equation, so only the 2 n^2 equations of the
    # two distinct members are row-reduced, and the basis is the same
    a = jordan_type_matrix(F3, (0, 1), Partition((2, 1)))
    b = ((0, 0, 1), (0, 0, 0), (0, 0, 0))
    expected = commutant_basis(F3, (a, b))
    reduced = []
    nullspace = fforacle._nullspace

    def counting(field, rows, n_cols):
        reduced.append(len(rows))
        return nullspace(field, rows, n_cols)

    monkeypatch.setattr(fforacle, "_nullspace", counting)
    assert commutant_basis(F3, (a, b, a, a)) == expected
    assert reduced == [2 * 3 * 3]


def test_commutant_dimension_is_self_inner_product():
    for field in (F2, F3):
        for weight in range(1, 5):
            for lam in _partitions(weight):
                j = jordan_type_matrix(field, (0, 1), lam)
                assert len(commutant_basis(field, (j,))) == inner_product(lam, lam)


def _partitions(n):
    from nilorb.partitions import partitions_of

    return partitions_of(n)


# ---------------------------------------------------------------------------
# nilpotent commutant counts


def test_nilpotent_commutant_examples():
    assert nilpotent_commutant_count(F2, (0, 1), Partition((2,))) == 2
    assert nilpotent_commutant_count(F2, (1, 1), Partition((1, 1))) == 4
    assert nilpotent_commutant_count(F2, (1, 1, 1), Partition((2,))) == 4


def test_nilpotent_commutant_linear_blocks():
    for field in (F2, F3):
        for f in ((0, 1), (1, 1)):  # x and x - (-1)
            for parts in ((1,), (2,), (1, 1), (2, 1), (3,)):
                lam = Partition(parts)
                expected = field.q ** (inner_product(lam, lam) - lam.length)
                assert nilpotent_commutant_count(field, f, lam) == expected


def test_nilpotent_commutant_quadratic_block():
    lam = Partition((1,))
    assert nilpotent_commutant_count(F2, (1, 1, 1), lam) == 1


def test_nilpotent_commutant_guards():
    with pytest.raises(SizeGuardError):
        nilpotent_commutant_count(FieldSpec.of(5), (0, 1), Partition((2,)))
    with pytest.raises(SizeGuardError):
        nilpotent_commutant_count(F2, (1, 1, 1), Partition((3,)))
    with pytest.raises(ValueError):
        nilpotent_commutant_count(F2, (1, 0, 1), Partition((1,)))  # x^2+1 reducible
    # the command line reduces each coefficient mod p, so only a caller
    # reaches this refusal
    with pytest.raises(ValueError, match="^f has coefficients outside the field$"):
        nilpotent_commutant_count(F3, (5, 1), Partition((1,)))


def first_element(n):
    """Stands in for ``zero_matrix``, which ``_span`` calls to build each
    element: reaching it means the algebra guard let the algebra through."""
    raise LookupError("an element was built")


def test_commutant_guard_refuses_only_m4_over_f3(monkeypatch):
    # of every f and lambda that the order guard admits (q <= 3 and
    # deg(f) |lambda| <= 4), the algebra guard refuses exactly the commutant
    # M_4(F_3) of a scalar 4 x 4 matrix, whose 3^16 elements would take about
    # an hour, and it refuses before enumerating any element: building the
    # first element raises LookupError, which counts as admitted
    monkeypatch.setattr(fforacle, "zero_matrix", first_element)
    admitted, refused = 0, []
    for field in (F2, F3):
        for d in range(1, 5):
            for f in monic_irreducibles(field, d, exclude_x=False):
                for lam in (lam for weight in range(1, 4 // d + 1) for lam in _partitions(weight)):
                    try:
                        nilpotent_commutant_count(field, f, lam)
                    except LookupError:
                        admitted += 1
                    except SizeGuardError as exc:
                        refused.append((field.q, f, lam.parts, str(exc)))
    message = "commutant algebra with 3^16 elements exceeds the guard"
    assert refused == [(3, (c, 1), (1, 1, 1, 1), message) for c in range(3)]
    assert admitted == 95


def test_classification_algebra_guard_refuses_before_any_element(monkeypatch):
    # the commutant of the zero 2 x 2 matrix over F_2 is M_2(F_2), with 2^4
    # elements; under a limit of 2^3 classifying it must be refused before
    # its first element is built
    monkeypatch.setattr(fforacle, "_ALGEBRA_LIMIT", 2 ** 3)
    monkeypatch.setattr(fforacle, "zero_matrix", first_element)
    with pytest.raises(SizeGuardError, match="commutant algebra with 2\\^4 elements exceeds the guard"):
        _endomorphism_profile(F2, (((0, 0), (0, 0)),))


def test_commutant_order_guard_runs_before_trial_division(monkeypatch):
    # trial division of f takes about q^(deg f / 2) divisions: at
    # x^35 + x^2 + 1 over F_2 the order guard refuses before any of them
    def reached(*args):
        raise LookupError("f was tested for irreducibility before the guard")

    monkeypatch.setattr(fforacle, "is_irreducible", reached)
    f = tuple(int(k in (0, 2, 35)) for k in range(36))
    with pytest.raises(SizeGuardError, match="at order 35 over q=2 exceeds the guard"):
        nilpotent_commutant_count(F2, f, Partition((1,)))


# ---------------------------------------------------------------------------
# classification


def test_endomorphism_profiles_over_f2():
    # the zero matrix's algebra M_2(F_2) is not local; the Jordan block's,
    # F_2[x]/(x^2), is local with residue F_2; the companion matrix of
    # x^2 + x + 1 generates the field F_4
    assert _endomorphism_profile(F2, (zero_matrix(2),)) == (4, None)
    assert _endomorphism_profile(F2, (((0, 1), (0, 0)),)) == (2, 2)
    assert _endomorphism_profile(F2, (companion_matrix(F2, (1, 1, 1)),)) == (2, 4)


def test_zero_tuple_is_decomposable():
    assert classify_tuple(F2, (zero_matrix(2), zero_matrix(2))) == DECOMPOSABLE
    assert classify_tuple(F2, (zero_matrix(3),)) == DECOMPOSABLE


def test_pair_classification_over_f2():
    recs = orbits(F2, 2, 2)
    labels = [classify_orbit(r, F2) for r in recs]
    assert labels.count(ABSOLUTELY_INDECOMPOSABLE) == 4
    assert labels.count(DECOMPOSABLE) == 1
    assert indecomposability_counts(F2, 2, 2) == (4, 4)


def test_triple_count_over_f2_n3():
    assert indecomposability_counts(F2, 3, 2) == (32, 32)


def test_single_matrix_classification():
    # only the full Jordan block is indecomposable
    assert indecomposability_counts(F2, 2, 1) == (1, 1)
    assert indecomposability_counts(F2, 3, 1) == (1, 1)


def test_classification_is_conjugation_invariant():
    rng = random.Random(4242)
    for recs, field, n in ((orbits(F2, 2, 2), F2, 2), (orbits(F3, 2, 2), F3, 2)):
        for rec in recs:
            expected = classify_orbit(rec, field)
            for _ in range(3):
                member = random_orbit_member(field, n, rec.representative, rng)
                assert classify_tuple(field, member) == expected


def test_orbit_records_expose_algebra_profile():
    recs = orbits(F2, 2, 2)
    zero_rec = next(r for r in recs if r.representative == (zero_matrix(2), zero_matrix(2)))
    assert zero_rec.endo_dim == 4
    assert not zero_rec.local
    assert zero_rec.residue_size is None
    assert zero_rec.size == 1


# ---------------------------------------------------------------------------
# polynomial utilities over the field


def test_companion_matrix_layout():
    c = companion_matrix(F2, (1, 1, 1))
    assert c == ((0, 1), (1, 1))


def test_block_jordan_quadratic():
    j = jordan_type_matrix(F2, (1, 1, 1), Partition((2,)))
    assert j == (
        (0, 1, 1, 0),
        (1, 1, 0, 1),
        (0, 0, 0, 1),
        (0, 0, 1, 1),
    )


def test_jordan_type_matrix_with_several_parts():
    # x^2 + x + 1 and lambda = 2,1: the part 2 gives two companion blocks
    # with an identity block above the second, the part 1 one block of its
    # own, with nothing linking it to the first
    j = jordan_type_matrix(F2, (1, 1, 1), Partition((2, 1)))
    assert j == (
        (0, 1, 1, 0, 0, 0),
        (1, 1, 0, 1, 0, 0),
        (0, 0, 0, 1, 0, 0),
        (0, 0, 1, 1, 0, 0),
        (0, 0, 0, 0, 0, 1),
        (0, 0, 0, 0, 1, 1),
    )


def test_irreducibility():
    assert is_irreducible(F2, (1, 1, 1))
    assert not is_irreducible(F2, (1, 0, 1))  # (x+1)^2 over GF(2)
    assert is_irreducible(F3, (1, 0, 1))
    assert monic_irreducibles(F2, 2) == [(1, 1, 1)]
    assert len(monic_irreducibles(F2, 3)) == 2
    assert len(monic_irreducibles(F2, 1)) == 1  # x excluded
