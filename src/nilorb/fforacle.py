"""Brute-force verification over small finite fields.

Everything here is desk-scale and exhaustive by design: enumerate nilpotent
matrices, enumerate the general linear group, count orbits of nilpotent
tuples under simultaneous conjugation both by Burnside averaging and by
explicit orbit construction, compute simultaneous commutants by linear
algebra, and classify orbits through their endomorphism algebras.  The two
orbit counts read one cached table of the permutations that conjugation
by each group element induces on the nilpotent matrices: Burnside counts
their fixed points, the listing applies them.  They share that table as
they share ``mat_mul`` and the two enumerations; each is still compared
with the engine, which shares none of this code.  Hard size guards keep
every call honest about what can actually be enumerated; each reads only
the sizes it guards, so it runs before any work that grows with them.
Every count an entry point takes (the field size q, an order n, a tuple
length g, a degree d, a coefficient of f) first passes the package's one
integer rule, ``exactnum._check_ints``, before any table lookup or cached
work, and the three cached enumerations key on the type of each argument
as well as its value, so neither ``True`` nor ``2.0`` reads an entry that
1 or 2 left.  The algebra guard sits in ``_span``, the one enumeration of
a commutant, so no caller can enumerate one unguarded.  The oracle only
counts: each closed form a count should equal is compared once, in the row
of the ``oracle`` command that reports it (``checks``).  Records hold no
field that another determines: an ``OrbitRecord`` is local exactly when it
has a residue size, and a ``FieldSpec`` compares by its fields, which q
determines.

The one table ``_FIELDS`` lists the supported fields, each with p, e and a
fixed monic irreducible modulus, so results are reproducible; any other q
is refused by a table lookup, before any work that grows with q.  Field
elements are integers 0..q-1.  For prime fields the integer is the
residue; for prime-power fields it encodes the coefficient vector of the
polynomial representative in base p (little-endian) modulo the field's
modulus.  A ``FieldSpec`` is the field's addition, multiplication, negation
and inversion tables, indexed by element, and every function here does its
arithmetic by indexing them.  Matrices are tuples of row tuples.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence
from functools import lru_cache

from .exactnum import InternalCheckError, SizeGuardError, _check_ints, _Record
from .partitions import Partition

Matrix = tuple[tuple[int, ...], ...]
MatrixTuple = tuple[Matrix, ...]


#: the supported fields, by size q: the characteristic p, the degree e with
#: q = p**e, and a fixed monic irreducible modulus (ascending coefficients,
#: leading 1; x for a prime field), so every result is reproducible
_FIELDS: dict[int, tuple[int, int, tuple[int, ...]]] = {
    2: (2, 1, (0, 1)),
    3: (3, 1, (0, 1)),
    4: (2, 2, (1, 1, 1)),      # x^2 + x + 1
    5: (5, 1, (0, 1)),
    7: (7, 1, (0, 1)),
    8: (2, 3, (1, 1, 0, 1)),   # x^3 + x + 1
    9: (3, 2, (1, 0, 1)),      # x^2 + 1
}

#: the largest tuple length g whose orbits are enumerated, per (n, q).  At
#: each, the CLI's ``oracle --check M`` and ``--check IA`` take at most 1.6 s
#: (best of 3, the slowest ``IA`` at (3, 2, 3) with 1.52 s; 2-vCPU Intel
#: Xeon VM, Python 3.11.7); the work grows as (q**(n*n - n))**g.
_ORBIT_REACH = {(2, 2): 7, (2, 3): 5, (2, 4): 4, (2, 5): 3, (2, 7): 2, (3, 2): 3}
#: the largest g at n = 1, for every q.  n = 1 has one orbit, but listing it
#: builds g-tuples, so the work grows as g (the commutant solves the one
#: equation of the tuple's one distinct member, 0): at g = 400,000 and q = 9,
#: ``oracle --check IA`` and ``--check M`` each take about 0.3 s and 34 MB
#: (best of 5, 2-core Intel Xeon, Python 3.11.7).
_ORBIT_REACH_N1 = 400_000

#: the most elements a commutant may have for its elements to be enumerated,
#: in orbit classification and in the nilpotent commutant count.  The count's
#: largest admitted algebras, 2^16 elements at q = 2 and 3^10 at q = 3, take
#: about 5 s each (2 cores, Python 3.11.7); M_4(F_3), with 3^16, about an hour
_ALGEBRA_LIMIT = 2 ** 16


def _field_tables(p: int, e: int, modulus: tuple[int, ...]) -> tuple:
    """The addition, multiplication, negation and inversion tables of the
    field with p**e elements, each element encoded by the base-p digits
    (little-endian) of its polynomial representative modulo ``modulus``;
    an element with no inverse (0 alone, in a field) has None."""
    q = p ** e
    digits = [[a // p ** i % p for i in range(e)] for a in range(q)]

    def encode(ds: Sequence[int]) -> int:
        return sum(d * p ** i for i, d in enumerate(ds))

    add = [[0] * q for _ in range(q)]
    mul = [[0] * q for _ in range(q)]
    for a, da in enumerate(digits):
        for b, db in enumerate(digits):
            add[a][b] = encode([(x + y) % p for x, y in zip(da, db)])
            prod = [0] * (2 * e - 1)
            for i, x in enumerate(da):
                if x:
                    for j, y in enumerate(db):
                        prod[i + j] = (prod[i + j] + x * y) % p
            # reduce modulo the field polynomial
            for k in range(len(prod) - 1, e - 1, -1):
                c = prod[k]
                if c:
                    prod[k] = 0
                    for i in range(e):
                        prod[k - e + i] = (prod[k - e + i] - c * modulus[i]) % p
            mul[a][b] = encode(prod[:e])
    neg = [0] * q
    inv = [None] * q
    for a in range(q):
        for b in range(q):
            if add[a][b] == 0:
                neg[a] = b
            if a and mul[a][b] == 1:
                inv[a] = b
    return (tuple(tuple(r) for r in add), tuple(tuple(r) for r in mul),
            tuple(neg), tuple(inv))


class FieldSpec(_Record):
    """A finite field of ``_FIELDS``, as its tables: ``add[a][b]``,
    ``mul[a][b]``, ``neg[a]`` and ``inv[a]`` (``inv[0]`` is None, so a
    division by zero fails rather than reads a value), each indexed by
    element; a - b is ``add[a][neg[b]]`` and the elements are ``range(q)``.

    ``FieldSpec.of(q)`` is its constructor.  It checks q by the integer
    rule and looks it up in the table before anything is built, so an
    unsupported field is refused whatever its size, and verifies the tables
    against the field axioms exhaustively, so a bad modulus cannot produce
    silently wrong counts downstream.
    """

    __slots__ = ("p", "q", "add", "mul", "neg", "inv")

    @classmethod
    def of(cls, q: int) -> "FieldSpec":
        """Field with exactly q elements: a q of ``_FIELDS``."""
        _check_ints(2, q=q)
        if q not in _FIELDS:
            if q > max(_FIELDS):
                raise SizeGuardError(f"fields beyond {max(_FIELDS)} elements are not supported (q={q})")
            raise ValueError(f"{q} is not a prime power")
        p, e, modulus = _FIELDS[q]
        field = cls(p, q, *_field_tables(p, e, modulus))
        field._verify_axioms()
        return field

    def _verify_axioms(self) -> None:
        add, mul, rng = self.add, self.mul, range(self.q)
        for a in rng:
            if add[a][0] != a or mul[a][1] != a:
                raise InternalCheckError("identity axiom failed")
            if a and (self.inv[a] is None or mul[a][self.inv[a]] != 1):
                raise InternalCheckError(f"no multiplicative inverse for {a}")
        for a in rng:
            for b in rng:
                if add[a][b] != add[b][a] or mul[a][b] != mul[b][a]:
                    raise InternalCheckError("commutativity failed")
                for c in rng:
                    if add[add[a][b]][c] != add[a][add[b][c]]:
                        raise InternalCheckError("additive associativity failed")
                    if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                        raise InternalCheckError("multiplicative associativity failed")
                    if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                        raise InternalCheckError("distributivity failed")

    def __reduce__(self):
        return FieldSpec.of, (self.q,)

    def __repr__(self) -> str:
        return f"FieldSpec(q={self.q})"


# ---------------------------------------------------------------------------
# matrix arithmetic


def zero_matrix(n: int) -> Matrix:
    return tuple((0,) * n for _ in range(n))


def mat_add(field: FieldSpec, a: Matrix, b: Matrix) -> Matrix:
    add = field.add
    return tuple(
        tuple(add[x][y] for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def mat_mul(field: FieldSpec, a: Matrix, b: Matrix) -> Matrix:
    add, mul = field.add, field.mul
    cols = tuple(zip(*b))
    out = []
    for row in a:
        out_row = []
        for col in cols:
            acc = 0
            for x, y in zip(row, col):
                if x and y:
                    acc = add[acc][mul[x][y]]
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def is_nilpotent(field: FieldSpec, m: Matrix) -> bool:
    """True when m**n = 0 with n the matrix order (the Cayley-Hamilton bound)."""
    n = len(m)
    power = m
    for _ in range(n - 1):
        power = mat_mul(field, power, m)
    return power == zero_matrix(n)


def _row_reduce(field: FieldSpec, rows, n_cols: int) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan elimination on the first ``n_cols`` columns: the reduced
    row echelon form of ``rows`` (pivot entries 1, zero elsewhere in their
    column) and the pivot columns in order."""
    add, mul, neg = field.add, field.mul, field.neg
    m = [list(r) for r in rows]
    pivots: list[int] = []
    for col in range(n_cols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        scale = mul[field.inv[m[rank][col]]]
        m[rank] = [scale[x] for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                minus = mul[neg[m[r][col]]]
                m[r] = [add[x][minus[y]] for x, y in zip(m[r], m[rank])]
        pivots.append(col)
    return m, pivots


def mat_rank(field: FieldSpec, m: Matrix) -> int:
    return len(_row_reduce(field, m, len(m[0]) if m else 0)[1])


def _nullspace(field: FieldSpec, rows: list[list[int]], n_cols: int) -> list[tuple[int, ...]]:
    """Basis of the solution space of the homogeneous system rows * x = 0."""
    m, pivots = _row_reduce(field, rows, n_cols)
    basis = []
    for f in range(n_cols):
        if f in pivots:
            continue
        vec = [0] * n_cols
        vec[f] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = field.neg[m[r][f]]
        basis.append(tuple(vec))
    return basis


# ---------------------------------------------------------------------------
# exhaustive enumerations


def _guard_matrix_space(field: FieldSpec, n: int) -> None:
    _check_ints(1, n=n)
    if not ((n <= 3 and field.q <= 3) or (n <= 2 and field.q <= 9)):
        raise SizeGuardError(
            f"enumerating {field.q}^{n * n} matrices exceeds the desk-scale guard"
        )


def _all_matrices(field: FieldSpec, n: int):
    for entries in itertools.product(range(field.q), repeat=n * n):
        yield tuple(entries[i * n : (i + 1) * n] for i in range(n))


@lru_cache(maxsize=None, typed=True)
def nilpotent_matrices(field: FieldSpec, n: int) -> tuple[Matrix, ...]:
    """All nilpotent n x n matrices, in row-major lexicographic order."""
    _guard_matrix_space(field, n)
    return tuple(m for m in _all_matrices(field, n) if is_nilpotent(field, m))


@lru_cache(maxsize=None, typed=True)
def invertible_matrices(field: FieldSpec, n: int) -> tuple[Matrix, ...]:
    """The full general linear group, count-asserted against the product
    of (q**n - q**i)."""
    _guard_matrix_space(field, n)
    out = tuple(m for m in _all_matrices(field, n) if mat_rank(field, m) == n)
    expected = 1
    for i in range(n):
        expected *= field.q ** n - field.q ** i
    if len(out) != expected:
        raise InternalCheckError(
            f"GL count {len(out)} != {expected} for n={n}, q={field.q}"
        )
    return out


def _guard_orbit_space(field: FieldSpec, n: int, g: int) -> None:
    _check_ints(1, n=n, g=g)
    if g > (_ORBIT_REACH_N1 if n == 1 else _ORBIT_REACH.get((n, field.q), 0)):
        raise SizeGuardError(
            f"orbit enumeration at n={n}, q={field.q}, g={g} exceeds the guard"
        )


@lru_cache(maxsize=None, typed=True)
def _conjugation_tables(field: FieldSpec, n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[Matrix, ...]]:
    """For each group element t, the permutation m -> t^-1 m t it induces
    on the (sorted) nilpotent matrices: i maps to the j with t m_j = m_i t,
    read off the products t m and m t, so no inverse is built.  Nilpotents
    are closed under conjugation, so these are genuine permutations, and i
    is fixed exactly when t commutes with m_i."""
    nil = nilpotent_matrices(field, n)  # already lex sorted
    perms = []
    for t in invertible_matrices(field, n):
        left = {mat_mul(field, t, m): j for j, m in enumerate(nil)}
        perms.append(tuple(left[mat_mul(field, m, t)] for m in nil))
    return tuple(perms), nil


def burnside_orbit_count(field: FieldSpec, n: int, g: int) -> int:
    """Number of orbits of nilpotent g-tuples under simultaneous conjugation,
    by averaging fixed-point counts over the whole group: each T fixes
    (number of nilpotent matrices commuting with T) ** g tuples, and those
    are the fixed points of T's permutation in ``_conjugation_tables``."""
    _guard_orbit_space(field, n, g)
    perms, _ = _conjugation_tables(field, n)
    total = sum(sum(i == j for i, j in enumerate(perm)) ** g for perm in perms)
    if total % len(perms):
        raise InternalCheckError("Burnside sum is not divisible by the group order")
    return total // len(perms)


class OrbitRecord(_Record):
    """One orbit of nilpotent g-tuples: its lexicographically minimal member,
    size, and endomorphism-algebra profile: the algebra's dimension, and its
    residue field's size when it is local (None when it is not)."""

    __slots__ = ("representative", "size", "endo_dim", "residue_size")

    @property
    def local(self) -> bool:
        return self.residue_size is not None


def orbit_listing(field: FieldSpec, n: int, g: int) -> Iterator[tuple[MatrixTuple, int]]:
    """Partition all nilpotent g-tuples into conjugation orbits, yielding
    each orbit's canonical representative and its size.

    Tuples are visited in lexicographic order (row-major entries, field
    elements by table index), so the first unseen member of each orbit is
    its canonical representative; applying every group element confirms it
    is the orbit minimum.  The guard runs before anything is built, and the
    orbit sizes are checked against the tuple count once the listing ends.
    """
    _guard_orbit_space(field, n, g)
    perms, nil = _conjugation_tables(field, n)
    group_order = len(perms)
    seen: set[tuple[int, ...]] = set()
    total_size = 0
    for combo in itertools.product(range(len(nil)), repeat=g):
        if combo in seen:
            continue
        orbit = {tuple(p[i] for i in combo) for p in perms}
        if min(orbit) != combo:
            raise InternalCheckError("canonical representative is not the orbit minimum")
        seen.update(orbit)
        size = len(orbit)
        if group_order % size:
            raise InternalCheckError("orbit size does not divide the group order")
        total_size += size
        yield tuple(nil[i] for i in combo), size
    if total_size != len(nil) ** g:
        raise InternalCheckError("orbit sizes do not sum to the tuple count")


def orbits(field: FieldSpec, n: int, g: int) -> list[OrbitRecord]:
    """Every orbit of ``orbit_listing``, classified by its endomorphism
    algebra."""
    return [OrbitRecord(rep, size, *_endomorphism_profile(field, rep))
            for rep, size in orbit_listing(field, n, g)]


# ---------------------------------------------------------------------------
# commutants and orbit classification


def commutant_basis(field: FieldSpec, matrices: MatrixTuple) -> list[Matrix]:
    """Basis of the algebra of matrices commuting with every member of the
    tuple, from the n^2 homogeneous equations E M = M E of each distinct
    member (a repeated member adds no equation the first did not)."""
    if not matrices:
        raise ValueError("commutant of an empty tuple is the full algebra; pass matrices")
    add, neg = field.add, field.neg
    n = len(matrices[0])
    rows = []
    for m in dict.fromkeys(matrices):
        for r in range(n):
            for c in range(n):
                row = [0] * (n * n)
                for b in range(n):
                    row[r * n + b] = add[row[r * n + b]][m[b][c]]
                for a in range(n):
                    row[a * n + c] = add[row[a * n + c]][neg[m[r][a]]]
                rows.append(row)
    basis = _nullspace(field, rows, n * n)
    return [tuple(vec[i * n : (i + 1) * n] for i in range(n)) for vec in basis]


def _span(field: FieldSpec, basis: list[Matrix]):
    """Every linear combination of the square matrices in ``basis``, one for
    each coefficient vector over the field.  An algebra of more than
    ``_ALGEBRA_LIMIT`` elements is refused before its first element is
    built."""
    if field.q ** len(basis) > _ALGEBRA_LIMIT:
        raise SizeGuardError(
            f"commutant algebra with {field.q}^{len(basis)} elements exceeds the guard"
        )
    n = len(basis[0])
    for combo in itertools.product(range(field.q), repeat=len(basis)):
        acc = zero_matrix(n)
        for coeff, bmat in zip(combo, basis):
            if coeff:
                scale = field.mul[coeff]
                acc = mat_add(field, acc, tuple(tuple(scale[x] for x in row) for row in bmat))
        yield acc


def _endomorphism_profile(field: FieldSpec, matrices: MatrixTuple) -> tuple[int, int | None]:
    """Dimension of the endomorphism algebra, and its residue field's size
    when it is local (None when it is not).

    One pass counts the non-units and, among them, the nilpotents.  A finite
    dimensional algebra is local exactly when every non-unit is nilpotent
    (the non-units are then its one maximal ideal, the radical), and a
    nilpotent is never a unit, so the algebra is local exactly when the two
    counts agree."""
    basis = commutant_basis(field, matrices)
    k = len(basis)
    n = len(matrices[0])
    nonunits = nilpotents = 0
    for m in _span(field, basis):
        if mat_rank(field, m) < n:
            nonunits += 1
            nilpotents += is_nilpotent(field, m)
    if nonunits != nilpotents:
        return k, None
    order = field.q ** k
    if order % nonunits:
        raise InternalCheckError("radical size does not divide the algebra order")
    residue = order // nonunits
    if residue == 1:
        raise InternalCheckError("local algebra with trivial residue")
    m = residue
    while m > 1:
        if m % field.q:
            raise InternalCheckError("residue size is not a power of the field size")
        m //= field.q
    return k, residue


def indecomposability_counts(field: FieldSpec, n: int, g: int) -> tuple[int, int]:
    """(indecomposable orbit count, absolutely indecomposable orbit count)
    tallied over the explicit orbit list."""
    recs = orbits(field, n, g)
    i_count = sum(1 for r in recs if r.local)
    a_count = sum(1 for r in recs if r.local and r.residue_size == field.q)
    if not a_count <= i_count <= len(recs):
        raise InternalCheckError("classification counts are inconsistent")
    return i_count, a_count


# ---------------------------------------------------------------------------
# block constructions and the commutant counting checks


def companion_matrix(field: FieldSpec, f: Sequence[int]) -> Matrix:
    """Companion matrix of a monic polynomial given by ascending coefficients
    over the field (leading coefficient 1 included)."""
    if len(f) < 2 or f[-1] != 1:
        raise ValueError("companion matrix needs a monic polynomial of degree >= 1")
    d = len(f) - 1
    out = [[0] * d for _ in range(d)]
    for i in range(d - 1):
        out[i][i + 1] = 1
    for j in range(d):
        out[d - 1][j] = field.neg[f[j]]
    return tuple(tuple(r) for r in out)


def jordan_type_matrix(field: FieldSpec, f: Sequence[int], lam: Partition) -> Matrix:
    """The Jordan-type matrix of f and lam: for each part m of lam, a block
    of m companion matrices of f on the diagonal with identity blocks above
    them, these blocks summed directly."""
    c = companion_matrix(field, f)
    d = len(c)
    size = d * lam.weight
    out = [[0] * size for _ in range(size)]
    top = 0
    for m in lam.parts:
        for blk in range(m):
            for i, row in enumerate(c):
                out[top + i][top:top + d] = row
                if blk + 1 < m:
                    out[top + i][top + d + i] = 1
            top += d
    return tuple(tuple(r) for r in out)


def _monic_remainder(field: FieldSpec, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The remainder of a by the monic b over the field, coefficients
    ascending: its deg b lowest coefficients, zeros included."""
    add = field.add
    a = list(a)
    d = len(b) - 1
    while len(a) > d:
        minus = field.mul[field.neg[a.pop()]]
        top = len(a) - d
        for i in range(d):
            a[top + i] = add[a[top + i]][minus[b[i]]]
    return a


def is_irreducible(field: FieldSpec, f: Sequence[int]) -> bool:
    """Trial-division irreducibility for a monic polynomial over the field:
    no monic polynomial of degree 1 to deg f / 2 leaves remainder 0."""
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    d = len(f) - 1
    if d <= 1:
        return d == 1
    for e in range(1, d // 2 + 1):
        for tail in itertools.product(range(field.q), repeat=e):
            if not any(_monic_remainder(field, f, tail + (1,))):
                return False
    return True


def monic_irreducibles(field: FieldSpec, d: int, exclude_x: bool = True) -> list[tuple[int, ...]]:
    """Enumerate monic irreducible polynomials of degree d (ascending
    coefficients), excluding the monomial x by default."""
    _check_ints(1, d=d)
    monics = (tail + (1,) for tail in itertools.product(range(field.q), repeat=d))
    return [f for f in monics if not (exclude_x and f == (0, 1)) and is_irreducible(field, f)]


def _guard_commutant_order(field: FieldSpec, d: int, lam: Partition) -> None:
    """Refuse a Jordan-type matrix of f and lam, deg f = d, past order 4 or
    over a field past 3 elements; it reads only d and lam, so it runs before
    f is checked for irreducibility, or written out at all."""
    v = d * lam.weight
    if field.q > 3 or v > 4:
        raise SizeGuardError(
            f"commutant enumeration at order {v} over q={field.q} exceeds the guard"
        )


def nilpotent_commutant_count(field: FieldSpec, f: Sequence[int], lam: Partition) -> int:
    """Count nilpotent matrices commuting with the Jordan-type block built
    from the monic irreducible f and the partition lam, by enumerating the
    commutant algebra.  The order guard runs before f's trial division, and
    ``_span`` refuses a commutant past ``_ALGEBRA_LIMIT`` elements before
    any is enumerated."""
    f = tuple(f)
    _check_ints(**{f"f[{i}]": c for i, c in enumerate(f)})
    if len(f) < 2 or f[-1] != 1:
        raise ValueError("f must be monic of degree >= 1")
    d = len(f) - 1
    if any(not 0 <= c < field.q for c in f):
        raise ValueError("f has coefficients outside the field")
    _guard_commutant_order(field, d, lam)
    if d > 1 and not is_irreducible(field, f):
        raise ValueError("f must be irreducible")
    basis = commutant_basis(field, (jordan_type_matrix(field, f, lam),))
    return sum(1 for m in _span(field, basis) if is_nilpotent(field, m))
