"""Brute-force verification over small finite fields.

Everything here is desk-scale and exhaustive by design: enumerate nilpotent
matrices, enumerate the general linear group, count orbits of nilpotent
tuples under simultaneous conjugation both by Burnside averaging and by
explicit orbit construction, compute simultaneous commutants by linear
algebra, and classify orbits through their endomorphism algebras.  Hard
size guards keep every call honest about what can actually be enumerated;
each reads only the sizes it guards, so it runs before any work that grows
with them.  The oracle only counts: each closed form a count should equal
is compared once, in the row of the ``oracle`` command that reports it
(``checks``).  Records hold no field that another determines: an
``OrbitRecord`` is local exactly when it has a residue size, and a
``FieldSpec`` compares by its fields, which ``(p, e)`` determine.

Field elements are integers 0..q-1.  For prime fields the integer is the
residue; for prime-power fields it encodes the coefficient vector of the
polynomial representative in base p (little-endian), with a fixed modulus
per field so results are reproducible.  Matrices are tuples of row tuples.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from .exactnum import InternalCheckError, SizeGuardError, _Record
from .partitions import Partition

Matrix = tuple[tuple[int, ...], ...]
MatrixTuple = tuple[Matrix, ...]


#: fixed monic irreducible moduli (ascending coefficients, leading 1)
_MODULI: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),      # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),   # x^3 + x + 1
    (3, 2): (1, 0, 1),      # x^2 + 1
}

#: the largest tuple length g whose orbits are enumerated, per (n, q).  At
#: each, the CLI's ``oracle --check M`` and ``--check IA`` take at most 1.6 s
#: (2 cores, Python 3.11.7); the work grows as (q**(n*n - n))**g.
_ORBIT_REACH = {(2, 2): 7, (2, 3): 5, (2, 4): 4, (2, 5): 3, (2, 7): 2, (3, 2): 3}
#: the largest g at n = 1, for every q.  n = 1 has one orbit, but listing it
#: builds g-tuples and the commutant solves g equations, so the work grows
#: as g: at g = 400,000 and q = 9, ``oracle --check IA`` takes about 1.2 s
#: and 100 MB, and ``--check M`` 0.4 s, on the same machine.
_ORBIT_REACH_N1 = 400_000

#: the most elements a commutant may have for its elements to be enumerated,
#: in orbit classification and in the nilpotent commutant count.  The count's
#: largest admitted algebras, 2^16 elements at q = 2 and 3^10 at q = 3, take
#: about 5 s each (2 cores, Python 3.11.7); M_4(F_3), with 3^16, about an hour
_ALGEBRA_LIMIT = 2 ** 16


def _field_tables(p: int, e: int, modulus: Optional[tuple[int, ...]]) -> tuple:
    """The addition, multiplication, negation and inversion tables of the
    field with p**e elements, each element encoded by the base-p digits
    (little-endian) of its polynomial representative modulo ``modulus``."""
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
    inv = [0] * q
    for a in range(q):
        for b in range(q):
            if add[a][b] == 0:
                neg[a] = b
            if a and mul[a][b] == 1:
                inv[a] = b
    return (tuple(tuple(r) for r in add), tuple(tuple(r) for r in mul),
            tuple(neg), tuple(inv))


class FieldSpec(_Record):
    """A finite field with at most 9 elements, fully tabled arithmetic.

    The multiplication/addition tables are verified against the field
    axioms exhaustively at construction, so a bad modulus cannot produce
    silently wrong counts downstream.
    """

    __slots__ = ("p", "e", "q", "modulus", "_add", "_mul", "_neg", "_inv")

    def __init__(self, p: int, e: int):
        if p < 2 or any(p % d == 0 for d in range(2, p)):
            raise ValueError(f"characteristic {p} is not prime")
        if e < 1:
            raise ValueError("extension degree must be >= 1")
        q = p ** e
        if q > 9:
            raise SizeGuardError(f"fields beyond 9 elements are not supported (q={q})")
        modulus = _MODULI.get((p, e)) if e > 1 else None
        if e > 1 and modulus is None:
            raise ValueError(f"no modulus on record for GF({p}^{e})")
        super().__init__(p, e, q, modulus, *_field_tables(p, e, modulus))
        self._verify_axioms()

    @classmethod
    def of(cls, q: int) -> "FieldSpec":
        """Field with exactly q elements (q a prime power <= 9)."""
        if q < 2:
            raise ValueError(f"{q} is not a prime power")
        p = next(d for d in range(2, q + 1) if q % d == 0)
        e = 0
        m = q
        while m % p == 0:
            m //= p
            e += 1
        if m != 1:
            raise ValueError(f"{q} is not a prime power")
        return cls(p, e)

    def _verify_axioms(self) -> None:
        q = self.q
        rng = range(q)
        for a in rng:
            if self._add[a][0] != a or self._mul[a][1] != a:
                raise InternalCheckError("identity axiom failed")
            if a and self._mul[a][self._inv[a]] != 1:
                raise InternalCheckError(f"no multiplicative inverse for {a}")
        for a in rng:
            for b in rng:
                if self._add[a][b] != self._add[b][a] or self._mul[a][b] != self._mul[b][a]:
                    raise InternalCheckError("commutativity failed")
                for c in rng:
                    if self._add[self._add[a][b]][c] != self._add[a][self._add[b][c]]:
                        raise InternalCheckError("additive associativity failed")
                    if self._mul[self._mul[a][b]][c] != self._mul[a][self._mul[b][c]]:
                        raise InternalCheckError("multiplicative associativity failed")
                    if self._mul[a][self._add[b][c]] != self._add[self._mul[a][b]][self._mul[a][c]]:
                        raise InternalCheckError("distributivity failed")

    # -- scalar arithmetic -----------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._inv[a]

    @property
    def elements(self) -> range:
        return range(self.q)

    def __reduce__(self):
        return FieldSpec, (self.p, self.e)

    def __repr__(self) -> str:
        return f"FieldSpec(q={self.q})"


# ---------------------------------------------------------------------------
# matrix arithmetic


def zero_matrix(n: int) -> Matrix:
    return tuple((0,) * n for _ in range(n))


def mat_add(field: FieldSpec, a: Matrix, b: Matrix) -> Matrix:
    add = field._add
    return tuple(
        tuple(add[x][y] for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def mat_mul(field: FieldSpec, a: Matrix, b: Matrix) -> Matrix:
    add = field._add
    mul = field._mul
    n = len(a)
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
    m = [list(r) for r in rows]
    pivots: list[int] = []
    for col in range(n_cols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = field.inv(m[rank][col])
        m[rank] = [field.mul(inv, x) for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                factor = m[r][col]
                m[r] = [field.sub(x, field.mul(factor, y)) for x, y in zip(m[r], m[rank])]
        pivots.append(col)
    return m, pivots


def mat_rank(field: FieldSpec, m: Matrix) -> int:
    return len(_row_reduce(field, m, len(m[0]) if m else 0)[1])


def mat_inverse(field: FieldSpec, m: Matrix) -> Matrix:
    n = len(m)
    aug = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(m)]
    reduced, pivots = _row_reduce(field, aug, n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in reduced)


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
            vec[pc] = field.neg(m[r][f])
        basis.append(tuple(vec))
    return basis


# ---------------------------------------------------------------------------
# exhaustive enumerations


def _guard_matrix_space(field: FieldSpec, n: int) -> None:
    if n < 1:
        raise SizeGuardError("matrix order must be >= 1")
    if not ((n <= 3 and field.q <= 3) or (n <= 2 and field.q <= 9)):
        raise SizeGuardError(
            f"enumerating {field.q}^{n * n} matrices exceeds the desk-scale guard"
        )


def _all_matrices(field: FieldSpec, n: int):
    for entries in itertools.product(field.elements, repeat=n * n):
        yield tuple(entries[i * n : (i + 1) * n] for i in range(n))


@lru_cache(maxsize=None)
def nilpotent_matrices(field: FieldSpec, n: int) -> tuple[Matrix, ...]:
    """All nilpotent n x n matrices, in row-major lexicographic order."""
    _guard_matrix_space(field, n)
    return tuple(m for m in _all_matrices(field, n) if is_nilpotent(field, m))


@lru_cache(maxsize=None)
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
    if g < 1:
        raise SizeGuardError("tuple length g must be >= 1")
    if g > (_ORBIT_REACH_N1 if n == 1 else _ORBIT_REACH.get((n, field.q), 0)):
        raise SizeGuardError(
            f"orbit enumeration at n={n}, q={field.q}, g={g} exceeds the guard"
        )


def burnside_orbit_count(field: FieldSpec, n: int, g: int) -> int:
    """Number of orbits of nilpotent g-tuples under simultaneous conjugation,
    by averaging fixed-point counts over the whole group: each T fixes
    (number of nilpotent matrices commuting with T) ** g tuples."""
    _guard_orbit_space(field, n, g)
    nil = nilpotent_matrices(field, n)
    group = invertible_matrices(field, n)
    total = 0
    for t in group:
        fixed = sum(1 for m in nil if mat_mul(field, t, m) == mat_mul(field, m, t))
        total += fixed ** g
    if total % len(group):
        raise InternalCheckError("Burnside sum is not divisible by the group order")
    return total // len(group)


class OrbitRecord(_Record):
    """One orbit of nilpotent g-tuples: its lexicographically minimal member,
    size, and endomorphism-algebra profile: the algebra's dimension, and its
    residue field's size when it is local (None when it is not)."""

    __slots__ = ("representative", "size", "endo_dim", "residue_size")

    def __init__(self, representative: MatrixTuple, size: int, endo_dim: int,
                 residue_size: Optional[int]):
        super().__init__(representative, size, endo_dim, residue_size)

    @property
    def local(self) -> bool:
        return self.residue_size is not None


@lru_cache(maxsize=None)
def _conjugation_tables(field: FieldSpec, n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[Matrix, ...]]:
    """For each group element, the permutation it induces on the (sorted)
    nilpotent matrices by conjugation.  Nilpotents are closed under
    conjugation, so these are genuine permutations."""
    nil = nilpotent_matrices(field, n)  # already lex sorted
    index = {m: i for i, m in enumerate(nil)}
    perms = []
    for t in invertible_matrices(field, n):
        ti = mat_inverse(field, t)
        perms.append(
            tuple(index[mat_mul(field, mat_mul(field, ti, m), t)] for m in nil)
        )
    return tuple(perms), nil


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
    tuple, from the g * n^2 homogeneous equations E M = M E."""
    if not matrices:
        raise ValueError("commutant of an empty tuple is the full algebra; pass matrices")
    n = len(matrices[0])
    rows = []
    for m in matrices:
        for r in range(n):
            for c in range(n):
                row = [0] * (n * n)
                for b in range(n):
                    row[r * n + b] = field.add(row[r * n + b], m[b][c])
                for a in range(n):
                    row[a * n + c] = field.sub(row[a * n + c], m[r][a])
                rows.append(row)
    basis = _nullspace(field, rows, n * n)
    return [tuple(vec[i * n : (i + 1) * n] for i in range(n)) for vec in basis]


def _span(field: FieldSpec, basis: list[Matrix], n: int):
    """Every linear combination of the n x n matrices in ``basis``, one for
    each coefficient vector over the field."""
    for combo in itertools.product(field.elements, repeat=len(basis)):
        acc = zero_matrix(n)
        for coeff, bmat in zip(combo, basis):
            if coeff:
                acc = mat_add(field, acc, tuple(
                    tuple(field.mul(coeff, x) for x in row) for row in bmat))
        yield acc


def _guard_algebra(field: FieldSpec, basis: list[Matrix]) -> None:
    if field.q ** len(basis) > _ALGEBRA_LIMIT:
        raise SizeGuardError(
            f"commutant algebra with {field.q}^{len(basis)} elements exceeds the guard"
        )


def _endomorphism_profile(field: FieldSpec, matrices: MatrixTuple) -> tuple[int, Optional[int]]:
    """Dimension of the endomorphism algebra, and its residue field's size
    when it is local (None when it is not).

    One pass counts the non-units and, among them, the nilpotents.  A finite
    dimensional algebra is local exactly when every non-unit is nilpotent
    (the non-units are then its one maximal ideal, the radical), and a
    nilpotent is never a unit, so the algebra is local exactly when the two
    counts agree."""
    basis = commutant_basis(field, matrices)
    _guard_algebra(field, basis)
    k = len(basis)
    n = len(matrices[0])
    nonunits = nilpotents = 0
    for m in _span(field, basis, n):
        if mat_rank(field, m) < n:
            nonunits += 1
            nilpotents += is_nilpotent(field, m)
    if nonunits != nilpotents:
        return k, None
    order = field.q ** k
    if order % nonunits:
        raise InternalCheckError("radical size does not divide the algebra order")
    residue = order // nonunits
    s = 0
    m = residue
    while m > 1:
        if m % field.q:
            raise InternalCheckError("residue size is not a power of the field size")
        m //= field.q
        s += 1
    if s < 1:
        raise InternalCheckError("local algebra with trivial residue")
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
        out[d - 1][j] = field.neg(f[j])
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


def poly_divmod(field: FieldSpec, a: Sequence[int], b: Sequence[int]):
    """Polynomial division over the field, coefficients ascending."""
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    b = list(b)
    while b and b[-1] == 0:
        b.pop()
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [0] * max(len(a) - len(b) + 1, 0)
    lead_inv = field.inv(b[-1])
    while len(a) >= len(b):
        factor = field.mul(a[-1], lead_inv)
        shift = len(a) - len(b)
        quot[shift] = factor
        for i, y in enumerate(b):
            a[shift + i] = field.sub(a[shift + i], field.mul(factor, y))
        while a and a[-1] == 0:
            a.pop()
    return quot, a


def is_irreducible(field: FieldSpec, f: Sequence[int]) -> bool:
    """Trial-division irreducibility for a monic polynomial over the field."""
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    d = len(f) - 1
    if d < 1:
        return False
    if d == 1:
        return True
    for e in range(1, d // 2 + 1):
        for tail in itertools.product(field.elements, repeat=e):
            divisor = list(tail) + [1]
            _, rem = poly_divmod(field, f, divisor)
            if not rem:
                return False
    return True


def monic_irreducibles(field: FieldSpec, d: int, exclude_x: bool = True) -> list[tuple[int, ...]]:
    """Enumerate monic irreducible polynomials of degree d (ascending
    coefficients), excluding the monomial x by default."""
    out = []
    for tail in itertools.product(field.elements, repeat=d):
        f = tuple(tail) + (1,)
        if exclude_x and d == 1 and f[0] == 0:
            continue
        if is_irreducible(field, f):
            out.append(f)
    return out


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
    the algebra guard refuses a commutant past ``_ALGEBRA_LIMIT`` elements
    before any is enumerated."""
    f = tuple(f)
    d = len(f) - 1
    if d < 1 or f[-1] != 1:
        raise ValueError("f must be monic of degree >= 1")
    if any(not 0 <= c < field.q for c in f):
        raise ValueError("f has coefficients outside the field")
    _guard_commutant_order(field, d, lam)
    if d > 1 and not is_irreducible(field, f):
        raise ValueError("f must be irreducible")
    basis = commutant_basis(field, (jordan_type_matrix(field, f, lam),))
    _guard_algebra(field, basis)
    return sum(1 for m in _span(field, basis, d * lam.weight) if is_nilpotent(field, m))
