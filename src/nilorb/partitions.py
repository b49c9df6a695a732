"""Integer partitions and the partition-indexed q-quantities.

Covers partition enumeration (reverse-lexicographic, for deterministic
series assembly), conjugation, the inner product computed by two independent
routes, the partition weights, the q-binomials and the count of monic
irreducible polynomials of a given degree, times that degree.  The Moebius
function and ``divisors`` live in ``exactnum``, which cancels cyclotomic
factors with them, and are imported here.

The X**n coefficient of the orbit generating series is held as its integer
numerator over the closed-form denominator D_n = (q - 1)(q**2 - 1)...(q**n - 1),
and there are two routes to it that share no formula.  The partition route
sums one weight per partition of n, a centralizer quotient
(``orbit_weight``, ``inner_product``): D_n divided by the factors q**j - 1
of the centralizer order, one linear pass each.  The column route
(``column_sum``, ``column_weight``) sums over the column heights of the
partitions with q-binomials, and needs no division (J. Hua, *Counting
representations of quivers over finite fields*, J. Algebra 226, 2000).
"""

from __future__ import annotations

from functools import lru_cache

from .exactnum import InternalCheckError, PolyQ, _Record, divisors, mobius


class Partition(_Record):
    """Weakly decreasing sequence of positive integers; () is the partition of 0."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(parts)
        for i, p in enumerate(parts):
            if type(p) is not int:  # a bool is an int too, but no part
                raise TypeError(f"partition parts must be ints, got {type(p).__name__}")
            if p < 1:
                raise ValueError(f"partition parts must be >= 1, got {p}")
            if i and parts[i - 1] < p:
                raise ValueError(f"parts must be weakly decreasing: {parts}")
        super().__init__(parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram: part i counts original parts >= i."""
        if not self.parts:
            return self
        out = []
        for i in range(1, self.parts[0] + 1):
            out.append(sum(1 for p in self.parts if p >= i))
        return Partition(out)

    def exponential_form(self) -> dict[int, int]:
        """Map part value -> multiplicity, finitely supported."""
        mult: dict[int, int] = {}
        for p in self.parts:
            mult[p] = mult.get(p, 0) + 1
        return mult

    def __iter__(self):
        return iter(self.parts)

    def __repr__(self) -> str:
        return f"Partition{self.parts}"


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n, exactly once, in reverse-lexicographic order."""
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    return [Partition(p) for p in _parts_desc(n, n)]


def _parts_desc(n: int, max_part: int):
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _parts_desc(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    """p(n) by the pentagonal-number recurrence (independent of enumeration),
    filled in from p(0) upward, so that no n recurses."""
    p = [1]
    for m in range(1, n + 1):
        total, k = 0, 1
        while (g1 := k * (3 * k - 1) // 2) <= m:
            sign = 1 if k % 2 else -1
            g2 = g1 + k  # k(3k + 1)/2
            total += sign * (p[m - g1] + (p[m - g2] if g2 <= m else 0))
            k += 1
        p.append(total)
    return p[n] if n >= 0 else 0


def inner_product(lam: Partition, mu: Partition) -> int:
    """Sum of products of conjugate parts.

    Computed by both available routes -- conjugate-partition sum, and the
    min-weighted double sum over part multiplicities -- and cross-asserted,
    so every call re-verifies their equivalence.
    """
    lc = lam.conjugate().parts
    mc = mu.conjugate().parts
    via_conjugates = sum(a * b for a, b in zip(lc, mc))

    em = lam.exponential_form()
    en = mu.exponential_form()
    via_multiplicities = sum(
        min(i, j) * mi * nj for i, mi in em.items() for j, nj in en.items()
    )

    if via_conjugates != via_multiplicities:
        raise InternalCheckError(
            f"inner product routes disagree on {lam}, {mu}: "
            f"{via_conjugates} != {via_multiplicities}"
        )
    return via_conjugates


@lru_cache(maxsize=None)
def weight_denominator(n: int) -> PolyQ:
    """D_n = (q - 1)(q**2 - 1)...(q**n - 1), D_0 = 1: a multiple of the
    denominator of every partition weight of n, because a q-multinomial
    coefficient is a polynomial."""
    out = PolyQ([1])
    for j in range(1, n + 1):
        out = out.shift(j) - out
    return out


def orbit_weight(lam: Partition, g: int) -> PolyQ:
    """Weight of a partition of n in the orbit generating series, as its
    integer numerator over D_n = weight_denominator(n).

    The count of g-tuples of nilpotent matrices commuting with a fixed
    regular block of Jordan type lam, divided by the order of its
    centralizer, q**(<lam,lam> - sum m(m+1)/2) times the product over part
    multiplicities m of (q - 1)...(q**m - 1).  So the numerator is D_n
    divided by each q**j - 1, j <= m, for each m, then shifted by
    g(<lam,lam> - length) - <lam,lam> + sum m(m+1)/2, which is at least
    sum m(m-1)/2 >= 0 because length = sum m.
    """
    if lam.weight < 1:
        raise ValueError("orbit weight needs a nonempty partition")
    if g < 1:
        raise ValueError("tuple length g must be >= 1")
    ip = inner_product(lam, lam)
    num, shift = weight_denominator(lam.weight), g * (ip - lam.length) - ip
    for m in lam.exponential_form().values():
        shift += m * (m + 1) // 2
        for j in range(1, m + 1):
            num = num.div_q_power_minus_one(j)
    return num.shift(shift)


# -- the column route: no division ---------------------------------------
#
# Write a partition of n by its column heights c_1 >= c_2 >= ... > 0, with
# m_j = c_j - c_(j+1) (c_(r+1) = 0).  Then <lam,lam> is the sum of the c_j**2,
# the length is c_1, and the product of the D_(m_j) in the centralizer order
# divides D_(c_1) with quotient the product of the q-binomials
# [c_j; c_(j+1)]_q.  So the numerator over D_n of the X**n coefficient is
#     P_n = sum over l of q**(-g l) (q**(l+1) - 1)...(q**n - 1) G(n, l),
# where G(s, c) sums over the column heights of the partitions of s with
# c_1 = c.


@lru_cache(maxsize=None)
def q_binomial(n: int, k: int) -> PolyQ:
    """The Gaussian binomial [n; k]_q, 0 <= k <= n, by the q-Pascal rule
    [n; k] = [n-1; k-1] + q**k [n-1; k]."""
    if not 0 <= k <= n:
        raise ValueError(f"q_binomial needs 0 <= k <= n, got n={n}, k={k}")
    if k in (0, n):
        return PolyQ.q_power(0)
    return q_binomial(n - 1, k - 1) + q_binomial(n - 1, k).shift(k)


def column_sum(g: int, rows, s: int, c: int) -> PolyQ:
    """G(s, c) for 1 <= c <= s: the sum over the column heights
    c = c_1 >= c_2 >= ... > 0 of the partitions of s of
    q**((g-1) sum c_j**2) times the product over j of
    [c_j; c_(j+1)]_q q**(m_j (m_j + 1) / 2).

    ``rows[t][c']`` is G(t, c') for t < s, with G(0, 0) = 1.  Peeling off the
    first column gives G(s, c) = q**((g-1) c**2) times the sum over c' of
    [c; c']_q q**((c-c')(c-c'+1)/2) G(s - c, c'), where c' = 0 only ends
    the partition (s = c)."""
    total = PolyQ()
    for c2 in range(0 if c == s else 1, min(c, s - c) + 1):
        m = c - c2
        total = total + (q_binomial(c, c2) * rows[s - c][c2]).shift(m * (m + 1) // 2)
    return total.shift((g - 1) * c * c)


def column_weight(g: int, row, n: int) -> PolyQ:
    """P_n from ``row[l]`` = G(n, l), l = 1..n, by Horner's rule in the
    factors q**l - 1: each step is a shift, a subtraction and an addition.
    The shift by -g l is exact: each term of G(n, l) has q-exponent at least
    (g-1) c_1**2 + (m_1 + m_2 + ...) >= (g-1) l + l."""
    acc = PolyQ()
    for l in range(1, n + 1):
        acc = acc.shift(l) - acc + row[l].shift(-g * l)
    return acc


# ---------------------------------------------------------------------------
# number theory


def monic_irreducible_numerator(d: int) -> PolyQ:
    """d times the number of monic irreducible polynomials of degree d with x
    excluded, as a polynomial in the field size: the sum over e | d of
    mobius(e) * (q**(d/e) - 1).

    It is the integer numerator of that count over d, whose coefficients
    are rational in general, though its values at prime powers are
    integers; the product route to log M weighs by it.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    total = PolyQ()
    for e in divisors(d):
        total = total + mobius(e) * PolyQ.q_power_minus_one(d // e)
    return total
