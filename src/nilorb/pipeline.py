"""Assembly of the orbit-counting polynomials: the chain.

The chain runs: weight series in X -> formal log -> Moebius sums giving the
absolutely-indecomposable counts A -> divisor sums giving the indecomposable
counts I -> the full orbit counts M.

The weight series is built by the column route, which needs no division,
and every run recomputes its coefficients up to X**_WEIGHT_CHECK_ORDER by
the partition route and asserts that the two agree; ``checks``
compares them up to any order, and holds the other identity verifiers.

Each coefficient is a ``PolyQ`` over a denominator known in closed form (the
weight series' X**n coefficient over D_n = (q - 1)...(q**n - 1), its log's
over q**n - 1, 1 from A on), so the chain needs no rational-function
arithmetic and no gcd; a ``RationalFunctionQ`` is built only for kind H.

log M is always computed by two independent routes and cross-asserted
coefficientwise, so every run re-verifies the algebra that connects the
chain: the product route takes the log of the infinite product over
irreducible-polynomial degrees d of the weight series at (q**d, X**d),
straight from the log of the weight series; the component route takes the
I-weighted divisor sum.  exp is injective on series with constant term 0, so
one exp of the agreed log gives M.  Facts guaranteed by the mathematics
(polynomiality, integrality, degree bounds) are hard assertions; the open
nonnegativity question is only ever a report.
"""

from __future__ import annotations

import threading
from itertools import zip_longest
from typing import Optional

from . import KINDS
from .exactnum import (
    InexactDivisionError,
    InternalCheckError,
    PolyQ,
    RationalFunctionQ,
    _Record,
    ratio_text,
)
from .partitions import (
    column_sum,
    column_weight,
    divisors,
    mobius,
    monic_irreducible_count,
    orbit_weight,
    partitions_of,
)
from .series import exp_coefficients, log_coefficients

#: prime powers where positivity of the counts is spot-checked at construction
_CHECK_POINTS = (2, 3, 4, 5)
#: every run cross-asserts the two weight routes up to this X-degree
_WEIGHT_CHECK_ORDER = 6


class CountingPolynomial(_Record):
    """A counting polynomial with its provenance: which count it is (A, I or
    M), the tuple length g and the matrix order n."""

    __slots__ = ("kind", "g", "n", "value")

    def __init__(self, kind: str, g: int, n: int, value: PolyQ):
        if kind not in KINDS or kind == "H":
            raise ValueError(f"no counting polynomial of kind {kind!r}")
        super().__init__(kind, g, n, value)

    @property
    def coefficient_list(self) -> tuple[int, ...]:
        """Ascending integer coefficients (kinds with integral values)."""
        if not self.value.is_integral:
            raise ValueError(f"{self.kind}_{self.g}({self.n},q) has non-integral coefficients")
        return self.value.numerators

    def __str__(self) -> str:
        return f"{self.kind}_{self.g}({self.n},q) = {self.value}"


class Mismatch(_Record):
    """The first disagreement of two routes: at X**x_degree (and q**q_degree,
    or None), the two sides' texts."""

    __slots__ = ("x_degree", "q_degree", "lhs", "rhs")


# ---------------------------------------------------------------------------
# the weight series and its formal log


class _ChainMemo:
    """What the chain has built for one tuple length g, kept as prefixes.

    ``columns`` holds row s of the column route's table (G(s, c) for
    c = 0..s); ``weights`` and ``logs`` hold coefficient n of the weight
    series and of its log, as their numerators over D_n and over q**n - 1;
    ``orbit_logs`` holds coefficient n of log M, as agreed by its two
    routes; ``a_counts``, ``i_counts`` and ``orbits`` hold A(g, n), I(g, n)
    and M(g, n) at index n - 1.  None of these depends on the truncation
    order, so the longest prefix built so far serves every order.  A prefix
    is an immutable tuple that is only ever replaced by a longer one built
    aside, so a concurrent reader always sees a whole prefix; the lock
    keeps a late, shorter build from replacing a longer one.
    """

    __slots__ = ("columns", "weights", "logs", "orbit_logs", "a_counts", "i_counts", "orbits",
                 "_lock")

    def __init__(self):
        one = PolyQ([1])
        self.columns, self.weights = ((one,),), (one,)
        self.logs = self.orbit_logs = (PolyQ(),)
        self.a_counts = self.i_counts = self.orbits = ()
        self._lock = threading.Lock()

    def grown(self, field: str, length: int, step) -> tuple:
        """The prefix held in ``field``, first grown to ``length`` entries by
        appending step(k, entries before k) for each missing index k."""
        have = getattr(self, field)
        if len(have) < length:
            for k in range(len(have), length):
                have += (step(k, have),)
            with self._lock:
                if len(getattr(self, field)) < len(have):
                    setattr(self, field, have)
        return have


_MEMOS: dict[int, _ChainMemo] = {}


def _memo(g: int) -> _ChainMemo:
    return _MEMOS.get(g) or _MEMOS.setdefault(g, _ChainMemo())


def _column_rows(g: int, order: int) -> tuple[tuple[PolyQ, ...], ...]:
    """Rows 0..order of the column route's table: row s holds G(s, c) for
    c = 0..s, where G(s, 0) = 0 for s >= 1."""
    def row(s, rows):
        return (PolyQ(),) + tuple(column_sum(g, rows, s, c) for c in range(1, s + 1))

    return _memo(g).grown("columns", order + 1, row)


def _partition_weight(g: int, n: int) -> PolyQ:
    """The numerator over D_n of the X**n coefficient by the partition route."""
    return sum((orbit_weight(lam, g) for lam in partitions_of(n)), PolyQ())


def _weight_mismatch(g: int, n: int, via_columns: PolyQ) -> Optional[Mismatch]:
    """The first q-degree at which the column route's X**n numerator differs
    from the partition route's, or None."""
    a, b = via_columns.numerators, _partition_weight(g, n).numerators
    if a != b:
        for s, (x, y) in enumerate(zip_longest(a, b, fillvalue=0)):
            if x != y:
                return Mismatch(n, s, str(x), str(y))
    return None


def _weight(g: int, n: int) -> PolyQ:
    weight = column_weight(g, _column_rows(g, n)[n], n)
    mismatch = _weight_mismatch(g, n, weight) if n <= _WEIGHT_CHECK_ORDER else None
    if mismatch is not None:
        raise InternalCheckError(
            f"weight routes disagree at g={g}, X^{n}, q^{mismatch.q_degree}: "
            f"{mismatch.lhs} vs {mismatch.rhs}"
        )
    return weight


def weight_series(g: int, order: int) -> tuple[PolyQ, ...]:
    """Numerators over D_n = weight_denominator(n) of the coefficients of
    X**0..X**order of the generating series whose X**n coefficient sums the
    partition weights of n (constant term 1)."""
    if g < 1:
        raise ValueError("tuple length g must be >= 1")
    if order < 0:
        raise ValueError("series order must be >= 0")
    return _memo(g).grown("weights", order + 1, lambda n, _: _weight(g, n))[: order + 1]


def _log_numerators(g: int, order: int) -> tuple[PolyQ, ...]:
    """Numerators over q**n - 1 of the coefficients of X**0..X**order of the
    formal log of the weight series."""
    return _memo(g).grown(
        "logs", order + 1, lambda n, have: log_coefficients(weight_series(g, n), have)[n]
    )[: order + 1]


def log_weight_coefficient(g: int, n: int) -> RationalFunctionQ:
    """Coefficient of X**n in the formal log of the weight series."""
    if g < 1 or n < 1:
        raise ValueError("g and n must be >= 1")
    return RationalFunctionQ(_log_numerators(g, n)[n], n)


# ---------------------------------------------------------------------------
# the counting polynomials


def absolutely_indecomposable_count(g: int, n: int) -> CountingPolynomial:
    """Count of absolutely indecomposable orbits, as a polynomial in q.

    Built as (q - 1) times the Moebius-weighted divisor sum of transported
    log coefficients.  The log coefficient H_(n/d)(q**d) is its numerator
    over q**n - 1, so A is the sum of the transported numerators divided by
    (q**n - 1) / (q - 1) = 1 + q + ... + q**(n-1).  Polynomiality,
    integrality and the degree bound (g-1)*n*n are mathematically
    guaranteed, so violations raise.
    """
    if g < 1 or n < 1:
        raise ValueError("g and n must be >= 1")
    return _memo(g).grown("a_counts", n, lambda k, _: _absolutely_indecomposable(g, k + 1))[n - 1]


def _absolutely_indecomposable(g: int, n: int) -> CountingPolynomial:
    logs = _log_numerators(g, n)
    total = PolyQ()
    for d in divisors(n):
        mu = mobius(d)
        if mu == 0:
            continue
        total = total + logs[n // d].adams(d) * mu / d
    try:
        poly = total.exact_div(PolyQ([1] * n))
    except InexactDivisionError:
        raise InternalCheckError(f"non-polynomial result for A at g={g}, n={n}") from None
    if not poly.is_integral:
        raise InternalCheckError(f"non-integral coefficients for A at g={g}, n={n}")
    if poly.degree() > (g - 1) * n * n:
        raise InternalCheckError(
            f"degree bound exceeded for A at g={g}, n={n}: "
            f"{poly.degree()} > {(g - 1) * n * n}"
        )
    return CountingPolynomial("A", g, n, poly)


def coefficient_table(g: int, n: int) -> tuple[int, ...]:
    """Ascending integer coefficients of the absolutely-indecomposable count."""
    return absolutely_indecomposable_count(g, n).coefficient_list


def indecomposable_count(g: int, n: int) -> CountingPolynomial:
    """Count of indecomposable orbits: the double divisor sum over
    transported absolutely-indecomposable counts."""
    if g < 1 or n < 1:
        raise ValueError("g and n must be >= 1")
    return _memo(g).grown("i_counts", n, lambda k, _: _indecomposable(g, k + 1))[n - 1]


def _indecomposable(g: int, n: int) -> CountingPolynomial:
    total = PolyQ()
    for d in divisors(n):
        inner = PolyQ()
        for r in divisors(d):
            mu = mobius(d // r)
            if mu == 0:
                continue
            a = absolutely_indecomposable_count(g, n // d).value
            inner = inner + mu * a.adams(r)
        total = total + inner / d
    _check_prime_power_positivity("I", g, n, total)
    return CountingPolynomial("I", g, n, total)


def _check_prime_power_positivity(kind: str, g: int, n: int, poly: PolyQ) -> None:
    """Assert that poly takes positive integer values at the check points:
    the numerators' value at q0 is a positive multiple of the denominator."""
    for q0 in _CHECK_POINTS:
        v = poly.numerator_at(q0)
        if v <= 0 or v % poly.denominator:
            raise InternalCheckError(
                f"{kind} at g={g}, n={n} evaluates to {ratio_text(v, poly.denominator)} "
                f"at q={q0}; expected a positive integer"
            )


# -- the two routes to the full orbit counts --------------------------------


def _log_orbit_product_coefficient(g: int, n: int) -> PolyQ:
    """Coefficient n of log M from the product over degrees d of the weight
    series at (q**d, X**d) raised to the monic-irreducible count N_d: the
    log of that product is the sum over d of N_d * H(q**d, X**d), so the
    coefficient of X**n is the sum over d | n of N_d * H_(n/d)(q**d).  Each
    H_(n/d)(q**d) is its numerator over q**n - 1, so the coefficient is
    returned as its numerator over q**n - 1."""
    logs = _log_numerators(g, n)
    total = PolyQ()
    for d in divisors(n):
        total = total + logs[n // d].adams(d) * monic_irreducible_count(d)
    return total


def _log_orbit_component_coefficient(g: int, n: int) -> PolyQ:
    """Coefficient n of log M from the sum over m of I(g, m) * sum over k of
    X**(mk) / k, i.e. the log of the product of (1 - X**m) ** (-I(g, m)):
    the sum over k | n of I(g, n/k) / k."""
    total = PolyQ()
    for k in divisors(n):
        total = total + indecomposable_count(g, n // k).value / k
    return total


def _orbit_log_mismatch(g: int, n: int, via_components: PolyQ) -> Optional[Mismatch]:
    """The product route's coefficient n of log M and the component route's
    ``via_components``, if the two differ, or None.

    exp is injective on series with constant term 0, so the first X**n at
    which the logs differ is also the first at which the two routes' orbit
    counts would differ.
    """
    via_product = _log_orbit_product_coefficient(g, n)
    if via_product != via_components * PolyQ.q_power_minus_one(n):
        return Mismatch(n, None, str(RationalFunctionQ(via_product, n)), str(via_components))
    return None


def _orbit_log(g: int, n: int) -> PolyQ:
    log = _log_orbit_component_coefficient(g, n)
    mismatch = _orbit_log_mismatch(g, n, log)
    if mismatch is not None:
        raise InternalCheckError(
            f"orbit-count routes disagree at g={g}, X^{n}: {mismatch.lhs} vs {mismatch.rhs}"
        )
    return log


def orbit_count_series(g: int, order: int) -> tuple[CountingPolynomial, ...]:
    """Full orbit counts for n = 1..order: the exp of log M, once both
    routes to log M agree coefficientwise."""
    if g < 1 or order < 1:
        raise ValueError("g and order must be >= 1")
    return _memo(g).grown("orbits", order, lambda k, lower: _orbit_count(g, k + 1, lower))[:order]


def _orbit_count(g: int, n: int, lower: tuple[CountingPolynomial, ...]) -> CountingPolynomial:
    logs = _memo(g).grown("orbit_logs", n + 1, lambda m, _: _orbit_log(g, m))
    known = (PolyQ([1]),) + tuple(cp.value for cp in lower)
    poly = exp_coefficients(logs[: n + 1], known)[n]
    _check_prime_power_positivity("M", g, n, poly)
    return CountingPolynomial("M", g, n, poly)


def orbit_count(g: int, n: int) -> CountingPolynomial:
    return orbit_count_series(g, n)[n - 1]


def counting_value(kind: str, g: int, n: int) -> CountingPolynomial:
    """The counting polynomial of kind A, I or M; an H value is a rational
    function, which ``log_weight_coefficient`` gives."""
    if kind == "A":
        return absolutely_indecomposable_count(g, n)
    if kind == "I":
        return indecomposable_count(g, n)
    if kind == "M":
        return orbit_count(g, n)
    raise ValueError(f"no counting polynomial of kind {kind!r}")


def __getattr__(name: str):
    """The verifiers, the scan and their reports, which ``checks`` holds,
    resolve here too; the first lookup loads that module."""
    from . import _EXPORTS

    if name not in _EXPORTS["checks"]:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import checks

    return getattr(checks, name)
