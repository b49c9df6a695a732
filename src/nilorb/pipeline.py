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
from functools import lru_cache
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
        if kind not in KINDS:
            raise ValueError(f"unknown kind {kind!r}")
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
    __slots__ = ("x_degree", "q_degree", "lhs", "rhs")

    def __init__(self, x_degree: int, q_degree: Optional[int], lhs: str, rhs: str):
        super().__init__(x_degree, q_degree, lhs, rhs)


# ---------------------------------------------------------------------------
# the weight series and its formal log


class _ChainMemo:
    """What the chain has built for one tuple length g, kept as prefixes.

    Row s of the column route's table (G(s, c) for c = 0..s), coefficient n
    of the weight series and of its log (held as their numerators over D_n
    and over q**n - 1), and the orbit count M(g, n), do not depend on the
    truncation order, so the longest prefix built so far serves every order.  A prefix is an immutable tuple that is
    only ever replaced by a longer one built aside, so a concurrent reader
    always sees a whole prefix; the lock keeps a late, shorter build from
    replacing a longer one.
    """

    __slots__ = ("columns", "weights", "logs", "orbits", "_lock")

    def __init__(self):
        one = PolyQ([1])
        self.columns, self.weights, self.logs, self.orbits = ((one,),), (one,), (PolyQ(),), ()
        self._lock = threading.Lock()

    def prefix(self, field: str, length: int, extend) -> tuple:
        """The prefix held in ``field``, first replaced by ``extend(prefix)``
        when it is shorter than ``length``."""
        have = getattr(self, field)
        if len(have) < length:
            have = extend(have)
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
    def extend(have):
        rows = list(have)
        for s in range(len(rows), order + 1):
            rows.append((PolyQ(),) + tuple(column_sum(g, rows, s, c) for c in range(1, s + 1)))
        return tuple(rows)

    return _memo(g).prefix("columns", order + 1, extend)


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


def _weight_coefficients(g: int, order: int) -> tuple[PolyQ, ...]:
    def extend(have):
        rows = _column_rows(g, order)
        out = list(have)
        for n in range(len(have), order + 1):
            out.append(column_weight(g, rows[n], n))
            mismatch = _weight_mismatch(g, n, out[n]) if n <= _WEIGHT_CHECK_ORDER else None
            if mismatch is not None:
                raise InternalCheckError(
                    f"weight routes disagree at g={g}, X^{n}, q^{mismatch.q_degree}: "
                    f"{mismatch.lhs} vs {mismatch.rhs}"
                )
        return tuple(out)

    return _memo(g).prefix("weights", order + 1, extend)[: order + 1]


def weight_series(g: int, order: int) -> tuple[PolyQ, ...]:
    """Numerators over D_n = weight_denominator(n) of the coefficients of
    X**0..X**order of the generating series whose X**n coefficient sums the
    partition weights of n (constant term 1)."""
    if g < 1:
        raise ValueError("tuple length g must be >= 1")
    if order < 0:
        raise ValueError("series order must be >= 0")
    return _weight_coefficients(g, order)


def _log_numerators(g: int, order: int) -> tuple[PolyQ, ...]:
    """Numerators over q**n - 1 of the coefficients of X**0..X**order of the
    formal log of the weight series."""
    return _memo(g).prefix(
        "logs", order + 1, lambda have: log_coefficients(_weight_coefficients(g, order), have)
    )[: order + 1]


def log_weight_coefficient(g: int, n: int) -> RationalFunctionQ:
    """Coefficient of X**n in the formal log of the weight series."""
    if g < 1 or n < 1:
        raise ValueError("g and n must be >= 1")
    return RationalFunctionQ(_log_numerators(g, n)[n], n)


# ---------------------------------------------------------------------------
# the counting polynomials


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def indecomposable_count(g: int, n: int) -> CountingPolynomial:
    """Count of indecomposable orbits: the double divisor sum over
    transported absolutely-indecomposable counts."""
    if g < 1 or n < 1:
        raise ValueError("g and n must be >= 1")
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


def _log_orbit_product_route(g: int, order: int) -> tuple[PolyQ, ...]:
    """Coefficients of log M from the product over degrees d of the weight
    series at (q**d, X**d) raised to the monic-irreducible count N_d: the
    log of that product is the sum over d of N_d * H(q**d, X**d), so the
    coefficient of X**n is the sum over d | n of N_d * H_(n/d)(q**d).  Each
    H_(n/d)(q**d) is its numerator over q**n - 1, so coefficient n is
    returned as its numerator over q**n - 1.

    Factors with d > order start at X**d and cannot affect coefficients up
    to the truncation, so the sum stops at d = order.
    """
    logs = _log_numerators(g, order)
    coeffs = [PolyQ()] * (order + 1)
    for d in range(1, order + 1):
        count = monic_irreducible_count(d)
        for k in range(1, order // d + 1):
            coeffs[k * d] = coeffs[k * d] + logs[k].adams(d) * count
    return tuple(coeffs)


def _log_orbit_component_route(g: int, order: int) -> tuple[PolyQ, ...]:
    """Coefficients of log M from the sum over n of I(g, n) * sum over k of
    X**(nk) / k, i.e. the log of the product of (1 - X**n) ** (-I(g, n))."""
    coeffs = [PolyQ()] * (order + 1)
    for n in range(1, order + 1):
        count = indecomposable_count(g, n).value
        for k in range(1, order // n + 1):
            coeffs[n * k] = coeffs[n * k] + count / k
    return tuple(coeffs)


def _log_orbit_routes(g: int, order: int) -> tuple[tuple[PolyQ, ...], Optional[Mismatch]]:
    """The coefficients of log M up to X**order by the component route, and
    the first X**n at which the product route disagrees (None if nowhere).

    exp is injective on series with constant term 0, so that is also the
    first X**n at which the two routes' orbit counts would differ.
    """
    via_product = _log_orbit_product_route(g, order)
    via_components = _log_orbit_component_route(g, order)
    for n in range(1, order + 1):
        a, b, den = via_product[n], via_components[n], PolyQ.q_power_minus_one(n)
        if a != b * den:
            return via_components, Mismatch(n, None, str(RationalFunctionQ(a, n)), str(b))
    return via_components, None


def orbit_count_series(g: int, order: int) -> tuple[CountingPolynomial, ...]:
    """Full orbit counts for n = 1..order: the exp of log M, once both
    routes to log M agree coefficientwise."""
    if g < 1 or order < 1:
        raise ValueError("g and order must be >= 1")
    counts = _memo(g).prefix("orbits", order, lambda _: _cross_asserted_orbit_counts(g, order))
    return counts[:order]


def _cross_asserted_orbit_counts(g: int, order: int) -> tuple[CountingPolynomial, ...]:
    logs, mismatch = _log_orbit_routes(g, order)
    if mismatch is not None:
        raise InternalCheckError(
            f"orbit-count routes disagree at g={g}, X^{mismatch.x_degree}: "
            f"{mismatch.lhs} vs {mismatch.rhs}"
        )
    out = []
    for n, poly in enumerate(exp_coefficients(logs)[1:], 1):
        _check_prime_power_positivity("M", g, n, poly)
        out.append(CountingPolynomial("M", g, n, poly))
    return tuple(out)


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
