"""Assembly of the orbit-counting polynomials and the identity verifiers.

The chain runs: per-partition weights -> weight series in X -> formal log ->
Moebius sums giving the absolutely-indecomposable counts A -> divisor sums
giving the indecomposable counts I -> the full orbit counts M.

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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

from . import KINDS
from .exactnum import (
    InexactDivisionError,
    InternalCheckError,
    PolyQ,
    RationalFunctionQ,
)
from .partitions import (
    divisors,
    mobius,
    monic_irreducible_count,
    orbit_weight,
    partitions_of,
    weight_denominator,
)
from .series import exp_coefficients, log_coefficients

#: prime powers where positivity of the counts is spot-checked at construction
_CHECK_POINTS = (2, 3, 4, 5)


@dataclass(frozen=True)
class CountingPolynomial:
    """A counting polynomial (or rational function, for kind H) with its
    provenance: which count it is, the tuple length g and the matrix order n.
    """

    kind: str
    g: int
    n: int
    value: Union[PolyQ, RationalFunctionQ]

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")

    @property
    def coefficient_list(self) -> tuple[int, ...]:
        """Ascending integer coefficients (kinds with integral values)."""
        poly = self.value if isinstance(self.value, PolyQ) else self.value.as_poly()
        if not poly.is_integral:
            raise ValueError(f"{self.kind}_{self.g}({self.n},q) has non-integral coefficients")
        return poly.numerators

    def degree(self) -> int:
        if isinstance(self.value, PolyQ):
            return self.value.degree()
        raise ValueError("degree of a non-polynomial count")

    def evaluate(self, q0) -> Fraction:
        return self.value.evaluate(q0)

    def __str__(self) -> str:
        return f"{self.kind}_{self.g}({self.n},q) = {self.value}"


@dataclass(frozen=True)
class Mismatch:
    x_degree: int
    q_degree: Optional[int]
    lhs: str
    rhs: str


@dataclass(frozen=True)
class VerificationReport:
    identity: str
    g: int
    x_order: int
    q_order: Optional[int]
    passed: bool
    mismatch: Optional[Mismatch]

    def __post_init__(self):
        if not self.passed and self.mismatch is None:
            raise InternalCheckError("failed report without a mismatch location")


@dataclass(frozen=True)
class ScanReport:
    g: int
    n_max: int
    negative_terms: tuple[tuple[int, int, int], ...]
    polynomials: tuple[CountingPolynomial, ...]

    @property
    def all_nonnegative(self) -> bool:
        return not self.negative_terms


# ---------------------------------------------------------------------------
# the weight series and its formal log


class _ChainMemo:
    """What the chain has built for one tuple length g, kept as prefixes.

    Coefficient n of the weight series and of its log (held as their
    numerators over D_n and over q**n - 1), and the orbit count M(g, n), do
    not depend on the truncation order, so the longest prefix
    built so far serves every order.  A prefix is an immutable tuple that is
    only ever replaced by a longer one built aside, so a concurrent reader
    always sees a whole prefix; the lock keeps a late, shorter build from
    replacing a longer one.
    """

    __slots__ = ("weights", "logs", "orbits", "_lock")

    def __init__(self):
        self.weights, self.logs, self.orbits = (PolyQ([1]),), (PolyQ(),), ()
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


def _weight_coefficients(g: int, order: int) -> tuple[PolyQ, ...]:
    def extend(have):
        return have + tuple(
            sum((orbit_weight(lam, g) for lam in partitions_of(n)), PolyQ())
            for n in range(len(have), order + 1)
        )

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
    if n < 1:
        raise ValueError("n must be >= 1")
    return RationalFunctionQ(_log_numerators(g, n)[n], PolyQ.q_power_minus_one(n))


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
        total = total + logs[n // d].adams(d) * Fraction(mu, d)
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
        total = total + inner * Fraction(1, d)
    _check_prime_power_positivity("I", g, n, total)
    return CountingPolynomial("I", g, n, total)


def _check_prime_power_positivity(kind: str, g: int, n: int, poly: PolyQ) -> None:
    for q0 in _CHECK_POINTS:
        v = poly.evaluate(q0)
        if v.denominator != 1 or v <= 0:
            raise InternalCheckError(
                f"{kind} at g={g}, n={n} evaluates to {v} at q={q0}; "
                "expected a positive integer"
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
            coeffs[n * k] = coeffs[n * k] + count * Fraction(1, k)
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
            return via_components, Mismatch(n, None, str(RationalFunctionQ(a, den)), str(b))
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


def log_weight_value(g: int, n: int) -> CountingPolynomial:
    """The kind-H value: the X**n log coefficient as a rational function."""
    if g < 1 or n < 1:
        raise ValueError("g and n must be >= 1")
    return CountingPolynomial("H", g, n, log_weight_coefficient(g, n))


def counting_value(kind: str, g: int, n: int) -> CountingPolynomial:
    if kind == "A":
        return absolutely_indecomposable_count(g, n)
    if kind == "I":
        return indecomposable_count(g, n)
    if kind == "M":
        return orbit_count(g, n)
    if kind == "H":
        return log_weight_value(g, n)
    raise ValueError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# identity verifiers


def verify_product_routes(g: int, order: int) -> VerificationReport:
    """Compare the two independent constructions of log M coefficientwise,
    reporting rather than raising on mismatch."""
    if g < 1 or order < 1:
        raise ValueError("g and order must be >= 1")
    _, mismatch = _log_orbit_routes(g, order)
    return VerificationReport("thm5-routes", g, order, None, mismatch is None, mismatch)


def _bi_one(x_order: int, q_order: int) -> list[list[int]]:
    """The series 1 as rows: row m holds the coefficients of q**0..q**q_order
    in the X**m coefficient."""
    rows = [[0] * (q_order + 1) for _ in range(x_order + 1)]
    rows[0][0] = 1
    return rows


def _bi_mul_power(rows: list[list[int]], n: int, c: int, a: int) -> None:
    """Multiply ``rows`` in place by (1 - q**c X**n) ** a in the doubly
    truncated ring, in one pass over the generalised binomial series
    sum_j (-1)**j C(a, j) q**(cj) X**(nj).  Its integer coefficients follow
    b_j = b_(j-1) (j-1-a) / j; terms past either truncation are dropped.
    Row m gains multiples of rows m - nj below it, so m runs downwards and
    every row read is still the one before the multiplication."""
    q_order = len(rows[0]) - 1
    terms, b = [], 1
    for j in range(1, (len(rows) - 1) // n + 1):
        b = b * (j - 1 - a) // j
        if b == 0 or c * j > q_order:
            break
        terms.append((n * j, c * j, b))
    for m in range(len(rows) - 1, n - 1, -1):
        row = rows[m]
        for shift, power, b in terms:
            if shift > m:
                break
            row[power:] = [x + b * y for x, y in zip(row[power:], rows[m - shift])]


def _expand_weight_series(g: int, x_order: int, q_order: int) -> list[list[int]]:
    """The weight series' coefficients of X**0..X**x_order as rows of the
    coefficients of q**0..q**q_order: each numerator p_n divided by D_n as a
    power series over the integers, exact at every step because
    D_n(0) = (-1)**n."""
    rows = []
    for n, p in enumerate(weight_series(g, x_order)):
        den = weight_denominator(n).numerators
        out = []
        for k in range(q_order + 1):
            acc = p.numerators[k] if k < len(p.numerators) else 0
            for j in range(1, min(k, len(den) - 1) + 1):
                acc -= den[j] * out[k - j]
            out.append(acc * den[0])
        rows.append(out)
    return rows


def _compare_rows(
    identity: str,
    g: int,
    x_order: int,
    q_order: int,
    lhs: list[list[int]],
    rhs: list[list[int]],
) -> VerificationReport:
    for n in range(x_order + 1):
        if lhs[n] == rhs[n]:
            continue
        k = next(k for k, (a, b) in enumerate(zip(lhs[n], rhs[n])) if a != b)
        return VerificationReport(
            identity, g, x_order, q_order, False,
            Mismatch(n, k, str(lhs[n][k]), str(rhs[n][k])),
        )
    return VerificationReport(identity, g, x_order, q_order, True, None)


def verify_triple_product(
    g: int,
    x_order: int,
    q_order: int,
    perturb: Optional[tuple[int, int, int]] = None,
) -> VerificationReport:
    """Check that the weight series equals the triple product over
    (n, s, i) of (1 - q**(s+i) X**n) ** a(n, s), where a(n, s) are the
    coefficients of the absolutely-indecomposable counts.

    Both sides are expanded in X up to x_order and q up to q_order; factors
    with s + i > q_order are 1 modulo the q-truncation and are skipped.
    Each factor is applied in one pass through its binomial series, so the
    right side stays in integer arithmetic on rows of q-coefficients.
    ``perturb = (n, s, d)`` adds d to the exponent a(n, s) -- a
    deliberate-corruption hook for negative-control testing; it must lie
    inside the window (n <= x_order, s <= q_order) and have d != 0.
    """
    if x_order < 1 or q_order < 1:
        raise ValueError("truncation orders must be >= 1")
    tables: dict[int, list[int]] = {
        n: list(coefficient_table(g, n)) for n in range(1, x_order + 1)
    }
    if perturb is not None:
        pn, ps, delta = perturb
        # a zero delta, or a coefficient past q**q_order, changes nothing
        # inside the window, so the control could not fail
        if not (1 <= pn <= x_order and 0 <= ps <= q_order) or delta == 0:
            raise ValueError("perturbation outside the verified window")
        table = tables[pn]
        table.extend([0] * (ps + 1 - len(table)))
        table[ps] += delta

    rhs = _bi_one(x_order, q_order)
    for n in range(1, x_order + 1):
        for s, a in enumerate(tables[n]):
            if a == 0 or s > q_order:
                continue
            for i in range(q_order - s + 1):
                _bi_mul_power(rhs, n, s + i, a)

    lhs = _expand_weight_series(g, x_order, q_order)
    return _compare_rows("kwi", g, x_order, q_order, lhs, rhs)


def verify_g1_product(x_order: int, q_order: int) -> VerificationReport:
    """At g = 1 the weight series equals the plain double product of
    (1 - q**i X**n); this builds that product directly, without going
    through the counting polynomials."""
    if x_order < 1 or q_order < 1:
        raise ValueError("truncation orders must be >= 1")
    rhs = _bi_one(x_order, q_order)
    for n in range(1, x_order + 1):
        for i in range(q_order + 1):
            _bi_mul_power(rhs, n, i, 1)
    lhs = _expand_weight_series(1, x_order, q_order)
    return _compare_rows("g1-product", 1, x_order, q_order, lhs, rhs)


def scan_nonnegativity(g: int, n_max: int) -> ScanReport:
    """List every negative coefficient of the absolutely-indecomposable
    counts for n up to n_max.  An empty list means the nonnegativity
    conjecture holds in range; a nonempty one is a finding, not an error."""
    if g < 2:
        raise ValueError("the nonnegativity scan needs g >= 2")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    negatives = []
    polys = []
    for n in range(1, n_max + 1):
        cp = absolutely_indecomposable_count(g, n)
        polys.append(cp)
        for s, c in enumerate(cp.coefficient_list):
            if c < 0:
                negatives.append((n, s, c))
    return ScanReport(g, n_max, tuple(negatives), tuple(polys))
