"""Assembly of the orbit-counting polynomials: the chain.

The chain runs: weight series in X -> formal log -> Moebius sums giving the
absolutely-indecomposable counts A -> divisor sums giving the indecomposable
counts I -> the full orbit counts M.

The weight series is built by the column route, which needs no division,
and every run recomputes its coefficients up to X**_WEIGHT_CHECK_ORDER by
the partition route and asserts that the two agree; ``checks``
compares them up to any order, and holds the other identity verifiers.

Each coefficient is an integer ``PolyQ`` over a denominator known in closed
form: the weight series' X**n coefficient over D_n = (q - 1)...(q**n - 1),
its log's over n(q**n - 1), A and M over 1, I and log M over n.  So the
chain needs no rational arithmetic and no gcd, and each step is a product,
a sum or an exact division, which raises when it is not exact; a
``RationalFunctionQ`` is built only for kind H.

log M is always computed by two independent routes and cross-asserted
coefficientwise, so every run re-verifies the algebra that connects the
chain: the product route takes the log of the infinite product over
irreducible-polynomial degrees d of the weight series at (q**d, X**d),
straight from the log of the weight series; the component route takes the
I-weighted divisor sum.  exp is injective on series with constant term 0, so
one exp of the agreed log gives M.  Facts guaranteed by the mathematics
(polynomiality, integrality, degree bounds) are hard assertions; the open
nonnegativity question is only ever a report.

``request_outputs`` builds the payload that ``compute`` stores and prints,
so a cache hit, which loads none of this module, compiles none of it
either.
"""

from __future__ import annotations

import threading
from itertools import zip_longest
from math import gcd
from typing import Optional

from . import KINDS, poly_text
from .exactnum import (InexactDivisionError, InternalCheckError, PolyQ, RationalFunctionQ,
                       _Record, divisors, mobius)
from .partitions import (
    column_sum,
    column_weight,
    monic_irreducible_numerator,
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
    M), the tuple length g and the matrix order n, and its integer numerator
    ``value`` over the positive integer ``denominator``.  A and M have
    integer coefficients, so their denominator is 1; I's divides n, and
    shares no factor with every coefficient of its numerator."""

    __slots__ = ("kind", "g", "n", "value", "denominator")

    def __init__(self, kind: str, g: int, n: int, value: PolyQ, denominator: int = 1):
        if kind not in KINDS or kind == "H":
            raise ValueError(f"no counting polynomial of kind {kind!r}")
        super().__init__(kind, g, n, value, denominator)

    @property
    def coefficient_texts(self) -> list[str]:
        """The text of each coefficient, as ``fraction_texts`` gives it."""
        return fraction_texts(self.value.numerators, self.denominator)

    @property
    def coefficient_list(self) -> tuple[int, ...]:
        """Ascending integer coefficients (kinds with integral values)."""
        if self.denominator != 1:
            raise ValueError(f"{self.kind}_{self.g}({self.n},q) has non-integral coefficients")
        return self.value.numerators

    def payload(self) -> dict:
        """The count as ``compute`` stores and prints it."""
        return {"kind": self.kind, "g": self.g, "n": self.n, "coeffs": self.coefficient_texts,
                "degree": self.value.degree()}

    def __str__(self) -> str:
        return f"{self.kind}_{self.g}({self.n},q) = {poly_text(self.coefficient_texts)}"


def fraction_texts(numerators, d: int) -> list[str]:
    """The text of a / d for each integer a of ``numerators``, for an integer
    d >= 1: ``"a"`` or ``"a/b"`` in lowest terms, the sign on the numerator."""
    texts = []
    for a in numerators:
        c = gcd(a, d)
        texts.append(str(a // c) if c == d else f"{a // c}/{d // c}")
    return texts


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
    series and of its log, as their numerators over D_n and over
    n(q**n - 1); ``orbit_logs`` holds n times coefficient n of log M, as
    agreed by its two routes; ``a_counts``, ``i_counts`` and ``orbits``
    hold A(g, n), I(g, n) and M(g, n) at index n - 1.  None of these
    depends on the truncation order, so the longest prefix built so far
    serves every order.  A prefix is an immutable tuple that is only ever
    replaced by a longer one built aside, so a concurrent reader always sees
    a whole prefix; the lock keeps a late, shorter build from replacing a
    longer one.
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
    """Numerators K_n over n(q**n - 1) of the coefficients of X**0..X**order
    of the formal log of the weight series."""
    def log(n, have):
        weights = weight_series(g, n)
        try:
            return log_coefficients(weights, have)[n]
        except InternalCheckError as exc:  # it names X^n, and g is added
            raise InternalCheckError(f"at g={g}, {exc}") from None

    return _memo(g).grown("logs", order + 1, log)[: order + 1]


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
    log coefficients.  The log coefficient H_(n/d)(q**d) is K_(n/d)(q**d)
    over n(q**n - 1) / d, so A is the sum over d of mu(d) K_(n/d)(q**d),
    times q - 1, divided by q**n - 1 and then by n.
    Polynomiality, the degree bound (g-1)*n*n and integrality are
    mathematically guaranteed, so violations raise.
    """
    if g < 1 or n < 1:
        raise ValueError("g and n must be >= 1")
    return _memo(g).grown("a_counts", n, lambda k, _: _absolutely_indecomposable(g, k + 1))[n - 1]


def _absolutely_indecomposable(g: int, n: int) -> CountingPolynomial:
    logs = _log_numerators(g, n)
    total = PolyQ()
    for d in divisors(n):
        mu = mobius(d)
        if mu:
            total = total + logs[n // d].adams(d) * mu
    try:
        poly = (total.shift(1) - total).div_q_power_minus_one(n)
    except InexactDivisionError:
        raise InternalCheckError(f"non-polynomial result for A at g={g}, n={n}") from None
    if poly.degree() > (g - 1) * n * n:
        raise InternalCheckError(
            f"degree bound exceeded for A at g={g}, n={n}: "
            f"{poly.degree()} > {(g - 1) * n * n}"
        )
    try:
        poly = poly / n
    except InexactDivisionError:
        raise InternalCheckError(f"non-integral coefficients for A at g={g}, n={n}") from None
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
    """I = the sum over d | n and r | d of mu(d/r) A_(n/d)(q**r) / d, which
    has rational coefficients in general (I_2(6, q) has 1/3 and 15/2): it
    is the integer numerator of the sum times n, over n, both divided by
    their common factor."""
    total = PolyQ()
    for d in divisors(n):
        a = absolutely_indecomposable_count(g, n // d).value
        for r in divisors(d):
            mu = mobius(d // r)
            if mu:
                total = total + a.adams(r) * (mu * (n // d))
    c = gcd(n, *total.numerators)
    cp = CountingPolynomial("I", g, n, total / c, n // c)
    _check_prime_power_positivity(cp)
    return cp


def _check_prime_power_positivity(cp: CountingPolynomial) -> None:
    """Assert that cp takes positive integer values at the check points:
    its numerator's value at q0 is a positive multiple of its denominator."""
    for q0 in _CHECK_POINTS:
        v = cp.value.at(q0)
        if v <= 0 or v % cp.denominator:
            raise InternalCheckError(
                f"{cp.kind} at g={cp.g}, n={cp.n} evaluates to "
                f"{fraction_texts((v,), cp.denominator)[0]} at q={q0}; "
                "expected a positive integer"
            )


# -- the two routes to the full orbit counts --------------------------------


def _log_orbit_product_coefficient(g: int, n: int) -> PolyQ:
    """Coefficient n of log M from the product over degrees d of the weight
    series at (q**d, X**d) raised to the monic-irreducible count N_d: the
    log of that product is the sum over d of N_d * H(q**d, X**d), so the
    coefficient of X**n is the sum over d | n of N_d * H_(n/d)(q**d).  Each
    H_(n/d)(q**d) is K_(n/d)(q**d) over n(q**n - 1) / d, so the coefficient
    is returned as its numerator over n(q**n - 1), the sum over d of
    (d N_d)(q) K_(n/d)(q**d)."""
    logs = _log_numerators(g, n)
    total = PolyQ()
    for d in divisors(n):
        total = total + monic_irreducible_numerator(d) * logs[n // d].adams(d)
    return total


def _log_orbit_component_coefficient(g: int, n: int) -> PolyQ:
    """n times coefficient n of log M, from the sum over m of I(g, m) * sum
    over k of X**(mk) / k, i.e. the log of the product of
    (1 - X**m) ** (-I(g, m)): the sum over k | n of (n/k) I(g, n/k), where
    m I(g, m) is I's numerator times m over its denominator."""
    total = PolyQ()
    for k in divisors(n):
        cp = indecomposable_count(g, n // k)
        total = total + cp.value * (cp.n // cp.denominator)
    return total


def _orbit_log_mismatch(g: int, n: int, via_components: PolyQ) -> Optional[Mismatch]:
    """The product route's coefficient n of log M and the component route's
    ``via_components`` (n times that coefficient), if the two differ, or
    None.

    exp is injective on series with constant term 0, so the first X**n at
    which the logs differ is also the first at which the two routes' orbit
    counts would differ.
    """
    via_product = _log_orbit_product_coefficient(g, n)
    if via_product != via_components.shift(n) - via_components:
        return Mismatch(n, None, str(RationalFunctionQ(via_product, n)),
                        poly_text(fraction_texts(via_components.numerators, n)))
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
    try:
        poly = exp_coefficients(logs[: n + 1], known)[n]
    except InexactDivisionError:
        raise InternalCheckError(f"non-integral coefficients for M at g={g}, n={n}") from None
    cp = CountingPolynomial("M", g, n, poly)
    _check_prime_power_positivity(cp)
    return cp


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


def request_outputs(kind: str, g: int, mode: str, value: int) -> dict:
    """The deterministic payload of a ``compute`` request (no timing): the
    values of ``kind`` at g for n = value (mode "n") or n = 1..value (mode
    "N"), each H as the integer pair it prints."""
    ns = range(1, value + 1) if mode == "N" else [value]
    if kind == "H":
        rfs = [(n, log_weight_coefficient(g, n)) for n in ns]
        return {"rational_functions": [
            {"kind": "H", "g": g, "n": n, "num_coeffs": [str(c) for c in rf.num.numerators],
             "den_coeffs": [str(c) for c in rf.den.numerators]} for n, rf in rfs]}
    polys = [counting_value(kind, g, n).payload() for n in ns]
    if mode == "N" and kind == "M":
        # generating-series convention: the X^0 term 1 leads the list
        polys.insert(0, CountingPolynomial("M", g, 0, PolyQ([1])).payload())
    return {"polynomials": polys}


def __getattr__(name: str):
    """The verifiers, the scan and their reports, which ``checks`` holds,
    resolve here too; the first lookup loads that module."""
    from . import _EXPORTS

    if name not in _EXPORTS["checks"]:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import checks

    return getattr(checks, name)
