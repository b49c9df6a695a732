"""Truncated formal power series in X with rational-function coefficients.

Supports the operations the counting pipeline needs: Cauchy product,
formal log/exp, powers with q-polynomial exponents, and the joint
substitution (X, q) -> (X**d, q**d).

Truncation orders are explicit and must match on binary operations; silent
precision loss is a classic computer-algebra bug, so mismatches fail loudly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

from .exactnum import PolyQ, RationalFunctionQ, RF_ONE, RF_ZERO, _coerce_rf

ExponentLike = Union[int, Fraction, PolyQ, RationalFunctionQ]


class TruncatedXSeries:
    """Series c_0 + c_1 X + ... + c_N X**N with RationalFunctionQ entries."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Iterable):
        c = tuple(_coerce_rf(x) for x in coeffs)
        if not c:
            raise ValueError("a truncated series needs at least the X^0 term")
        self._c = c

    @staticmethod
    def one(order: int) -> "TruncatedXSeries":
        return TruncatedXSeries([RF_ONE] + [RF_ZERO] * order)

    @property
    def order(self) -> int:
        return len(self._c) - 1

    @property
    def coefficients(self) -> tuple[RationalFunctionQ, ...]:
        return self._c

    def coefficient(self, n: int) -> RationalFunctionQ:
        if not 0 <= n <= self.order:
            raise ValueError(f"X^{n} is beyond the truncation order {self.order}")
        return self._c[n]

    def _check_order(self, other: "TruncatedXSeries") -> None:
        if self.order != other.order:
            raise ValueError(
                f"series order mismatch: {self.order} vs {other.order}"
            )

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "TruncatedXSeries") -> "TruncatedXSeries":
        self._check_order(other)
        return TruncatedXSeries([a + b for a, b in zip(self._c, other._c)])

    def __neg__(self) -> "TruncatedXSeries":
        return TruncatedXSeries([-a for a in self._c])

    def __sub__(self, other: "TruncatedXSeries") -> "TruncatedXSeries":
        self._check_order(other)
        return TruncatedXSeries([a - b for a, b in zip(self._c, other._c)])

    def __mul__(self, other: "TruncatedXSeries") -> "TruncatedXSeries":
        self._check_order(other)
        n = self.order
        out = [RF_ZERO] * (n + 1)
        for i, a in enumerate(self._c):
            if a.is_zero:
                continue
            for j in range(n + 1 - i):
                b = other._c[j]
                if not b.is_zero:
                    out[i + j] = out[i + j] + a * b
        return TruncatedXSeries(out)

    def scale(self, x) -> "TruncatedXSeries":
        x = _coerce_rf(x)
        return TruncatedXSeries([a * x for a in self._c])

    # -- log / exp -----------------------------------------------------------

    def log(self) -> "TruncatedXSeries":
        """Formal logarithm of a series with constant term 1."""
        return TruncatedXSeries(log_coefficients(self._c))

    def exp(self) -> "TruncatedXSeries":
        """Formal exponential of a series with constant term 0."""
        if not self._c[0].is_zero:
            raise ValueError("exp requires constant term 0")
        n = self.order
        out = [RF_ZERO] * (n + 1)
        out[0] = RF_ONE
        for m in range(1, n + 1):
            acc = RF_ZERO
            for k in range(1, m + 1):
                if not self._c[k].is_zero:
                    acc = acc + self._c[k] * out[m - k] * k
            out[m] = acc * Fraction(1, m)
        return TruncatedXSeries(out)

    def pow_with_exponent(self, e: ExponentLike) -> "TruncatedXSeries":
        """Raise a constant-term-1 series to a q-polynomial (or rational
        function, or scalar) exponent, via exp(e * log(self))."""
        e = _coerce_rf(e)
        if e.is_zero:
            return TruncatedXSeries.one(self.order)
        return self.log().scale(e).exp()

    # -- substitution -------------------------------------------------------

    def adams(self, d: int) -> "TruncatedXSeries":
        """The joint substitution X -> X**d, q -> q**d, same truncation order.

        Terms X**(kd) beyond the order are dropped.
        """
        if d < 1:
            raise ValueError("adams substitution requires d >= 1")
        if d == 1:
            return self
        n = self.order
        out = [RF_ZERO] * (n + 1)
        for k in range(n // d + 1):
            out[k * d] = self._c[k].adams(d)
        return TruncatedXSeries(out)

    # -- comparisons and display ---------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedXSeries):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        return hash(self._c)

    def __repr__(self) -> str:
        inner = " + ".join(f"({c})X^{i}" for i, c in enumerate(self._c) if not c.is_zero)
        return f"TruncatedXSeries({inner or '0'} + O(X^{self.order + 1}))"


def log_coefficients(
    a: Sequence[RationalFunctionQ], known: Sequence[RationalFunctionQ] = ()
) -> tuple[RationalFunctionQ, ...]:
    """Coefficients h_0..h_N of the formal log of a_0 + a_1 X + ... + a_N X**N,
    where a_0 = 1.

    Uses the derivative recurrence n*h_n = n*a_n - sum k*h_k*a_{n-k},
    which agrees with the alternating-sum expansion of log(1 + x) but
    costs O(N^2) coefficient operations instead of O(N^3).  h_n depends
    only on a_0..a_n, so a prefix ``known`` of the log of the same series
    is kept and the recurrence resumes after it.
    """
    if a[0] != RF_ONE:
        raise ValueError("log requires constant term 1")
    h = list(known) or [RF_ZERO]
    for m in range(len(h), len(a)):
        acc = a[m] * m
        for k in range(1, m):
            if not (h[k].is_zero or a[m - k].is_zero):
                acc = acc - h[k] * a[m - k] * k
        h.append(acc * Fraction(1, m))
    return tuple(h)
