"""Exact coefficient arithmetic in the variable q.

This module is the numeric tower the rest of the package sits on:

* arbitrary-precision integers and rationals (Python ``int`` and
  ``fractions.Fraction`` -- already exact, so no wrapper types),
* ``PolyQ``: dense polynomials in q with rational coefficients,
* ``RationalFunctionQ``: reduced quotients of two ``PolyQ`` with a monic
  denominator (so equality is structural),
* ``TruncatedQSeries``: power series in q truncated at a fixed order, with
  an optional negative "Laurent offset" recording a factor q**e.

Nothing here ever rounds.  All values are immutable after construction and
safe to share between threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]


class InexactDivisionError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


class PoleError(ArithmeticError):
    """Raised when a rational function is evaluated at a pole."""


class InternalCheckError(AssertionError):
    """A fact guaranteed by the underlying mathematics failed to hold.

    This always signals an implementation bug, never a data condition.
    """


def _as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact scalar, got {type(x).__name__}")


# ---------------------------------------------------------------------------
# polynomials


class PolyQ:
    """Dense polynomial in q over the rationals.

    Coefficients are stored in ascending degree with no trailing zeros; the
    zero polynomial is the empty sequence and reports ``degree() == -1``
    (standing in for "minus infinity").
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        c = [_as_fraction(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self._c = tuple(c)

    # -- constructors -------------------------------------------------

    @staticmethod
    def q_power(k: int, coeff: Scalar = 1) -> "PolyQ":
        """The monomial coeff * q**k."""
        if k < 0:
            raise ValueError("q_power requires k >= 0")
        return PolyQ([0] * k + [coeff])

    # -- inspection ----------------------------------------------------

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._c

    def coefficient(self, k: int) -> Fraction:
        return self._c[k] if 0 <= k < len(self._c) else Fraction(0)

    def degree(self) -> int:
        return len(self._c) - 1

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def is_one(self) -> bool:
        return self._c == (Fraction(1),)

    @property
    def is_integral(self) -> bool:
        """True when every coefficient is an integer."""
        return all(c.denominator == 1 for c in self._c)

    @property
    def leading(self) -> Fraction:
        if not self._c:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._c[-1]

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "PolyQ | Scalar") -> "PolyQ":
        other = _coerce_poly(other)
        a, b = self._c, other._c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] += x
        return PolyQ(out)

    __radd__ = __add__

    def __neg__(self) -> "PolyQ":
        return PolyQ([-x for x in self._c])

    def __sub__(self, other: "PolyQ | Scalar") -> "PolyQ":
        return self + (-_coerce_poly(other))

    def __rsub__(self, other: Scalar) -> "PolyQ":
        return _coerce_poly(other) - self

    def __mul__(self, other: "PolyQ | Scalar") -> "PolyQ":
        other = _coerce_poly(other)
        a, b = self._c, other._c
        if not a or not b:
            return PolyQ()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return PolyQ(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "PolyQ":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = PolyQ([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "PolyQ") -> tuple["PolyQ", "PolyQ"]:
        other = _coerce_poly(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self._c)
        db = other.degree()
        lb = other.leading
        quot = [Fraction(0)] * max(len(rem) - db, 0)
        while len(rem) - 1 >= db and rem:
            factor = rem[-1] / lb
            pos = len(rem) - 1 - db
            quot[pos] = factor
            for i, y in enumerate(other._c):
                rem[pos + i] -= factor * y
            while rem and rem[-1] == 0:
                rem.pop()
        return PolyQ(quot), PolyQ(rem)

    def exact_div(self, other: "PolyQ") -> "PolyQ":
        quot, rem = divmod(self, other)
        if not rem.is_zero:
            raise InexactDivisionError(f"inexact division: {self} by {other}")
        return quot

    def gcd(self, other: "PolyQ") -> "PolyQ":
        """Monic greatest common divisor (so leading coefficient is 1)."""
        if self.is_zero and other.is_zero:
            return PolyQ()
        if self.is_zero:
            return other * (1 / other.leading)
        if other.is_zero:
            return self * (1 / self.leading)
        g = _int_poly_gcd(_to_int_coeffs(self._c), _to_int_coeffs(other._c))
        lead = Fraction(g[-1])
        return PolyQ([Fraction(x) / lead for x in g])

    def content(self) -> Fraction:
        """Positive rational c with self/c primitive over the integers."""
        if self.is_zero:
            return Fraction(0)
        num = 0
        den = 1
        for c in self._c:
            num = _int_gcd(num, c.numerator)
            den = den * c.denominator // _int_gcd(den, c.denominator)
        return Fraction(num, den)

    # -- substitution and evaluation -----------------------------------

    def adams(self, d: int) -> "PolyQ":
        """Substitute q -> q**d."""
        if d < 1:
            raise ValueError("adams substitution requires d >= 1")
        if d == 1 or self.is_zero:
            return self
        out = [Fraction(0)] * (self.degree() * d + 1)
        for k, c in enumerate(self._c):
            out[k * d] = c
        return PolyQ(out)

    def evaluate(self, x: Scalar) -> Fraction:
        x = _as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self._c):
            acc = acc * x + c
        return acc

    # -- comparisons and display -----------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = PolyQ([other])
        if not isinstance(other, PolyQ):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        return hash(self._c)

    def __bool__(self) -> bool:
        return bool(self._c)

    def __str__(self) -> str:
        """Human form in descending powers, e.g. ``q^4 + 3q^2 + 2q``."""
        if not self._c:
            return "0"
        terms = []
        for k in range(len(self._c) - 1, -1, -1):
            c = self._c[k]
            if c == 0:
                continue
            mag = -c if c < 0 else c
            if k == 0:
                body = _frac_str(mag)
            else:
                var = "q" if k == 1 else f"q^{k}"
                body = var if mag == 1 else f"{_frac_str(mag)}{var}"
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(terms)

    def __repr__(self) -> str:
        return f"PolyQ({self})"


def _coerce_poly(x: "PolyQ | Scalar") -> PolyQ:
    if isinstance(x, PolyQ):
        return x
    return PolyQ([_as_fraction(x)])


def _frac_str(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"({x.numerator}/{x.denominator})"


def _to_int_coeffs(coeffs: Sequence[Fraction]) -> list[int]:
    """Clear denominators, returning a primitive integer coefficient list."""
    den = 1
    for c in coeffs:
        den = den * c.denominator // _int_gcd(den, c.denominator)
    out = [c.numerator * (den // c.denominator) for c in coeffs]
    return _int_primitive(out)


def _int_primitive(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    if not c:
        return c
    g = 0
    for x in c:
        g = _int_gcd(g, x)
    if g > 1:
        c = [x // g for x in c]
    return c


def _int_pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of a by b over the integers (b nonzero)."""
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(r) - 1 >= db and r:
        lr = r[-1]
        r = [x * lb for x in r]
        shift = len(r) - 1 - db
        for i, y in enumerate(b):
            r[shift + i] -= lr * y
        while r and r[-1] == 0:
            r.pop()
    return r


def _int_poly_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive polynomial gcd via the primitive pseudo-remainder sequence.

    Content is removed after every step, which keeps intermediate integer
    coefficients small enough for the degrees seen here (a few hundred).
    """
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _int_pseudo_rem(a, b)
        a, b = b, _int_primitive(r)
    if a[-1] < 0:
        a = [-x for x in a]
    return a


# ---------------------------------------------------------------------------
# rational functions


class RationalFunctionQ:
    """Reduced quotient of two polynomials in q.

    Canonical form: gcd(num, den) = 1 and the denominator is monic, so two
    equal values always have componentwise-equal representations.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: "PolyQ | Scalar", den: "PolyQ | Scalar" = 1):
        num = _coerce_poly(num)
        den = _coerce_poly(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            num, den = PolyQ(), PolyQ([1])
        else:
            g = num.gcd(den)
            if g.degree() > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
            lead = den.leading
            if lead != 1:
                inv = 1 / lead
                num = num * inv
                den = den * inv
        self.num = num
        self.den = den

    # -- constructors ----------------------------------------------------

    @staticmethod
    def _raw(num: PolyQ, den: PolyQ) -> "RationalFunctionQ":
        """Build without re-canonicalizing (caller guarantees the form)."""
        rf = object.__new__(RationalFunctionQ)
        rf.num = num
        rf.den = den
        return rf

    # -- inspection -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_one(self) -> bool:
        return self.num.is_one and self.den.is_one

    @property
    def is_polynomial(self) -> bool:
        return self.den.is_one

    def as_poly(self) -> PolyQ:
        if not self.den.is_one:
            raise InexactDivisionError(f"not a polynomial: {self}")
        return self.num

    # -- field operations ----------------------------------------------

    def __add__(self, other: "RationalFunctionQ | PolyQ | Scalar") -> "RationalFunctionQ":
        other = _coerce_rf(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        g = self.den.gcd(other.den)
        if g.degree() > 0:
            da = self.den.exact_div(g)
            db = other.den.exact_div(g)
            num = self.num * db + other.num * da
            return RationalFunctionQ(num, da * other.den)
        return RationalFunctionQ(self.num * other.den + other.num * self.den,
                                 self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunctionQ":
        return RationalFunctionQ._raw(-self.num, self.den)

    def __sub__(self, other: "RationalFunctionQ | PolyQ | Scalar") -> "RationalFunctionQ":
        return self + (-_coerce_rf(other))

    def __rsub__(self, other: "PolyQ | Scalar") -> "RationalFunctionQ":
        return _coerce_rf(other) - self

    def __mul__(self, other: "RationalFunctionQ | PolyQ | Scalar") -> "RationalFunctionQ":
        other = _coerce_rf(other)
        if self.is_zero or other.is_zero:
            return _RF_ZERO
        # cross-cancel so the final product is already reduced
        g1 = self.num.gcd(other.den)
        g2 = other.num.gcd(self.den)
        n1 = self.num.exact_div(g1) if g1.degree() > 0 else self.num
        d2 = other.den.exact_div(g1) if g1.degree() > 0 else other.den
        n2 = other.num.exact_div(g2) if g2.degree() > 0 else other.num
        d1 = self.den.exact_div(g2) if g2.degree() > 0 else self.den
        num = n1 * n2
        den = d1 * d2
        lead = den.leading
        if lead != 1:
            inv = 1 / lead
            num = num * inv
            den = den * inv
        return RationalFunctionQ._raw(num, den)

    __rmul__ = __mul__

    def inverse(self) -> "RationalFunctionQ":
        if self.is_zero:
            raise ZeroDivisionError("inverse of the zero rational function")
        return RationalFunctionQ(self.den, self.num)

    def __truediv__(self, other: "RationalFunctionQ | PolyQ | Scalar") -> "RationalFunctionQ":
        return self * _coerce_rf(other).inverse()

    def __rtruediv__(self, other: "PolyQ | Scalar") -> "RationalFunctionQ":
        return _coerce_rf(other) * self.inverse()

    # -- substitution, evaluation, expansion ------------------------------

    def adams(self, d: int) -> "RationalFunctionQ":
        """Substitute q -> q**d.

        Coprimality and the monic denominator survive the substitution, so
        no re-reduction is needed.
        """
        if d == 1:
            return self
        return RationalFunctionQ._raw(self.num.adams(d), self.den.adams(d))

    def evaluate(self, x: Scalar) -> Fraction:
        bottom = self.den.evaluate(x)
        if bottom == 0:
            raise PoleError(f"pole at q = {x}")
        return self.num.evaluate(x) / bottom

    def expand(self, order: int) -> "TruncatedQSeries":
        """Truncated expansion in ascending powers of q.

        A denominator divisible by q**k is handled by recording the Laurent
        offset -k rather than failing.
        """
        if order < 0:
            raise ValueError("expansion order must be >= 0")
        if self.is_zero:
            return TruncatedQSeries([], order)
        den = self.den.coefficients
        shift = 0
        while den[shift] == 0:
            shift += 1
        den = den[shift:]
        inv = [Fraction(0)] * (order + 1)
        inv[0] = 1 / den[0]
        for k in range(1, order + 1):
            acc = Fraction(0)
            for j in range(1, min(k, len(den) - 1) + 1):
                acc += den[j] * inv[k - j]
            inv[k] = -acc / den[0]
        num = self.num.coefficients
        out = [Fraction(0)] * (order + 1)
        for i, c in enumerate(num[: order + 1]):
            if c:
                for j in range(order + 1 - i):
                    out[i + j] += c * inv[j]
        return TruncatedQSeries(out, order, offset=-shift)

    # -- comparisons and display ------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, PolyQ)):
            other = _coerce_rf(other)
        if not isinstance(other, RationalFunctionQ):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __str__(self) -> str:
        return quotient_str(*self.integerized())

    def __repr__(self) -> str:
        return f"RationalFunctionQ({self})"

    def integerized(self) -> tuple[PolyQ, PolyQ]:
        """Equivalent (num, den) pair scaled to integer coefficients."""
        scale = 1
        for c in (*self.num.coefficients, *self.den.coefficients):
            scale = scale * c.denominator // _int_gcd(scale, c.denominator)
        num = self.num * scale
        den = self.den * scale
        g = _int_gcd(int(num.content()), int(den.content()))
        if g > 1:
            num = num * Fraction(1, g)
            den = den * Fraction(1, g)
        return num, den


def quotient_str(num: PolyQ, den: PolyQ) -> str:
    """Display form of num / den, taken as given (no reduction)."""
    if den.is_one:
        return str(num)
    return f"({num}) / ({den})"


def _coerce_rf(x: "RationalFunctionQ | PolyQ | Scalar") -> RationalFunctionQ:
    if isinstance(x, RationalFunctionQ):
        return x
    if isinstance(x, PolyQ):
        return RationalFunctionQ(x)
    return RationalFunctionQ(PolyQ([_as_fraction(x)]))


_RF_ZERO = RationalFunctionQ(PolyQ())

RF_ZERO = _RF_ZERO
RF_ONE = RationalFunctionQ(PolyQ([1]))


# ---------------------------------------------------------------------------
# truncated q-series


class TruncatedQSeries:
    """Power series in q known through a fixed order, with Laurent offset.

    The represented value is ``q**offset * sum(c[i] * q**i)`` with
    ``offset <= 0``; the value is known modulo ``q**(offset + order + 1)``.
    A series with offset 0 is called *clean* (no negative powers).
    Normalization keeps either offset == 0 or c[0] != 0, so equal values
    compare equal structurally.
    """

    __slots__ = ("_c", "_order", "_offset")

    def __init__(self, coeffs: Iterable[Scalar], order: int, offset: int = 0):
        if order < 0:
            raise ValueError("series order must be >= 0")
        if offset > 0:
            raise ValueError("Laurent offset must be <= 0")
        c = [_as_fraction(x) for x in coeffs]
        if len(c) > order + 1:
            raise ValueError("more coefficients than the order allows")
        c += [Fraction(0)] * (order + 1 - len(c))
        while offset < 0 and c and c[0] == 0:
            c.pop(0)
            offset += 1
            order -= 1
        if order < 0:
            raise ValueError("series lost all precision during normalization")
        self._c = tuple(c)
        self._order = order
        self._offset = offset

    @property
    def order(self) -> int:
        return self._order

    @property
    def offset(self) -> int:
        return self._offset

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._c

    @property
    def is_clean(self) -> bool:
        return self._offset == 0

    def coefficient(self, k: int) -> Fraction:
        """Coefficient of q**k (k is the absolute exponent)."""
        i = k - self._offset
        if i < 0:
            return Fraction(0)
        if i > self._order:
            raise ValueError(f"q^{k} is beyond the truncation order")
        return self._c[i]

    def __add__(self, other: "TruncatedQSeries") -> "TruncatedQSeries":
        if not isinstance(other, TruncatedQSeries):
            return NotImplemented
        off = min(self._offset, other._offset)
        prec = min(self._offset + self._order, other._offset + other._order)
        order = prec - off
        out = [Fraction(0)] * (order + 1)
        for src in (self, other):
            shift = src._offset - off
            for i, c in enumerate(src._c):
                if c and shift + i <= order:
                    out[shift + i] += c
        return TruncatedQSeries(out, order, off)

    def __neg__(self) -> "TruncatedQSeries":
        return TruncatedQSeries([-c for c in self._c], self._order, self._offset)

    def __sub__(self, other: "TruncatedQSeries") -> "TruncatedQSeries":
        return self + (-other)

    def __mul__(self, other: "TruncatedQSeries") -> "TruncatedQSeries":
        if not isinstance(other, TruncatedQSeries):
            return NotImplemented
        order = min(self._order, other._order)
        out = [Fraction(0)] * (order + 1)
        for i, x in enumerate(self._c[: order + 1]):
            if x:
                for j in range(order + 1 - i):
                    y = other._c[j]
                    if y:
                        out[i + j] += x * y
        return TruncatedQSeries(out, order, self._offset + other._offset)

    def scale(self, x: Scalar) -> "TruncatedQSeries":
        x = _as_fraction(x)
        return TruncatedQSeries([c * x for c in self._c], self._order, self._offset)

    def mul_qpower(self, k: int) -> "TruncatedQSeries":
        """Multiply by q**k (k >= 0), keeping the same truncation window."""
        if k < 0:
            raise ValueError("mul_qpower requires k >= 0")
        if k == 0:
            return self
        kept = self._c[: max(self._order + 1 - k, 0)]
        return TruncatedQSeries([Fraction(0)] * k + list(kept), self._order, self._offset)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedQSeries):
            return NotImplemented
        return (self._c, self._order, self._offset) == (other._c, other._order, other._offset)

    def __hash__(self) -> int:
        return hash((self._c, self._order, self._offset))

    def __str__(self) -> str:
        terms = []
        for i, c in enumerate(self._c):
            if c == 0:
                continue
            k = i + self._offset
            if k == 0:
                terms.append(_frac_str(c))
            else:
                var = "q" if k == 1 else f"q^{k}"
                terms.append(var if c == 1 else f"{_frac_str(c)}{var}")
        body = " + ".join(terms) if terms else "0"
        return f"{body} + O(q^{self._offset + self._order + 1})"

    def __repr__(self) -> str:
        return f"TruncatedQSeries({self})"
