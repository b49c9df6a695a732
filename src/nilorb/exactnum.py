"""Exact coefficient arithmetic in the variable q.

This module is the numeric tower the rest of the package sits on:

* arbitrary-precision integers and rationals (Python ``int`` and
  ``fractions.Fraction`` -- already exact, so no wrapper types),
* ``PolyQ``: dense polynomials in q with rational coefficients, stored as
  integer numerators over one common denominator,
* ``RationalFunctionQ``: reduced quotients of two ``PolyQ`` with a monic
  denominator (so equality is structural); the counting chain builds one
  only for its kind-H output, and the tests use its field operations as
  reference arithmetic,
* ``TruncatedQSeries``: power series in q truncated at a fixed order.

Nothing here ever rounds.  All values are immutable after construction and
safe to share between threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
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


def _exact(x: Scalar) -> Scalar:
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"expected an exact scalar, got {type(x).__name__}")


# ---------------------------------------------------------------------------
# polynomials


class PolyQ:
    """Dense polynomial in q over the rationals.

    Stored as integer ``numerators`` in ascending degree over one positive
    ``denominator``, in canonical form: no trailing zero numerators and
    gcd(denominator, numerators) = 1, so equal values have equal
    representations.  The zero polynomial is ``((), 1)`` and reports
    ``degree() == -1`` (standing in for "minus infinity").
    """

    __slots__ = ("numerators", "denominator")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        c = [_exact(x) for x in coeffs]
        den = lcm(*(x.denominator for x in c))
        self.numerators, self.denominator = _reduced(
            [x.numerator * (den // x.denominator) for x in c], den
        )

    # -- constructors -------------------------------------------------

    @staticmethod
    def q_power(k: int) -> "PolyQ":
        """The monomial q**k."""
        if k < 0:
            raise ValueError("q_power requires k >= 0")
        return _poly([0] * k + [1])

    @staticmethod
    def q_power_minus_one(k: int) -> "PolyQ":
        """The binomial q**k - 1, for k >= 1."""
        if k < 1:
            raise ValueError("q_power_minus_one requires k >= 1")
        return _poly([-1] + [0] * (k - 1) + [1])

    # -- inspection ----------------------------------------------------

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.denominator) for c in self.numerators)

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.numerators):
            return Fraction(self.numerators[k], self.denominator)
        return Fraction(0)

    def degree(self) -> int:
        return len(self.numerators) - 1

    @property
    def is_zero(self) -> bool:
        return not self.numerators

    @property
    def is_one(self) -> bool:
        return self.numerators == (1,) and self.denominator == 1

    @property
    def is_integral(self) -> bool:
        """True when every coefficient is an integer."""
        return self.denominator == 1

    @property
    def leading(self) -> Fraction:
        if not self.numerators:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.numerators[-1], self.denominator)

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "PolyQ | Scalar") -> "PolyQ":
        other = _coerce_poly(other)
        den = lcm(self.denominator, other.denominator)
        a = _times(self.numerators, den // self.denominator)
        b = _times(other.numerators, den // other.denominator)
        if len(a) < len(b):
            a, b = b, a
        for i, x in enumerate(b):
            a[i] += x
        return _poly(a, den)

    __radd__ = __add__

    def __neg__(self) -> "PolyQ":
        return _poly([-x for x in self.numerators], self.denominator)

    def __sub__(self, other: "PolyQ | Scalar") -> "PolyQ":
        return self + (-_coerce_poly(other))

    def __mul__(self, other: "PolyQ | Scalar") -> "PolyQ":
        other = _coerce_poly(other)
        a, b = self.numerators, other.numerators
        if not a or not b:
            return PolyQ()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _poly(out, self.denominator * other.denominator)

    __rmul__ = __mul__

    def exact_div(self, other: "PolyQ") -> "PolyQ":
        """The polynomial self / other; a remainder raises.

        Divides over the integers: with other = c * P for P primitive, the
        numerators of self divided by P have an integer quotient whenever
        the division is exact (Gauss's lemma).  So every step of the integer
        long division is exact too, and a step that is not leaves a nonzero
        remainder behind.
        """
        other = _coerce_poly(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        c = gcd(*other.numerators)
        p = [x // c for x in other.numerators]
        rem = list(self.numerators)
        dp, lp = len(p) - 1, p[-1]
        terms = [(i, y) for i, y in enumerate(p) if y]
        quot = [0] * max(len(rem) - dp, 0)
        for pos in range(len(quot) - 1, -1, -1):
            factor = quot[pos] = rem[pos + dp] // lp
            if factor:
                for i, y in terms:
                    rem[pos + i] -= factor * y
        if any(rem):
            raise InexactDivisionError(f"inexact division: {self} by {other}")
        return _poly(_times(quot, other.denominator), self.denominator * c)

    def gcd(self, other: "PolyQ") -> "PolyQ":
        """Monic greatest common divisor (so leading coefficient is 1)."""
        if self.is_zero and other.is_zero:
            return PolyQ()
        g = _int_poly_gcd(_int_primitive(list(self.numerators)),
                          _int_primitive(list(other.numerators)))
        return _poly(g, g[-1])

    # -- substitution and evaluation -----------------------------------

    def adams(self, d: int) -> "PolyQ":
        """Substitute q -> q**d."""
        if d < 1:
            raise ValueError("adams substitution requires d >= 1")
        if d == 1 or self.is_zero:
            return self
        out = [0] * (self.degree() * d + 1)
        out[::d] = self.numerators
        return _poly(out, self.denominator)

    def evaluate(self, x: Scalar) -> Fraction:
        """The value at q = x, by Horner's rule on x's numerator and
        denominator."""
        x = _exact(x)
        p, r = x.numerator, x.denominator
        acc, scale = 0, 1
        for c in reversed(self.numerators):
            acc = acc * p + c * scale
            scale *= r
        return Fraction(acc, self.denominator * r ** max(self.degree(), 0))

    # -- comparisons and display -----------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = PolyQ([other])
        if not isinstance(other, PolyQ):
            return NotImplemented
        return (self.numerators == other.numerators
                and self.denominator == other.denominator)

    def __hash__(self) -> int:
        return hash((self.numerators, self.denominator))

    def __bool__(self) -> bool:
        return bool(self.numerators)

    def __str__(self) -> str:
        """Human form in descending powers, e.g. ``q^4 + 3q^2 + 2q``."""
        nums = self.numerators
        if not nums:
            return "0"
        terms = []
        for k in range(len(nums) - 1, -1, -1):
            c = nums[k]
            if c == 0:
                continue
            body = _ratio_str(abs(c), self.denominator)
            if k:
                var = "q" if k == 1 else f"q^{k}"
                body = var if body == "1" else f"{body}{var}"
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(terms)

    def __repr__(self) -> str:
        return f"PolyQ({self})"


def _reduced(nums: list[int], den: int) -> tuple[tuple[int, ...], int]:
    """The canonical form of the numerators ``nums`` over ``den`` > 0."""
    while nums and nums[-1] == 0:
        nums.pop()
    if den != 1:
        g = gcd(den, *nums)
        if g > 1:
            nums = [x // g for x in nums]
            den //= g
    return tuple(nums), den


def _poly(nums: list[int], den: int = 1) -> PolyQ:
    """The PolyQ with numerators ``nums`` over ``den`` > 0 (``nums`` is consumed)."""
    p = object.__new__(PolyQ)
    p.numerators, p.denominator = _reduced(nums, den)
    return p


def _times(nums: Sequence[int], k: int) -> list[int]:
    return [x * k for x in nums] if k != 1 else list(nums)


def _coerce_poly(x: "PolyQ | Scalar") -> PolyQ:
    if isinstance(x, PolyQ):
        return x
    return PolyQ([x])


def _ratio_str(num: int, den: int) -> str:
    """num/den in lowest terms, parenthesised unless it is an integer."""
    g = gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"({num}/{den})"


def _int_primitive(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    g = gcd(*c)
    return [x // g for x in c] if g > 1 else c


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

    def as_poly(self) -> PolyQ:
        if not self.den.is_one:
            raise InexactDivisionError(f"not a polynomial: {self}")
        return self.num

    # -- field operations ----------------------------------------------

    def __add__(self, other: "RationalFunctionQ | PolyQ | Scalar") -> "RationalFunctionQ":
        other = _coerce_rf(other)
        return RationalFunctionQ(self.num * other.den + other.num * self.den,
                                 self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunctionQ":
        return RationalFunctionQ._raw(-self.num, self.den)

    def __sub__(self, other: "RationalFunctionQ | PolyQ | Scalar") -> "RationalFunctionQ":
        return self + (-_coerce_rf(other))

    def __mul__(self, other: "RationalFunctionQ | PolyQ | Scalar") -> "RationalFunctionQ":
        other = _coerce_rf(other)
        return RationalFunctionQ(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    # -- substitution and evaluation ---------------------------------------

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
        """Equivalent (num, den) pair scaled to coprime integer coefficients.

        Scaling both by the lcm of their denominators is enough: the monic
        denominator's numerators end in its own denominator and are coprime
        to it, so they have no common factor, and neither does the scaled pair.
        """
        num, den = self.num, self.den
        scale = lcm(num.denominator, den.denominator)
        return (_poly(_times(num.numerators, scale // num.denominator)),
                _poly(_times(den.numerators, scale // den.denominator)))


def quotient_str(num: PolyQ, den: PolyQ) -> str:
    """Display form of num / den, taken as given (no reduction)."""
    if den.is_one:
        return str(num)
    return f"({num}) / ({den})"


def _coerce_rf(x: "RationalFunctionQ | PolyQ | Scalar") -> RationalFunctionQ:
    return x if isinstance(x, RationalFunctionQ) else RationalFunctionQ(x)


# ---------------------------------------------------------------------------
# truncated q-series


class TruncatedQSeries:
    """Power series in q known through a fixed order: the value is
    ``sum(c[i] * q**i)`` modulo ``q**(order + 1)``.

    Coefficients are exact scalars kept as given, so a series built from
    integers stays in integer arithmetic.
    """

    __slots__ = ("_c", "_order")

    def __init__(self, coeffs: Iterable[Scalar], order: int):
        if order < 0:
            raise ValueError("series order must be >= 0")
        c = tuple(_exact(x) for x in coeffs)
        if len(c) > order + 1:
            raise ValueError("more coefficients than the order allows")
        self._c = c + (0,) * (order + 1 - len(c))
        self._order = order

    @property
    def order(self) -> int:
        return self._order

    @property
    def coefficients(self) -> tuple[Scalar, ...]:
        return self._c

    def coefficient(self, k: int) -> Scalar:
        """Coefficient of q**k."""
        if not 0 <= k <= self._order:
            raise ValueError(f"q^{k} is outside the truncation window")
        return self._c[k]

    def __add__(self, other: "TruncatedQSeries") -> "TruncatedQSeries":
        if not isinstance(other, TruncatedQSeries):
            return NotImplemented
        order = min(self._order, other._order)
        return TruncatedQSeries([a + b for a, b in zip(self._c, other._c)], order)

    def scale(self, x: Scalar) -> "TruncatedQSeries":
        x = _exact(x)
        return TruncatedQSeries([c * x for c in self._c], self._order)

    def mul_qpower(self, k: int) -> "TruncatedQSeries":
        """Multiply by q**k (k >= 0), keeping the same truncation window."""
        if k < 0:
            raise ValueError("mul_qpower requires k >= 0")
        k = min(k, self._order + 1)
        return TruncatedQSeries((0,) * k + self._c[: self._order + 1 - k], self._order)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedQSeries):
            return NotImplemented
        return (self._c, self._order) == (other._c, other._order)

    def __hash__(self) -> int:
        return hash((self._c, self._order))

    def __str__(self) -> str:
        terms = []
        for k, c in enumerate(self._c):
            if c == 0:
                continue
            body = _ratio_str(c.numerator, c.denominator)
            if k:
                var = "q" if k == 1 else f"q^{k}"
                body = var if c == 1 else f"{body}{var}"
            terms.append(body)
        body = " + ".join(terms) if terms else "0"
        return f"{body} + O(q^{self._order + 1})"

    def __repr__(self) -> str:
        return f"TruncatedQSeries({self})"
