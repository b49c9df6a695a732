"""Exact coefficient arithmetic in the variable q.

This module is the numeric tower the rest of the package sits on:

* ``PolyQ``: dense polynomials in q with rational coefficients, stored as
  integer numerators over one common denominator; it is built from that
  integer form, its arithmetic runs on the integers, and its scalars are
  ``int``s, so no rational number type is needed,
* ``RationalFunctionQ``: a polynomial over q**n - 1, reduced by cancelling
  the cyclotomic factors of q**n - 1 and kept in the form it prints: coprime,
  with joint content 1 and a positive leading denominator coefficient (so
  equality is structural); the counting chain builds one only for its kind-H
  output, so it has no field operations and runs no polynomial gcd,
* ``_Record``: the immutable value record that every record of the
  package (a partition, a count, a report, an orbit) subclasses.

Nothing here ever rounds.  All values, ``PolyQ``, ``RationalFunctionQ`` and
``FieldSpec`` included, are immutable after construction (assigning to a
field raises ``AttributeError``) and safe to share between threads.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Sequence

from . import poly_text, quotient_text


class InexactDivisionError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


class InternalCheckError(AssertionError):
    """A fact guaranteed by the underlying mathematics failed to hold.

    This always signals an implementation bug, never a data condition.
    """


class SizeGuardError(ValueError):
    """A request exceeds what a brute-force route can run at desk scale."""


class _Record:
    """An immutable value record, the package's one way to declare a value
    whose fields are its constructor's arguments.  Its fields are its
    class's ``__slots__``, set once by ``__init__`` by position or by name
    (a wrong count or an unknown name raises ``TypeError``); records of one
    class, or of a class and its subclass, compare and hash by their field
    values and pickle by them, and assigning to a field raises
    ``AttributeError``.  A subclass whose constructor takes other arguments
    than its fields pickles through ``_record_of`` or its constructor's own
    arguments instead."""

    __slots__ = ()

    def __init__(self, *values, **named):
        names = self.__slots__
        if (len(values) + len(named) != len(names)
                or named and not named.keys() <= set(names[len(values):])):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for name, value in (*zip(names, values), *named.items()):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if not isinstance(other, self.__class__):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


def _record_of(cls, *values) -> _Record:
    """The record of class ``cls`` with the field values ``values``, built
    without running the class's constructor."""
    record = object.__new__(cls)
    _Record.__init__(record, *values)
    return record


def ratio_text(a: int, b: int) -> str:
    """The text of the rational a / b, for integers a and b > 0: ``"a"`` or
    ``"a/b"`` in lowest terms, the sign on the numerator."""
    g = gcd(a, b)
    a, b = a // g, b // g
    return str(a) if b == 1 else f"{a}/{b}"


# ---------------------------------------------------------------------------
# polynomials


class PolyQ(_Record):
    """Dense polynomial in q over the rationals.

    ``PolyQ(numerators, denominator)`` is the polynomial with the integer
    ``numerators`` in ascending degree over the integer ``denominator`` >= 1.
    It is stored in canonical form: no trailing zero numerators and
    gcd(denominator, numerators) = 1, so equal values have equal
    representations.  The zero polynomial is ``((), 1)`` and reports
    ``degree() == -1`` (standing in for "minus infinity").  Its scalar
    operands are ``int``s.
    """

    __slots__ = ("numerators", "denominator")

    def __init__(self, numerators: Iterable[int] = (), denominator: int = 1):
        nums = list(numerators)
        for x in (*nums, denominator):
            if not isinstance(x, int):
                raise TypeError(f"expected an int, got {type(x).__name__}")
        if denominator < 1:
            raise ValueError(f"the denominator must be >= 1, got {denominator}")
        super().__init__(*_reduced(nums, denominator))

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
    def coefficient_texts(self) -> tuple[str, ...]:
        """The text of each coefficient, as ``ratio_text`` gives it."""
        return tuple(ratio_text(c, self.denominator) for c in self.numerators)

    def degree(self) -> int:
        return len(self.numerators) - 1

    @property
    def is_zero(self) -> bool:
        return not self.numerators

    @property
    def is_integral(self) -> bool:
        """True when every coefficient is an integer."""
        return self.denominator == 1

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "PolyQ | int") -> "PolyQ":
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

    def __sub__(self, other: "PolyQ | int") -> "PolyQ":
        return self + (-_coerce_poly(other))

    def __mul__(self, other: "PolyQ | int") -> "PolyQ":
        if isinstance(other, int):
            return _poly(_times(self.numerators, other), self.denominator)
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

    def __truediv__(self, d: int) -> "PolyQ":
        """The quotient by a nonzero integer d (``exact_div`` divides by a
        polynomial)."""
        if not isinstance(d, int):
            return NotImplemented
        if d == 0:
            raise ZeroDivisionError("polynomial division by zero")
        if d < 0:
            return -self / -d
        return _poly(list(self.numerators), self.denominator * d)

    def shift(self, k: int) -> "PolyQ":
        """The product with q**k: the numerators move up k places.  For k < 0
        they move down, which divides by q**-k and must be exact."""
        nums = self.numerators
        if k >= 0:
            return _poly([0] * k + list(nums), self.denominator) if nums else self
        if any(nums[:-k]):
            raise InexactDivisionError(f"inexact division: {self} by q^{-k}")
        return _poly(list(nums[-k:]), self.denominator)

    def exact_div(self, other: "PolyQ") -> "PolyQ":
        """The polynomial self / other; a remainder raises.

        Divides over the integers: with other = c * P for P primitive, the
        numerators of self divided by P have an integer quotient whenever
        the division is exact (Gauss's lemma).
        """
        other = _coerce_poly(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        c = gcd(*other.numerators)
        quot = _quotient(self.numerators, [x // c for x in other.numerators])
        if quot is None:
            raise InexactDivisionError(f"inexact division: {self} by {other}")
        return _poly(_times(quot, other.denominator), self.denominator * c)

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

    def numerator_at(self, x: int) -> int:
        """The value at the integer q = x times ``denominator``, by Horner's
        rule on the integers."""
        acc = 0
        for c in reversed(self.numerators):
            acc = acc * x + c
        return acc

    # -- comparisons and display -----------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyQ):
            if not isinstance(other, int):
                return NotImplemented
            other = _poly([other])
        return (self.numerators == other.numerators
                and self.denominator == other.denominator)

    __hash__ = _Record.__hash__

    def __bool__(self) -> bool:
        return bool(self.numerators)

    def __str__(self) -> str:
        """Human form in descending powers, e.g. ``q^4 + 3q^2 + 2q``."""
        return poly_text(self.coefficient_texts)

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
    nums, den = _reduced(nums, den)
    object.__setattr__(p, "numerators", nums)
    object.__setattr__(p, "denominator", den)
    return p


def _times(nums: Sequence[int], k: int) -> list[int]:
    return [x * k for x in nums] if k != 1 else list(nums)


def _coerce_poly(x: "PolyQ | int") -> PolyQ:
    if isinstance(x, PolyQ):
        return x
    return PolyQ([x])


def _quotient(a: Sequence[int], b: Sequence[int]) -> list[int] | None:
    """The integer polynomial a / b, for b primitive, or None when the
    division leaves a remainder.  When b divides a, every step of the
    integer long division is exact too, so a step that is not leaves a
    nonzero remainder behind."""
    rem = list(a)
    db, lb = len(b) - 1, b[-1]
    terms = [(i, y) for i, y in enumerate(b) if y]
    quot = [0] * max(len(rem) - db, 0)
    for pos in range(len(quot) - 1, -1, -1):
        factor = quot[pos] = rem[pos + db] // lb
        if factor:
            for i, y in terms:
                rem[pos + i] -= factor * y
    return None if any(rem) else quot


@lru_cache(maxsize=None)
def _cyclotomic(d: int) -> tuple[int, ...]:
    """The coefficients of the cyclotomic polynomial Phi_d: q**d - 1 divided
    exactly by Phi_e for every proper divisor e of d."""
    phi = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            phi = _quotient(phi, _cyclotomic(e))
    return tuple(phi)


# ---------------------------------------------------------------------------
# rational functions


class RationalFunctionQ(_Record):
    """A polynomial over q**n - 1, reduced to the quotient ``num / den`` that
    it prints as.

    Canonical form: ``num`` and ``den`` have integer coefficients, their gcd
    has degree 0, their joint content is 1 and the leading coefficient of
    ``den`` is positive, so two equal values always have componentwise-equal
    representations.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: PolyQ, n: int):
        """The reduced form of num / (q**n - 1), for n >= 1.

        q**n - 1 is the squarefree product of the cyclotomic polynomials
        Phi_d over d | n, so its gcd with num is the product of the Phi_d
        that divide num, and the reduction needs no polynomial gcd: each is
        divided out of both sides.  The pair left is already canonical.
        With num = P / c for P integer, gcd(c, content(P)) = 1, and dividing
        P by monic factors keeps its content; so the joint content of the
        quotient of P and of c times the monic rest of q**n - 1 is 1, and
        that rest's leading coefficient is c > 0.

        The search for Phi_d is kept on purpose.  No H value at g <= 5,
        n <= 20 has such a factor, but the argument that none ever does
        rests on A_m(1) > 0, which follows only from the open nonnegativity
        conjecture; and ``pipeline._orbit_log_mismatch`` builds its mismatch
        text from numerators whose factors do cancel.
        """
        if n < 1:
            raise ValueError("the denominator q^n - 1 needs n >= 1")
        top, bottom = num.numerators, [-1] + [0] * (n - 1) + [1]
        for d in range(1, n + 1):
            if n % d == 0:
                phi = _cyclotomic(d)
                quot = _quotient(top, phi)
                if quot is not None:
                    top, bottom = quot, _quotient(bottom, phi)
        super().__init__(_poly(list(top)), _poly(_times(bottom, num.denominator)))

    # -- pickling and display ---------------------------------------------

    def __reduce__(self):
        return _record_of, (type(self), self.num, self.den)

    def __str__(self) -> str:
        return quotient_text([str(c) for c in self.num.numerators],
                             [str(c) for c in self.den.numerators])

    def __repr__(self) -> str:
        return f"RationalFunctionQ({self})"
