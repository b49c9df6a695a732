"""Exact coefficient arithmetic in the variable q.

This module is the numeric tower the rest of the package sits on:

* ``PolyQ``: dense polynomials in q with integer coefficients; its scalars
  are ``int``s, and its one division by an integer and its one division by
  a polynomial, ``div_q_power_minus_one``, are exact or raise, so no
  rational number type is needed: the chain keeps every denominator in
  closed form beside its numerator, and every one is a product of factors
  q**j - 1, each divided out in one linear pass,
* ``RationalFunctionQ``: a polynomial over n(q**n - 1), reduced by
  cancelling the cyclotomic factors of q**n - 1 and the common factors of n
  and the content, and kept in the form it prints: coprime,
  with joint content 1 and a positive leading denominator coefficient (so
  equality is structural); the counting chain builds one only for its kind-H
  output, so it has no field operations and runs no polynomial gcd; it
  writes each cyclotomic factor as a quotient of factors q**e - 1 by the
  Moebius function, which lives here with ``divisors``,
* ``_Record``: the immutable value record that every record of the
  package (a partition, a count, a report, an orbit) subclasses,
* ``_check_ints``: the package's one check of an integer argument (a count,
  an order, a degree, an exponent or a scalar operand), which refuses a
  value whose type is not exactly ``int`` and one below its bound.

Nothing here ever rounds.  All values, ``PolyQ``, ``RationalFunctionQ`` and
``FieldSpec`` included, are immutable after construction (assigning to a
field raises ``AttributeError``) and safe to share between threads.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable

from . import poly_text, quotient_text


class InexactDivisionError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


class InternalCheckError(AssertionError):
    """A fact guaranteed by the underlying mathematics failed to hold.

    This always signals an implementation bug, never a data condition.
    """


class SizeGuardError(ValueError):
    """A request exceeds what a brute-force route can run at desk scale."""


def _check_ints(least: int | None = None, **arguments) -> None:
    """Refuse, by its name, each of ``arguments`` whose type is not exactly
    ``int`` (``TypeError``: a ``bool`` is an ``int`` too, but no count) or,
    when ``least`` is given, whose value is below it (``ValueError``)."""
    for name, value in arguments.items():
        if type(value) is not int:
            raise TypeError(f"{name} must be an int, got {type(value).__name__}")
        if least is not None and value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")


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


# ---------------------------------------------------------------------------
# polynomials


class PolyQ(_Record):
    """Dense polynomial in q with integer coefficients.

    ``PolyQ(numerators)`` is the polynomial with the integer coefficients
    ``numerators`` in ascending degree.  It is stored with no trailing zero
    coefficient, so equal values have equal representations.  The zero
    polynomial is ``()`` and reports ``degree() == -1`` (standing in for
    "minus infinity").  Its scalar operands, on either side of ``+``, ``-``
    and ``*`` and right of ``/``, are ``int``s, by ``_check_ints``'s rule: a
    ``bool`` or a ``float`` raises ``TypeError``.  It compares and hashes
    equal to the ``int`` of a constant, and unequal to anything else, a
    ``bool`` included.
    """

    __slots__ = ("numerators",)

    def __init__(self, numerators: Iterable[int] = ()):
        nums = list(numerators)
        for x in nums:
            _check_ints(coefficient=x)
        super().__init__(_stripped(nums))

    # -- constructors -------------------------------------------------

    @staticmethod
    def q_power(k: int) -> "PolyQ":
        """The monomial q**k."""
        _check_ints(0, k=k)
        return _poly([0] * k + [1])

    @staticmethod
    def q_power_minus_one(k: int) -> "PolyQ":
        """The binomial q**k - 1, for k >= 1."""
        _check_ints(1, k=k)
        return _poly([-1] + [0] * (k - 1) + [1])

    # -- inspection ----------------------------------------------------

    def degree(self) -> int:
        return len(self.numerators) - 1

    @property
    def is_zero(self) -> bool:
        return not self.numerators

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "PolyQ | int") -> "PolyQ":
        a, b = self.numerators, _operand(other).numerators
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] += x
        return _poly(out)

    __radd__ = __add__

    def __neg__(self) -> "PolyQ":
        return _poly([-x for x in self.numerators])

    def __sub__(self, other: "PolyQ | int") -> "PolyQ":
        return self + -_operand(other)

    def __rsub__(self, other: int) -> "PolyQ":
        return -self + other

    def __mul__(self, other: "PolyQ | int") -> "PolyQ":
        if type(other) is int:
            return _poly([x * other for x in self.numerators])
        a, b = self.numerators, _operand(other).numerators
        if not a or not b:
            return PolyQ()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _poly(out)

    __rmul__ = __mul__

    def __truediv__(self, d: int) -> "PolyQ":
        """The quotient by a nonzero integer d, which must divide every
        coefficient (``div_q_power_minus_one`` divides by a polynomial)."""
        _check_ints(divisor=d)
        if d == 0:
            raise ZeroDivisionError("polynomial division by zero")
        if any(x % d for x in self.numerators):
            raise InexactDivisionError(f"inexact division by {d}")
        return _poly([x // d for x in self.numerators])

    def shift(self, k: int) -> "PolyQ":
        """The product with q**k: the coefficients move up k places.  For
        k < 0 they move down, which divides by q**-k and must be exact."""
        nums = self.numerators
        if k >= 0:
            return _poly([0] * k + list(nums)) if nums else self
        if any(nums[:-k]):
            raise InexactDivisionError(f"inexact division by q^{-k}")
        return _poly(list(nums[-k:]))

    def div_q_power_minus_one(self, j: int) -> "PolyQ":
        """The quotient by q**j - 1, for j >= 1, which must be exact.

        For self = Q (q**j - 1), the coefficients are T_i = Q_(i-j) - Q_i,
        so one upward pass gives Q_i = Q_(i-j) - T_i (Q_i = 0 for i < 0).
        Run over all of T's coefficients, the pass must end with j zeros,
        which are the Q_i past the quotient's degree: a nonzero one is a
        remainder, and raises ``InexactDivisionError``.
        """
        _check_ints(1, j=j)
        out = [0] * j
        for x in self.numerators:
            out.append(out[-j] - x)
        if any(out[-j:]):
            raise InexactDivisionError(f"inexact division by q^{j} - 1")
        return _poly(out[j:-j])

    # -- substitution and evaluation -----------------------------------

    def adams(self, d: int) -> "PolyQ":
        """Substitute q -> q**d."""
        _check_ints(1, d=d)
        if d == 1 or self.is_zero:
            return self
        out = [0] * (self.degree() * d + 1)
        out[::d] = self.numerators
        return _poly(out)

    def at(self, x: int) -> int:
        """The value at the integer q = x, by Horner's rule."""
        acc = 0
        for c in reversed(self.numerators):
            acc = acc * x + c
        return acc

    # -- comparisons and display -----------------------------------------

    def __eq__(self, other: object) -> bool:
        if type(other) is int:
            other = _poly([other])
        elif not isinstance(other, PolyQ):
            return NotImplemented
        return self.numerators == other.numerators

    def __hash__(self) -> int:
        """A constant hashes as its ``int`` (the zero polynomial as 0), so
        that it is found in a set or a dict under that ``int`` too."""
        nums = self.numerators
        return hash(nums[0] if len(nums) == 1 else nums) if nums else 0

    def __bool__(self) -> bool:
        return bool(self.numerators)

    def __str__(self) -> str:
        """Human form in descending powers, e.g. ``q^4 + 3q^2 + 2q``."""
        return poly_text([str(c) for c in self.numerators])

    def __repr__(self) -> str:
        return f"PolyQ({self})"


def _stripped(nums: list[int]) -> tuple[int, ...]:
    """The coefficients ``nums`` without their trailing zeros."""
    while nums and nums[-1] == 0:
        nums.pop()
    return tuple(nums)


def _poly(nums: list[int]) -> PolyQ:
    """The PolyQ with the integer coefficients ``nums`` (``nums`` is consumed)."""
    p = object.__new__(PolyQ)
    object.__setattr__(p, "numerators", _stripped(nums))
    return p


def _operand(x: "PolyQ | int") -> PolyQ:
    """An operand of PolyQ's arithmetic: a PolyQ, or an int as a constant."""
    if isinstance(x, PolyQ):
        return x
    _check_ints(scalar=x)
    return _poly([x])


def mobius(n: int) -> int:
    """Standard Moebius function via trial factorization."""
    _check_ints(1, n=n)
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def divisors(n: int) -> list[int]:
    """Positive divisors of n in increasing order."""
    _check_ints(1, n=n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _over_cyclotomic(p: PolyQ, d: int) -> PolyQ | None:
    """p / Phi_d, or None when the cyclotomic polynomial Phi_d does not
    divide p.  Phi_d is the product over e | d of (q**e - 1)**mobius(d/e),
    so p is multiplied by each factor of exponent -1 and then divided by
    each factor of exponent +1; all of them are monic, so the last division
    is exact exactly when Phi_d divides p."""
    for e in divisors(d):
        if mobius(d // e) == -1:
            p = p.shift(e) - p
    try:
        for e in divisors(d):
            if mobius(d // e) == 1:
                p = p.div_q_power_minus_one(e)
    except InexactDivisionError:
        return None
    return p


# ---------------------------------------------------------------------------
# rational functions


class RationalFunctionQ(_Record):
    """A polynomial over n(q**n - 1), reduced to the quotient ``num / den``
    that it prints as.

    Canonical form: ``num`` and ``den`` have integer coefficients, their gcd
    has degree 0, their joint content is 1 and the leading coefficient of
    ``den`` is positive, so two equal values always have componentwise-equal
    representations.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: PolyQ, n: int):
        """The reduced form of num / (n(q**n - 1)), for n >= 1.

        q**n - 1 is the squarefree product of the cyclotomic polynomials
        Phi_d over d | n, so its gcd with num is the product of the Phi_d
        that divide num, and the reduction needs no polynomial gcd: each is
        divided out of both sides.  Dividing by monic factors keeps the
        content of num, so dividing both sides by c = gcd(n, content(num))
        leaves a joint content of 1, and the rest of q**n - 1 is monic, so
        the leading coefficient of ``den`` is n / c > 0.

        The search for Phi_d is kept on purpose.  No H value at g <= 5,
        n <= 20 has such a factor, but the argument that none ever does
        rests on A_m(1) > 0, which follows only from the open nonnegativity
        conjecture; and ``pipeline._orbit_log_mismatch`` builds its mismatch
        text from numerators whose factors do cancel.
        """
        _check_ints(1, n=n)
        top, bottom = num, PolyQ.q_power_minus_one(n)
        for d in divisors(n):
            # Phi_d divides q**d - 1, so it divides top exactly when it divides
            # top mod q**d - 1, whose d coefficients are tried first
            nums = top.numerators
            if _over_cyclotomic(_poly([sum(nums[i::d]) for i in range(d)]), d) is not None:
                top, bottom = _over_cyclotomic(top, d), _over_cyclotomic(bottom, d)
        c = gcd(n, *top.numerators)
        super().__init__(top / c, bottom * (n // c))

    # -- pickling and display ---------------------------------------------

    def __reduce__(self):
        return _record_of, (type(self), self.num, self.den)

    def __str__(self) -> str:
        return quotient_text([str(c) for c in self.num.numerators],
                             [str(c) for c in self.den.numerators])

    def __repr__(self) -> str:
        return f"RationalFunctionQ({self})"
