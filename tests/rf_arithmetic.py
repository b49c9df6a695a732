"""Field operations on rational functions in q, as reference arithmetic.

The engine builds a ``RationalFunctionQ`` only to hold and print kind-H
values: a numerator over n(q**n - 1), reduced by cancelling cyclotomic
factors and common integer factors.  The tests rebuild the chain's
quantities from their defining formulas in the field of rational functions,
which is an independent route to the same values.  Its polynomials are
this module's own: tuples of ``Fraction`` coefficients in ascending degree,
with no trailing zero, so no reference value runs through the engine's
arithmetic; a ``PolyQ`` enters only as its tuple of coefficients, and
``RF.as_poly`` hands an integral value back as one.  ``RF`` takes any
numerator and denominator, reduces them to the canonical form that
``RationalFunctionQ`` prints (coprime by a general polynomial gcd, joint
content 1, a positive leading denominator coefficient), and adds that
field's ``+``, ``-``, ``*``, division by a number and the substitution
q -> q**d, with reduction after each; it keeps ``exp_coefficients``
running over it.  ``value_at`` gives the exact value of a polynomial, a
counting polynomial or a rational function at an integer q, and
``centralizer_order`` the defining denominator of a partition weight.
Nothing here uses the chain.
"""

from collections import Counter
from fractions import Fraction
from math import gcd, lcm

from nilorb import quotient_text
from nilorb.exactnum import PolyQ


def coefficients(x) -> tuple:
    """The ascending coefficients of x as Fractions, with no trailing zero:
    x is a PolyQ, a number or a sequence of numbers."""
    if isinstance(x, PolyQ):
        x = x.numerators
    elif isinstance(x, (int, Fraction)):
        x = (x,)
    out = [Fraction(c) for c in x]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _add(a, b):
    if len(a) < len(b):
        a, b = b, a
    return coefficients([x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)])


def _mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return coefficients(out)


def divmod_poly(a, b):
    """Quotient and remainder of a by the nonzero b, over the rationals."""
    rem, quot = list(coefficients(a)), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for pos in range(len(quot) - 1, -1, -1):
        quot[pos] = rem[pos + len(b) - 1] / b[-1]
        for i, y in enumerate(b):
            rem[pos + i] -= quot[pos] * y
    return coefficients(quot), coefficients(rem)


def integer_pair(a, b) -> tuple:
    """The coefficient tuples a and b, not both zero, scaled by one rational
    factor into integers with joint content 1 and, when b is nonzero, a
    positive leading coefficient of b."""
    m = lcm(*(x.denominator for x in a + b))
    a, b = [int(x * m) for x in a], [int(x * m) for x in b]
    c = gcd(*a, *b)
    c = -c if (b or a)[-1] < 0 else c
    return tuple(x // c for x in a), tuple(x // c for x in b)


def _pseudo_remainder(a, b):
    """The pseudo-remainder of the integer tuple a by the nonzero b: a scaled
    by a power of b's leading coefficient, so the division stays integral."""
    r = list(a)
    while len(r) >= len(b):
        lead, shift = r[-1], len(r) - len(b)
        r = [x * b[-1] for x in r]
        for i, y in enumerate(b):
            r[shift + i] -= lead * y
        while r and r[-1] == 0:
            r.pop()
    return r


def poly_gcd(a, b) -> tuple:
    """The gcd of the integer coefficient tuples a and b by the primitive
    pseudo-remainder sequence: primitive, with a positive leading
    coefficient (() when both are zero)."""
    while b:
        r = _pseudo_remainder(a, b)
        a, b = b, (integer_pair(coefficients(r), ())[0] if r else ())
    return integer_pair(coefficients(a), ())[0] if a else ()


class RF:
    """A rational function in q, stored in the canonical integer form: ``num``
    and ``den`` are tuples of ints, coprime, with joint content 1 and a
    positive leading coefficient of ``den``.  It equals another RF, or an
    engine value with ``num`` and ``den`` polynomials, when the two forms
    are the same tuples."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num, den = coefficients(num), coefficients(den)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        num, den = integer_pair(num, den)
        g = poly_gcd(num, den)
        if len(g) > 1:
            num, den = divmod_poly(num, g)[0], divmod_poly(den, g)[0]
        self.num, self.den = integer_pair(num, den)

    @property
    def is_zero(self) -> bool:
        return not self.num

    def as_poly(self) -> PolyQ:
        """The value as a PolyQ, when it is a polynomial with integer
        coefficients."""
        if len(self.den) != 1 or any(c % self.den[0] for c in self.num):
            raise ValueError(f"not an integer polynomial: {self}")
        return PolyQ([c // self.den[0] for c in self.num])

    def adams(self, d: int) -> "RF":
        """Substitute q -> q**d."""
        def spread(c):
            out = [0] * (d * (len(c) - 1) + 1)
            out[::d] = c
            return out
        return RF(spread(self.num), spread(self.den))

    def __eq__(self, other):
        if not hasattr(other, "den"):
            return NotImplemented
        if isinstance(other, RF):
            return (self.num, self.den) == (other.num, other.den)
        # an engine value: its stored form, read as it is
        return (self.num, self.den) == (other.num.numerators, other.den.numerators)

    __hash__ = None

    def __add__(self, other) -> "RF":
        other = _rf(other)
        return RF(_add(_mul(self.num, other.den), _mul(other.num, self.den)),
                  _mul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self) -> "RF":
        return RF([-c for c in self.num], self.den)

    def __sub__(self, other) -> "RF":
        return self + (-_rf(other))

    def __mul__(self, other) -> "RF":
        other = _rf(other)
        return RF(_mul(self.num, other.num), _mul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, d) -> "RF":
        return RF(self.num, [c * Fraction(d) for c in self.den])

    def __str__(self) -> str:
        return quotient_text([str(c) for c in self.num], [str(c) for c in self.den])

    __repr__ = __str__


def _rf(x) -> RF:
    if isinstance(x, RF):
        return x
    if hasattr(x, "den"):
        return RF(x.num, x.den)
    return RF(x)


def value_at(p, q: int) -> Fraction:
    """The exact value at the integer q of p: a PolyQ, a counting polynomial
    (its numerator over its denominator) or a rational function.  A pole
    raises ZeroDivisionError."""
    def at(c):
        return sum(Fraction(x) * q ** k for k, x in enumerate(coefficients(c)))
    if hasattr(p, "den"):
        return at(p.num) / at(p.den)
    if hasattr(p, "denominator"):
        return at(p.value) / p.denominator
    return at(p)


def centralizer_order(lam) -> tuple:
    """The order of the centralizer of a nilpotent matrix of Jordan type lam
    (its parts, in any order), as a polynomial in the field size:
    q**<lam,lam> times the product over part multiplicities m of
    (1 - q**-1)...(1 - q**-m), the negative powers cleared, where <lam,lam>
    is the sum over pairs of parts i, j of min(i, j)."""
    parts = list(lam)
    multiplicities = Counter(parts).values()
    ip = sum(min(i, j) for i in parts for j in parts)
    out = coefficients([0] * (ip - sum(m * (m + 1) // 2 for m in multiplicities)) + [1])
    for m in multiplicities:
        for j in range(1, m + 1):
            out = _mul(out, coefficients([-1] + [0] * (j - 1) + [1]))
    return out
