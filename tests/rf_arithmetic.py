"""Field operations on rational functions in q, as reference arithmetic.

The engine builds a ``RationalFunctionQ`` only to hold and print kind-H
values: a numerator over q**n - 1, reduced by cancelling cyclotomic factors.
The tests rebuild the chain's quantities from their defining formulas in the
field of rational functions, which is an independent route to the same
values; ``RF`` takes any numerator and denominator, reduces them to the
canonical form by a general polynomial gcd (the primitive pseudo-remainder
sequence), and adds that field's ``+``, ``-``, ``*``, division by an integer
and the substitution q -> q**d, with reduction after each; it keeps
``exp_coefficients`` running over it.  Nothing here uses the chain.
"""

from math import gcd

from nilorb.exactnum import InexactDivisionError, PolyQ, RationalFunctionQ


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


def poly_gcd(a: PolyQ, b: PolyQ) -> PolyQ:
    """Greatest common divisor: an integer polynomial with content 1 and a
    positive leading coefficient (0 when both are 0)."""
    if a.is_zero and b.is_zero:
        return PolyQ()
    return PolyQ(_int_poly_gcd(_int_primitive(list(a.numerators)),
                               _int_primitive(list(b.numerators))))


class RF(RationalFunctionQ):
    __slots__ = ()

    def __init__(self, num, den=1):
        num, den = _poly_of(num), _poly_of(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            self.num, self.den = num, PolyQ([1])
            return
        g = poly_gcd(num, den)
        if g.degree() > 0:
            num = num.exact_div(g)
            den = den.exact_div(g)
        # clear both denominators, then divide out the joint content,
        # signed so that the leading coefficient of den comes out positive
        a = [x * den.denominator for x in num.numerators]
        b = [x * num.denominator for x in den.numerators]
        c = gcd(*a, *b)
        if b[-1] < 0:
            c = -c
        self.num = PolyQ([x // c for x in a])
        self.den = PolyQ([x // c for x in b])

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def as_poly(self) -> PolyQ:
        if self.den.degree() > 0:
            raise InexactDivisionError(f"not a polynomial: {self}")
        return self.num / self.den.numerators[0]

    def adams(self, d: int) -> "RF":
        """Substitute q -> q**d.

        The substitution keeps the coefficients, so it keeps the canonical
        form, coprimality included, and no re-reduction is needed.
        """
        rf = object.__new__(RF)
        rf.num, rf.den = self.num.adams(d), self.den.adams(d)
        return rf

    def __add__(self, other) -> "RF":
        other = _rf(other)
        return RF(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RF":
        return RF(-self.num, self.den)

    def __sub__(self, other) -> "RF":
        return self + (-_rf(other))

    def __mul__(self, other) -> "RF":
        other = _rf(other)
        return RF(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, d: int) -> "RF":
        return RF(self.num / d, self.den)


def _poly_of(x) -> PolyQ:
    return x if isinstance(x, PolyQ) else PolyQ([x])


def _rf(x) -> RF:
    if isinstance(x, RF):
        return x
    if isinstance(x, RationalFunctionQ):
        return RF(x.num, x.den)
    return RF(x)
