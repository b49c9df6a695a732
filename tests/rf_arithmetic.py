"""Field operations on rational functions in q, as reference arithmetic.

The engine builds a ``RationalFunctionQ`` only to hold and print kind-H
values, so the class has no arithmetic.  The tests rebuild the chain's
quantities from their defining formulas in the field of rational functions,
which is an independent route to the same values; ``RF`` adds that field's
``+``, ``-`` and ``*`` (with reduction to canonical form after each) and
keeps ``exp_coefficients`` running over it.  Nothing here uses the chain.
"""

from nilorb.exactnum import PolyQ, RationalFunctionQ


class RF(RationalFunctionQ):
    __slots__ = ()

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


def _rf(x) -> RF:
    if isinstance(x, RF):
        return x
    if isinstance(x, RationalFunctionQ):
        return RF(x.num, x.den)
    return RF(x if isinstance(x, PolyQ) else PolyQ([x]))
