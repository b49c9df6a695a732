"""Formal log and exp of truncated power series in X.

A series a_0 + a_1 X + ... + a_N X**N is the tuple (a_0, ..., a_N) of its
coefficients, so the truncation order is the tuple's length minus one and
every result has the length of its input.  ``log_coefficients`` runs over
rational functions in q (the weight series); ``exp_coefficients`` runs over
any coefficient ring with exact ``+`` and ``*``, such as ``PolyQ`` (the orbit
counts) and ``RationalFunctionQ``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .exactnum import RationalFunctionQ, RF_ONE, RF_ZERO


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


def exp_coefficients(h: Sequence) -> tuple:
    """Coefficients e_0..e_N of the formal exp of h_0 + h_1 X + ... + h_N X**N,
    where h_0 = 0.

    Uses the derivative recurrence n*e_n = sum k*h_k*e_{n-k}.  The
    coefficients keep the type of ``h``: the zero constant term supplies the
    ring's zero, and e_0 = h_0 + 1 its one.
    """
    zero = h[0]
    if not zero.is_zero:
        raise ValueError("exp requires constant term 0")
    e = [zero + 1]
    for m in range(1, len(h)):
        acc = zero
        for k in range(1, m + 1):
            if not (h[k].is_zero or e[m - k].is_zero):
                acc = acc + h[k] * e[m - k] * k
        e.append(acc * Fraction(1, m))
    return tuple(e)
