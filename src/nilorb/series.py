"""Formal log and exp of truncated power series in X.

A series a_0 + a_1 X + ... + a_N X**N is the tuple (a_0, ..., a_N) of its
coefficients, so the truncation order is the tuple's length minus one and
every result has the length of its input.  ``log_coefficients`` runs on
integer numerators over closed-form denominators (the weight series over
D_n, its log over q**n - 1), so it needs no rational-function arithmetic;
``exp_coefficients`` runs over any coefficient ring with exact ``+`` and
``*`` and division by a nonzero integer, such as ``PolyQ`` (the orbit
counts).  Each also takes a prefix ``known`` of its own result and
computes only the coefficients after it, so the chain grows a log or an
exp one order at a time.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .exactnum import InexactDivisionError, InternalCheckError, PolyQ
from .partitions import q_binomial, weight_denominator


@lru_cache(maxsize=None)
def _log_cofactor(n: int, k: int) -> PolyQ:
    """k D_n / ((q**k - 1) D_(n-k)) = k [n; k]_q D_(k-1), as a product: it does
    not depend on the series, so every g shares it."""
    return q_binomial(n, k) * weight_denominator(k - 1) * k


def log_coefficients(p: Sequence[PolyQ], known: Sequence[PolyQ] = ()) -> tuple[PolyQ, ...]:
    """Numerators N_0..N_N over q**n - 1 of the formal log of the series
    whose X**n coefficient is p_n / D_n, D_n = weight_denominator(n), p_0 = 1.

    Uses the derivative recurrence n*h_n = n*a_n - sum k*h_k*a_{n-k}
    (O(N^2) coefficient operations, against O(N^3) for the alternating sum
    of log(1 + x)).  Term k goes over D_n with the cofactor
    D_n / ((q**k - 1) D_{n-k}) = [n; k]_q D_{k-1}, so T_n = n*h_n*D_n is a
    polynomial and N_n = T_n / (n D_{n-1}).  That division is exact exactly
    when the denominator of h_n divides q**n - 1, as it must for the weight
    series (H_n = sum over d | n of A_{n/d}(q**d) / (d(q**d - 1))), so an
    inexact one raises InternalCheckError.  h_n depends only on a_0..a_n, so the recurrence
    resumes after a prefix ``known`` of the same log's numerators.
    """
    if p[0] != 1:
        raise ValueError("log requires constant term 1")
    out = list(known) or [PolyQ()]
    for n in range(len(out), len(p)):
        acc = p[n] * n
        for k in range(1, n):
            if not (out[k].is_zero or p[n - k].is_zero):
                acc = acc - out[k] * p[n - k] * _log_cofactor(n, k)
        try:
            out.append(acc.exact_div(weight_denominator(n - 1) * n))
        except InexactDivisionError:
            raise InternalCheckError(
                f"the denominator of the X^{n} log coefficient does not divide q^{n} - 1"
            ) from None
    return tuple(out)


def exp_coefficients(h: Sequence, known: Sequence = ()) -> tuple:
    """Coefficients e_0..e_N of the formal exp of h_0 + h_1 X + ... + h_N X**N,
    where h_0 = 0.

    Uses the derivative recurrence n*e_n = sum k*h_k*e_{n-k}.  The
    coefficients keep the type of ``h``: the zero constant term supplies the
    ring's zero, and e_0 = h_0 + 1 its one.  e_n depends only on h_0..h_n,
    so the recurrence resumes after a prefix ``known`` of the same exp's
    coefficients.
    """
    zero = h[0]
    if not zero.is_zero:
        raise ValueError("exp requires constant term 0")
    e = list(known) or [zero + 1]
    for m in range(len(e), len(h)):
        acc = zero
        for k in range(1, m + 1):
            if not (h[k].is_zero or e[m - k].is_zero):
                acc = acc + h[k] * e[m - k] * k
        e.append(acc / m)
    return tuple(e)
