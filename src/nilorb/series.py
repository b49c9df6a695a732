"""Formal log and exp of truncated power series in X.

A series a_0 + a_1 X + ... + a_N X**N is the tuple (a_0, ..., a_N) of its
coefficients, so the truncation order is the tuple's length minus one and
every result has the length of its input.  Both run on integer numerators
over closed-form denominators: ``log_coefficients`` takes the weight series
over D_n and gives n times its log over q**n - 1, dividing exactly by each
factor q**k - 1 of D_(n-1) as it sums the recurrence's terms (Horner's
rule), and ``exp_coefficients`` takes n times a log and gives its exp,
dividing each coefficient exactly by its index, so a coefficient that is
not integral raises.  ``exp`` runs over any coefficient ring with exact
``+``, ``*`` and division by a nonzero integer, such as ``PolyQ`` (the
orbit counts).  Each also takes a prefix ``known`` of its own result and
computes only the coefficients after it, so the chain grows a log or an
exp one order at a time.
"""

from __future__ import annotations

from typing import Sequence

from .exactnum import InexactDivisionError, InternalCheckError, PolyQ
from .partitions import q_binomial


def log_coefficients(p: Sequence[PolyQ], known: Sequence[PolyQ] = ()) -> tuple[PolyQ, ...]:
    """Numerators K_0..K_N over n(q**n - 1) of the formal log of the series
    whose X**n coefficient is p_n / D_n, D_n = weight_denominator(n), p_0 = 1.

    Uses the derivative recurrence n*h_n = n*a_n - sum k*h_k*a_{n-k}
    (O(N^2) coefficient operations, against O(N^3) for the alternating sum
    of log(1 + x)).  With k*h_k = K_k / (q**k - 1), and
    D_n = (q**k - 1) [n; k]_q D_{k-1} D_{n-k}, K_n = n*h_n*(q**n - 1) is
    T_n / D_{n-1}, where T_n = n*p_n - sum K_k p_{n-k} [n; k]_q D_{k-1}.
    Horner's rule in the factors q**k - 1 of D_{n-1} divides as it sums:
    S_0 = n*p_n, S_k = (S_{k-1} - K_k p_{n-k} [n; k]_q) / (q**k - 1) for
    k = 1..n-1, and K_n = S_{n-1}.  S_k is T_n plus the terms j > k not yet
    subtracted, over D_k, and D_k divides each D_{j-1}, j > k, so every S_k
    is a polynomial when D_{n-1} divides T_n, that is when K_n is one, as it
    must be for the weight series (H_n = sum over d | n of
    A_{n/d}(q**d) / (d(q**d - 1))); so each division is exact exactly when
    K_n is a polynomial, and an inexact one raises InternalCheckError.  h_n
    depends only on a_0..a_n, so the recurrence resumes after a prefix
    ``known`` of the same log's numerators.
    """
    if p[0] != 1:
        raise ValueError("log requires constant term 1")
    out = list(known) or [PolyQ()]
    for n in range(len(out), len(p)):
        acc = p[n] * n
        try:
            for k in range(1, n):
                if not (out[k].is_zero or p[n - k].is_zero):
                    acc = acc - out[k] * p[n - k] * q_binomial(n, k)
                acc = acc.div_q_power_minus_one(k)
        except InexactDivisionError:
            raise InternalCheckError(
                f"the denominator of the X^{n} log coefficient does not divide q^{n} - 1"
            ) from None
        out.append(acc)
    return tuple(out)


def exp_coefficients(j: Sequence, known: Sequence = ()) -> tuple:
    """Coefficients e_0..e_N of the formal exp of h_1 X + ... + h_N X**N,
    from j_k = k*h_k, where j_0 = 0.

    Uses the derivative recurrence m*e_m = sum k*h_k*e_{m-k}, and divides
    each e_m exactly by m: over ``PolyQ`` an e_m that is not integral raises
    ``InexactDivisionError``.  The coefficients keep the type of ``j``: the
    zero constant term supplies the ring's zero, and e_0 = j_0 + 1 its one.
    e_m depends only on j_0..j_m, so the recurrence resumes after a prefix
    ``known`` of the same exp's coefficients.
    """
    zero = j[0]
    if not zero.is_zero:
        raise ValueError("exp requires constant term 0")
    e = list(known) or [zero + 1]
    for m in range(len(e), len(j)):
        acc = zero
        for k in range(1, m + 1):
            if not (j[k].is_zero or e[m - k].is_zero):
                acc = acc + j[k] * e[m - k]
        e.append(acc / m)
    return tuple(e)
