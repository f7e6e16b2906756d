"""Euler-Maclaurin evaluation of the Riemann zeta function and its
s-derivative: the oracle for the closed forms of ``ihskit.torsion``, which
rest on zeta(0) = -1/2 and zeta'(0) = -log(2 pi)/2.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ihskit.errors import TorsionError


def _bernoulli_numbers(count: int) -> list[Fraction]:
    """B_0 .. B_count from the defining recurrence (B_1 = -1/2 convention)."""
    out: list[Fraction] = []
    for m in range(count + 1):
        if m == 0:
            out.append(Fraction(1))
            continue
        acc = Fraction(0)
        for k in range(m):
            acc += Fraction(math.comb(m + 1, k)) * out[k]
        out.append(-acc / (m + 1))
    return out


def riemann_zeta_em(s: float, cutoff: int = 50, correction_terms: int = 8) -> tuple[float, float]:
    """(zeta(s), zeta'(s)) by Euler-Maclaurin summation; valid for s < cutoff
    scales away from the pole at s = 1.

    zeta(s) = sum_{n<N} n^-s + N^(1-s)/(s-1) + N^-s/2
              + sum_k B_2k/(2k)! * (s)_(2k-1) * N^(-s-2k+1),
    differentiated term by term in s.  With N = 50 and eight correction terms
    the truncation error near s = 0 is far below 1e-12.
    """
    if s == 1.0:
        raise TorsionError("zeta has a pole at s = 1")
    n = cutoff
    bern = _bernoulli_numbers(2 * correction_terms)
    log_n = math.log(n)
    value = 0.0
    deriv = 0.0
    for k in range(1, n):
        term = k ** (-s) if k > 1 else 1.0
        value += term
        if k > 1:
            deriv -= math.log(k) * term
    tail = n ** (1 - s) / (s - 1)
    value += tail
    deriv += tail * (-log_n) - n ** (1 - s) / (s - 1) ** 2
    half = 0.5 * n ** (-s)
    value += half
    deriv -= log_n * half
    for k in range(1, correction_terms + 1):
        factors = [s + j for j in range(2 * k - 1)]
        prod = 1.0
        for f in factors:
            prod *= f
        dprod = 0.0
        for drop in range(len(factors)):
            partial = 1.0
            for j, f in enumerate(factors):
                if j != drop:
                    partial *= f
            dprod += partial
        coeff = float(bern[2 * k] / Fraction(math.factorial(2 * k)))
        scale = n ** (-s - 2 * k + 1)
        value += coeff * prod * scale
        deriv += coeff * scale * (dprod - prod * log_n)
    return value, deriv
