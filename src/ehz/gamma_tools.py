"""Exact gamma-function ratios: g(x) = n! / (x (x+1) ... (x+n)), both
sides of its derivative identity, and the coefficients of the Pochhammer
ratio (u+x)_n / (u)_n.

No general-purpose Gamma evaluator lives here: g is an exact rational
product whose poles ``harmonic.check_pole`` reports, and its expanded
denominator is read from ``combinatorics.stirling1_row``.  Series
coefficients are plain tuples.  The derivatives of Gamma at 1 and 1/2
(through Bell polynomials and through the determinant bracket), the
reciprocal-gamma Taylor coefficients, the log-gamma series and the
asymptotic estimate for Stirling numbers built from them are test-side
oracles, in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import combinatorics
from .harmonic import Hx, check_pole
from .numerics import DomainError

__all__ = [
    "gamma_ratio",
    "gamma_ratio_derivative_sides",
    "pochhammer_ratio_coeffs",
]


def gamma_ratio(n: int, x: Fraction) -> Fraction:
    """Exact rational gamma ratio g(x) = n! / (x (x+1) ... (x+n)).

    Poles (x a non-positive integer inside the product) raise DomainError.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    x = Fraction(x)
    check_pole(n + 1, x)
    den = Fraction(1)
    for k in range(n + 1):
        den *= x + k
    return math.factorial(n) / den


def gamma_ratio_derivative_sides(n: int, x: Fraction):
    """Both sides of g'(x) = -g(x) H_{n+1}(x).

    The left side differentiates the product form exactly: with
    P(x) = prod_{k=0}^{n} (x+k), g = n!/P and g' = -n! P'/P^2, where the
    coefficient of x^k in P is |s(n+1, k)|.  For x = a/b, P and P' are the
    integer sums p = b^(n+1) P(x) and dp = b^n P'(x), so the left side is
    one reduced Fraction -n! dp b^(n+2) / p^2.  The right side uses the
    telescoped harmonic sum.  Returns (lhs, rhs) as exact rationals; a pole
    raises DomainError.
    """
    x = Fraction(x)
    check_pole(n + 1, x)
    a, b = x.numerator, x.denominator
    coeffs = [abs(c) for c in combinatorics.stirling1_row(n + 1)]
    p = sum(c * a**i * b ** (n + 1 - i) for i, c in enumerate(coeffs))
    dp = sum(i * c * a ** (i - 1) * b ** (n + 1 - i) for i, c in enumerate(coeffs) if i)
    lhs = Fraction(-math.factorial(n) * dp * b ** (n + 2), p**2)
    rhs = -gamma_ratio(n, x) * Hx(n + 1, 1, x)
    return lhs, rhs


def pochhammer_ratio_coeffs(n: int, u: Fraction, N: int) -> tuple:
    """Exact coefficients of (u+x)_n / (u)_n as a series in x.

    log of the ratio is sum_m (-1)^(m-1) H_n^(m)(u) x^m / m, so the
    coefficients come from the exp recurrence with
    b_m = (-1)^(m-1) H_n^(m)(u).
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    u = Fraction(u)
    check_pole(n, u)
    b = [(-1) ** (m - 1) * Hx(n, m, u) for m in range(1, N + 1)]
    return combinatorics.log_to_exp_series(Fraction(0), b, N)
