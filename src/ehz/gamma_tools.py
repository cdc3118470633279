"""Gamma-function ratios and derivatives through Bell polynomials and the
determinant bracket, reciprocal-gamma Taylor coefficients, and the
asymptotic estimate for Stirling numbers of the first kind.

No general-purpose Gamma evaluator lives here: the ratio
g(x) = n! / (x (x+1) ... (x+n)) is an exact rational product whose poles
``harmonic.check_pole`` reports, its expanded denominator is read from
``combinatorics.stirling1_row``, and derivatives of Gamma are taken only at
the two special points 1 and 1/2 where the polygamma values reduce to zeta
values.  Series coefficients are plain tuples.  The symbol zeta(1)
stands for Euler's gamma *only* inside determinant-bracket argument lists,
mirroring the convention the bracket identities require.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List

import mpmath

from . import combinatorics
from .harmonic import Hx, check_pole
from .numerics import (
    DomainError,
    Mode,
    PrecisionContext,
    Real,
    const_gamma,
    const_log2,
    const_pi,
    const_zeta,
)

__all__ = [
    "gamma_ratio",
    "gamma_ratio_derivative_sides",
    "gamma_deriv_at_1",
    "gamma_deriv_at_1_det",
    "gamma_deriv_at_half",
    "recip_gamma_lambda",
    "wilf_asymptotic",
    "pochhammer_ratio_coeffs",
    "loggamma_taylor",
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


def _zeta1_bracket_args(m: int, ctx: PrecisionContext) -> list:
    """[-zeta(1), -zeta(2), ..., -zeta(m)] with zeta(1) read as gamma."""
    args = [-const_gamma(ctx)]
    args += [-const_zeta(k, ctx) for k in range(2, m + 1)]
    return args


def gamma_deriv_at_1(m: int, ctx: PrecisionContext) -> Real:
    """m-th derivative of Gamma at 1 via the complete Bell polynomial.

    Y_m(-gamma, x_1, ..., x_{m-1}) with x_p = (-1)^(p+1) p! zeta(p+1),
    i.e. the successive polygamma values at 1.
    """
    if m < 1:
        raise DomainError("m must be >= 1")
    with ctx.scope():
        args = [-const_gamma(ctx)]
        args += [
            (-1) ** (p + 1) * math.factorial(p) * const_zeta(p + 1, ctx)
            for p in range(1, m)
        ]
        return +combinatorics.bell_eval(args)


def gamma_deriv_at_1_det(m: int, ctx: PrecisionContext) -> Real:
    """m-th derivative of Gamma at 1 as the banded determinant bracket.

    Independent route from gamma_deriv_at_1; the two must agree to working
    precision.
    """
    if m < 1:
        raise DomainError("m must be >= 1")
    with ctx.scope():
        return +combinatorics.det_bracket(_zeta1_bracket_args(m, ctx))


def gamma_deriv_at_half(m: int, ctx: PrecisionContext) -> Real:
    """m-th derivative of Gamma at 1/2.

    sqrt(pi) * Y_m(psi(1/2), psi'(1/2), ..., psi^(m-1)(1/2)) with
    psi(1/2) = -gamma - 2 log 2 and
    psi^(p)(1/2) = (-1)^(p+1) p! (2^(p+1) - 1) zeta(p+1).
    """
    if m < 1:
        raise DomainError("m must be >= 1")
    with ctx.scope():
        psi0 = -const_gamma(ctx) - 2 * const_log2(ctx)
        args = [psi0]
        args += [
            (-1) ** (p + 1)
            * math.factorial(p)
            * (2 ** (p + 1) - 1)
            * const_zeta(p + 1, ctx)
            for p in range(1, m)
        ]
        root_pi = math.sqrt(const_pi(ctx)) if ctx.mode is Mode.FAST else mpmath.sqrt(const_pi(ctx))
        return +(root_pi * combinatorics.bell_eval(args))


def recip_gamma_lambda(j_max: int, ctx: PrecisionContext) -> List[Real]:
    """Taylor coefficients lambda_1..lambda_{j_max} of 1/Gamma(x).

    Built from the recurrence
    lambda_{n+1} = (1/n) [gamma lambda_n
                          + sum_{j=0}^{n-2} (-1)^(n-j-1) zeta(n-j) lambda_{j+1}],
    lambda_1 = 1.  The partial sums of sum lambda_j x^j reproduce
    1/Gamma(x) inside the unit disc.
    """
    if j_max < 1:
        raise DomainError("j_max must be >= 1")
    with ctx.scope():
        g = const_gamma(ctx)
        lam = [ctx.real(1)]
        for n in range(1, j_max):
            acc = g * lam[n - 1]
            for j in range(0, n - 1):
                acc += (-1) ** (n - j - 1) * const_zeta(n - j, ctx) * lam[j]
            lam.append(acc / n)
        return [+v for v in lam]


def wilf_asymptotic(n: int, k: int, ctx: PrecisionContext) -> Real:
    """Asymptotic estimate of |s(n, k)| / (n-1)! for fixed k >= 2:

    lambda_1 log^(k-1) n/(k-1)! + lambda_2 log^(k-2) n/(k-2)! + ... + lambda_k.
    """
    if n < 3 or k < 2:
        raise DomainError("requires n >= 3 and k >= 2")
    lam = recip_gamma_lambda(k, ctx)
    ln_n = ctx.ln(n)
    with ctx.scope():
        total = ctx.zero()
        for i in range(1, k + 1):
            total += lam[i - 1] * ln_n ** (k - i) / math.factorial(k - i)
        return +total


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


def loggamma_taylor(N: int, ctx: PrecisionContext) -> tuple:
    """Taylor coefficients of log Gamma(1+x) through x^N.

    Coefficient of x is -gamma; coefficient of x^m for m >= 2 is
    (-1)^m zeta(m)/m.  (The sign alternation starts positive at m = 2:
    + zeta(2)/2 x^2 - zeta(3)/3 x^3 + ...; the numeric checks at
    x = +-1/4 and the reciprocal-series route both confirm this
    convention.)
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    with ctx.scope():
        coeffs = [ctx.zero(), -const_gamma(ctx)]
        for m in range(2, N + 1):
            coeffs.append((-1) ** m * const_zeta(m, ctx) / m)
        return tuple(+c for c in coeffs)
