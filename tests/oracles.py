"""Independent routes that the CLI never runs, kept as the tests' oracles.

Each one checks a route of ``ehz`` against a second derivation: the
partition sum and the banded determinant bracket against the Bell
recurrence, the harmonic closed forms against the Stirling recurrence, and
the Gamma derivatives, reciprocal-gamma coefficients and log-gamma series
against one another and against mpmath.  The acceptance suite and the unit
tests import them with ``from oracles import ...``.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from typing import Dict, Iterator, List, Sequence, Tuple, Union

import mpmath

from ehz import combinatorics, harmonic
from ehz.combinatorics import log_to_exp_series
from ehz.harmonic import H
from ehz.numerics import (
    DomainError,
    Mode,
    PrecisionContext,
    Real,
    const_gamma,
    const_log2,
    const_pi,
    const_zeta,
)

# ----------------------------------------------------------------------
# Partitions and the partition-sum route to the Bell polynomials.
# ----------------------------------------------------------------------

#: Multiplicity vector (k_1, ..., k_n) with sum j*k_j = n.
Partition = Tuple[int, ...]


def enumerate_partitions(n: int) -> List[Partition]:
    """ORACLE: all multiplicity vectors of weight n, descending lexicographic.

    Each vector (k_1, ..., k_n) satisfies k_1 + 2 k_2 + ... + n k_n = n.
    n = 0 yields the single empty partition.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    if n == 0:
        return [()]
    out: List[Partition] = []
    ks = [0] * n

    def rec(j: int, remaining: int) -> None:
        if remaining == 0:  # k_j, ..., k_n are all 0
            out.append(tuple(ks))
            return
        if j == n:
            # k_n must absorb the leftover weight exactly
            if remaining % n == 0:
                ks[n - 1] = remaining // n
                out.append(tuple(ks))
                ks[n - 1] = 0
            return
        for k in range(remaining // j, -1, -1):
            ks[j - 1] = k
            rec(j + 1, remaining - j * k)
        ks[j - 1] = 0

    rec(1, n)
    return out


def partition_count(n: int) -> int:
    """ORACLE: p(n), the number of partitions of n (Euler pentagonal recurrence)."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            total += sign * p[m - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p[n]


def bell_coefficients(n: int) -> Dict[Partition, int]:
    """ORACLE: monomial coefficients of Y_n: partition -> n! / (prod k_j! (j!)^k_j).

    The coefficient multiplies prod_j x_j^{k_j}; all values are positive
    integers.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    nfact = math.factorial(n)
    coeffs: Dict[Partition, int] = {}
    for part in enumerate_partitions(n):
        denom = 1
        for j, k in enumerate(part, start=1):
            if k:
                denom *= math.factorial(k) * math.factorial(j) ** k
        q, r = divmod(nfact, denom)
        if r:
            raise ArithmeticError(f"{part} is not a partition of {n}: {denom} does not divide {n}!")
        coeffs[part] = q
    return coeffs


#: n -> Y_n's monomials as (coefficient, ((j, k_j) for each k_j > 0)), x_{j+1}
#: taken to the power k_j: :func:`bell_coefficients` read once per n
_BELL_MONOMIALS: Dict[int, Tuple[Tuple[int, Tuple[Tuple[int, int], ...]], ...]] = {}
_BELL_LOCK = threading.Lock()


def bell_from_partitions(xs: Sequence):
    """ORACLE: Y_n by the explicit partition sum (independent of bell_eval).

    Exact input is summed in integers: every monomial has weight
    sum j k_j = n, so Y_n(x) = Y_n(L x_1, L^2 x_2, ...) / L^n with L the lcm
    of the denominators, and the arguments L^j x_j are integers.  Each n's
    partitions and coefficients are enumerated once and cached.
    """
    n = len(xs)
    if n == 0:
        return 1
    with _BELL_LOCK:
        if n not in _BELL_MONOMIALS:
            _BELL_MONOMIALS[n] = tuple(
                (coeff, tuple((j, k) for j, k in enumerate(part) if k))
                for part, coeff in bell_coefficients(n).items()
            )
        monomials = _BELL_MONOMIALS[n]
    any_fraction = any(isinstance(v, Fraction) for v in xs)
    exact = all(isinstance(v, (int, Fraction)) for v in xs)
    L = math.lcm(*(Fraction(v).denominator for v in xs)) if exact else 1
    args = [int(v * L**j) for j, v in enumerate(xs, start=1)] if exact else xs
    total = args[0] * 0
    for coeff, powers in monomials:
        mono = coeff
        for j, k in powers:
            mono = mono * args[j] ** k
        total = total + mono
    return Fraction(total, L**n) if any_fraction else total


# ----------------------------------------------------------------------
# Stirling numbers from harmonic closed forms, and powers of log(1+x).
# ----------------------------------------------------------------------


def stirling1_closed(n: int, k: int) -> Union[int, Fraction]:
    """ORACLE: s(n, k) for k <= 4 from the harmonic-number closed forms.

    The result must equal stirling1(n, k); a closed form that is not an
    integer comes back as its exact Fraction, for the caller to compare.
    """
    if not 1 <= k <= 4:
        raise DomainError("closed forms cover k in 1..4 only")
    if n < 1:
        raise DomainError("n must be >= 1")
    f = math.factorial(n - 1)
    if k == 1:
        val = Fraction((-1) ** (n + 1) * f)
    elif k == 2:
        val = (-1) ** n * f * H(n - 1, 1)
    elif k == 3:
        h1, h2 = H(n - 1, 1), H(n - 1, 2)
        val = (-1) ** (n + 1) * Fraction(f, 2) * (h1 * h1 - h2)
    else:
        h1, h2, h3 = H(n - 1, 1), H(n - 1, 2), H(n - 1, 3)
        val = (-1) ** n * Fraction(f, 6) * (h1**3 - 3 * h1 * h2 + 2 * h3)
    val = Fraction(val)
    return val.numerator if val.denominator == 1 else val


def log_power_coeffs(k: int, N: int) -> tuple:
    """ORACLE: coefficients of log^k(1+x) through x^N by exact Cauchy products.

    The x^n coefficient equals k! s(n, k) / n! for n >= k and 0 below.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    if N < k:
        raise DomainError("N must be >= k")
    base = [Fraction(0)] + [Fraction((-1) ** (m + 1), m) for m in range(1, N + 1)]
    acc = base
    for _ in range(k - 1):
        nxt = [Fraction(0)] * (N + 1)
        for i in range(1, N + 1):
            ai = acc[i]
            if not ai:
                continue
            for j in range(1, N - i + 1):
                nxt[i + j] += ai * base[j]
        acc = nxt
    return tuple(acc)


def series_pow_alpha(b0, b: Sequence, alpha, N: int) -> tuple:
    """ORACLE: coefficients of f^alpha: scale every b_k by alpha, then exponentiate.

    alpha = 1 reproduces log_to_exp_series; alpha = -1 gives the reciprocal
    series.
    """
    scaled = [v * alpha for v in b]
    if isinstance(b0, (int, Fraction)) and b0 == 0:
        b0a = b0
    else:
        b0a = b0 * alpha
    return log_to_exp_series(b0a, scaled, N)


# ----------------------------------------------------------------------
# The banded determinant bracket [a_1, ..., a_n].
# ----------------------------------------------------------------------


def _bracket_matrix(a: Sequence) -> list:
    n = len(a)
    zero = a[0] * 0  # keeps every entry in the ring of the arguments
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if j == i - 1:
                row.append(zero + (n - i))
            elif j >= i:
                row.append(a[j - i])
            else:
                row.append(zero)
        rows.append(row)
    return rows


def det_bracket(a: Sequence):
    """ORACLE: the n x n banded determinant [a_1, ..., a_n]; empty input gives 1.

    Satisfies n! a_n = a_0 [b_1, -b_2, ..., (-1)^(n+1) b_n] against
    log_to_exp_series.  One partially pivoted elimination serves every
    ring: int and Fraction inputs run it on Fractions, so their result is
    the exact determinant; floating inputs run it in their own type.
    """
    n = len(a)
    if n == 0:
        return 1
    if n == 1:
        return a[0]
    if all(isinstance(v, (int, Fraction)) for v in a):
        a = [Fraction(v) for v in a]
    return _det_pivoted(_bracket_matrix(a))


def _det_pivoted(m: list):
    n = len(m)
    m = [row[:] for row in m]
    det = m[0][0] * 0 + 1
    for k in range(n):
        piv = max(range(k, n), key=lambda i: abs(m[i][k]))
        if m[piv][k] == 0:
            return det * 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det = det * m[k][k]
        inv = 1 / m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] * inv
            if f == 0:
                continue
            for j in range(k, n):
                m[i][j] = m[i][j] - f * m[k][j]
    return det


# ----------------------------------------------------------------------
# Derivatives of Gamma at 1 and 1/2, reciprocal-gamma and log-gamma series.
# The symbol zeta(1) stands for Euler's gamma only inside determinant-bracket
# argument lists, the convention the bracket identities require.
# ----------------------------------------------------------------------


def _zeta1_bracket_args(m: int, ctx: PrecisionContext) -> list:
    """ORACLE: [-zeta(1), -zeta(2), ..., -zeta(m)] with zeta(1) read as gamma."""
    args = [-const_gamma(ctx)]
    args += [-const_zeta(k, ctx) for k in range(2, m + 1)]
    return args


def gamma_deriv_at_1(m: int, ctx: PrecisionContext) -> Real:
    """ORACLE: m-th derivative of Gamma at 1 via the complete Bell polynomial.

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
    """ORACLE: m-th derivative of Gamma at 1 as the banded determinant bracket.

    Independent route from gamma_deriv_at_1; the two must agree to working
    precision.
    """
    if m < 1:
        raise DomainError("m must be >= 1")
    with ctx.scope():
        return +det_bracket(_zeta1_bracket_args(m, ctx))


def gamma_deriv_at_half(m: int, ctx: PrecisionContext) -> Real:
    """ORACLE: m-th derivative of Gamma at 1/2.

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
    """ORACLE: Taylor coefficients lambda_1..lambda_{j_max} of 1/Gamma(x).

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
    """ORACLE: asymptotic estimate of |s(n, k)| / (n-1)! for fixed k >= 2:

    lambda_1 log^(k-1) n/(k-1)! + lambda_2 log^(k-2) n/(k-2)! + ... + lambda_k.
    """
    if n < 3 or k < 2:
        raise DomainError("requires n >= 3 and k >= 2")
    lam = recip_gamma_lambda(k, ctx)
    ln_n = ctx.ln(n)
    with ctx.scope():
        total = ctx.real(0)
        for i in range(1, k + 1):
            total += lam[i - 1] * ln_n ** (k - i) / math.factorial(k - i)
        return +total


def loggamma_taylor(N: int, ctx: PrecisionContext) -> tuple:
    """ORACLE: Taylor coefficients of log Gamma(1+x) through x^N.

    Coefficient of x is -gamma; coefficient of x^m for m >= 2 is
    (-1)^m zeta(m)/m.  (The sign alternation starts positive at m = 2:
    + zeta(2)/2 x^2 - zeta(3)/3 x^3 + ...; the numeric checks at
    x = +-1/4 and the reciprocal-series route both confirm this
    convention.)
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    with ctx.scope():
        coeffs = [ctx.real(0), -const_gamma(ctx)]
        for m in range(2, N + 1):
            coeffs.append((-1) ** m * const_zeta(m, ctx) / m)
        return tuple(+c for c in coeffs)


# ----------------------------------------------------------------------
# The Coppo closed form, row by row.
# ----------------------------------------------------------------------


def coppo_rhs_rows(q_max: int, x: Fraction, n_max: int) -> Iterator[List[Fraction]]:
    """ORACLE: closed-form side of the Coppo identity for n = 0, 1, ..., n_max.

    Row n lists sum_k C(n,k) (-1)^k / (k+x)^q for q = 1..q_max, each as
    [n! / (x (x+1) ... (x+n))] * (1/(q-1)!) * Y_{q-1}(0! H_{n+1}(x), ...,
    (q-2)! H_{n+1}^(q-1)(x)).  The gamma ratio is carried as an integer
    numerator and denominator and the harmonic numbers as the integers
    A_j = D^j H_{n+1}^(j)(x) of ``harmonic.scaled_harmonics``, so each Bell
    row runs on integers and each entry is one division by D^(q-1) (q-1)!.
    These are the integers ``harmonic.coppo_sweep`` compares by
    cross-multiplication.
    """
    D, rows = harmonic._coppo_rhs_ints(q_max, x, n_max)
    scales = [D**j * math.factorial(j) for j in range(q_max)]
    for num, den, ys in rows:
        yield [Fraction(num * ys[j], den * scales[j]) for j in range(q_max)]
