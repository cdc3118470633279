"""Integer partitions, complete Bell polynomials, Stirling numbers of the
first kind, and exp/log/power machinery for formal power series.

Everything here is exact: inputs are integers or Fractions unless a caller
explicitly evaluates over floats/mpf (the ring operations are generic).
The two Bell-polynomial routes (partition sum and the binomial recurrence)
and the three Stirling routes (recurrence, harmonic closed forms, Bell
form) are kept independent so they can check one another; the recurrence
is the one place that expands a falling or rising factorial.  Truncated
power series are plain tuples: entry m is the coefficient of x^m.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple, Union

import mpmath

from .numerics import DomainError

__all__ = [
    "Partition",
    "enumerate_partitions",
    "partition_count",
    "bell_coefficients",
    "bell_eval",
    "bell_eval_all",
    "bell_from_partitions",
    "stirling1",
    "stirling1_row",
    "stirling1_closed",
    "stirling1_bell",
    "stirling1_bell_row",
    "log_power_coeffs",
    "log_to_exp_series",
    "series_pow_alpha",
    "det_bracket",
]

#: Multiplicity vector (k_1, ..., k_n) with sum j*k_j = n.
Partition = Tuple[int, ...]


def enumerate_partitions(n: int) -> List[Partition]:
    """All multiplicity vectors of weight n, descending lexicographic.

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
    """p(n), the number of partitions of n (Euler pentagonal recurrence)."""
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
    """Monomial coefficients of Y_n: partition -> n! / (prod k_j! (j!)^k_j).

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


def _check_kind(xs: Sequence) -> None:
    exact = sum(1 for v in xs if isinstance(v, (int, Fraction)))
    floats = sum(1 for v in xs if isinstance(v, float))
    mpfs = sum(1 for v in xs if isinstance(v, mpmath.mpf))
    if exact and (floats or mpfs) or (floats and mpfs):
        raise DomainError("bell_eval arguments must be of one numeric kind")
    if exact + floats + mpfs != len(xs):
        raise DomainError("unsupported element type in bell_eval")


def bell_eval_all(xs: Sequence) -> list:
    """Y_0, Y_1, ..., Y_n for the argument prefixes of ``xs`` (length n).

    Uses the generating-function recurrence
    Y_{m+1} = sum_{j=0}^{m} C(m, j) x_{j+1} Y_{m-j}.
    """
    _check_kind(xs)
    n = len(xs)
    ys = [xs[0] * 0 + 1 if n else 1]
    for m in range(n):
        comb_ = 1  # C(m, j) updated multiplicatively
        acc = xs[0] * ys[m]
        for j in range(1, m + 1):
            comb_ = comb_ * (m - j + 1) // j
            acc = acc + comb_ * xs[j] * ys[m - j]
        ys.append(acc)
    return ys


def bell_eval(xs: Sequence):
    """Complete Bell polynomial Y_n(x_1, ..., x_n); Y_0 = 1."""
    return bell_eval_all(xs)[-1]


#: n -> Y_n's monomials as (coefficient, ((j, k_j) for each k_j > 0)), x_{j+1}
#: taken to the power k_j: :func:`bell_coefficients` read once per n
_BELL_MONOMIALS: Dict[int, Tuple[Tuple[int, Tuple[Tuple[int, int], ...]], ...]] = {}
_BELL_LOCK = threading.Lock()


def bell_from_partitions(xs: Sequence):
    """Y_n by the explicit partition sum (independent oracle for bell_eval).

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
# Stirling numbers of the first kind (signed), three routes.
# ----------------------------------------------------------------------

_STIRLING_ROWS: List[Tuple[int, ...]] = [(1,)]
_STIRLING_LOCK = threading.Lock()


def stirling1_row(n: int) -> Tuple[int, ...]:
    """Row (s(n,0), ..., s(n,n)) from s(n+1,k) = s(n,k-1) - n s(n,k).

    Entry k is the coefficient of x^k in x (x-1) ... (x-n+1); its absolute
    value is the coefficient of x^k in x (x+1) ... (x+n-1).
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    with _STIRLING_LOCK:
        while len(_STIRLING_ROWS) <= n:
            m = len(_STIRLING_ROWS) - 1
            prev = _STIRLING_ROWS[m]
            row = [0] * (m + 2)
            for k in range(m + 2):
                acc = prev[k - 1] if 1 <= k <= m + 1 else 0
                if k <= m:
                    acc -= m * prev[k]
                row[k] = acc
            _STIRLING_ROWS.append(tuple(row))
        return _STIRLING_ROWS[n]


def stirling1(n: int, k: int) -> int:
    """Signed Stirling number of the first kind; 0 above the diagonal."""
    if n < 0 or k < 0:
        raise DomainError("n and k must be >= 0")
    if k > n:
        return 0
    return stirling1_row(n)[k]


def stirling1_closed(n: int, k: int) -> Union[int, Fraction]:
    """s(n, k) for k <= 4 from the harmonic-number closed forms.

    The result must equal stirling1(n, k); a closed form that is not an
    integer comes back as its exact Fraction, for the caller to compare.
    """
    from .harmonic import H

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


_STIRLING_BELL_ROWS: Dict[int, Tuple[int, ...]] = {}


def stirling1_bell_row(n: int) -> List[Union[int, Fraction]]:
    """s(n+1, r+1) for r = 0..n via one Bell recurrence.

    s(n+1, r+1) = (-1)^(n+r) (n!/r!) Y_r(H_n, -1! H_n^(2), ..., (-1)^(r-1) (r-1)! H_n^(r));
    the arguments of every Y_r are prefixes of one list, so a single
    Bell row (``harmonic.signed_bell_row`` at x = 1) yields the whole row.
    That row comes out as L^r Y_r with L = lcm(1..n), so each entry is one
    exact division by r! L^r.  An entry that does not divide exactly is
    returned as its exact Fraction, for the caller to report against
    s(n+1, r+1); only rows of integers are memoised.
    """
    from .harmonic import signed_bell_row

    if n < 0:
        raise DomainError("n must be >= 0")
    with _STIRLING_LOCK:
        if n in _STIRLING_BELL_ROWS:
            return list(_STIRLING_BELL_ROWS[n])
        L, ys = signed_bell_row(n, 1)
        nfact = math.factorial(n)
        row, integral = [], True
        for r, y in enumerate(ys):
            num, den = (-1) ** (n + r) * nfact * y, math.factorial(r) * L**r
            val, rem = divmod(num, den)
            if rem:
                val, integral = Fraction(num, den), False
            row.append(val)
        if integral:
            _STIRLING_BELL_ROWS[n] = tuple(row)
        return row


def stirling1_bell(n: int, r: int) -> Union[int, Fraction]:
    """s(n+1, r+1) via the Bell polynomial of signed harmonic numbers;
    r > n returns 0, matching s(n,k) = 0 above the diagonal.  A Bell form
    that is not an integer comes back as its Fraction
    (:func:`stirling1_bell_row`)."""
    if n < 0 or r < 0:
        raise DomainError("n and r must be >= 0")
    if r > n:
        return 0
    return stirling1_bell_row(n)[r]


def log_power_coeffs(k: int, N: int) -> tuple:
    """Coefficients of log^k(1+x) through x^N by exact Cauchy products.

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


def _exp_of(b0):
    if isinstance(b0, (int, Fraction)):
        if b0 == 0:
            return Fraction(1) if isinstance(b0, Fraction) else 1
        raise DomainError("exact work requires b0 = 0 (a_0 = 1)")
    if isinstance(b0, float):
        return math.exp(b0)
    return mpmath.exp(b0)


def log_to_exp_series(b0, b: Sequence, N: int) -> tuple:
    """Coefficients a_0..a_N of f from log f = b0 + sum b_n x^n / n.

    Solves n a_n = sum_{k=1}^{n} b_k a_{n-k} exactly; a_0 = exp(b0).
    ``b`` supplies b_1..b_N.
    """
    bs = _b_list(b, N)
    a0 = _exp_of(b0)
    a = [a0]
    exact = isinstance(a0, (int, Fraction))
    for n in range(1, N + 1):
        acc = bs[1] * a[n - 1]
        for k in range(2, n + 1):
            acc = acc + bs[k] * a[n - k]
        a.append(Fraction(acc, n) if exact else acc / n)
    return tuple(a)


def _b_list(b: Sequence, N: int) -> list:
    """[None, b_1, ..., b_N], so that entry k is b_k."""
    if len(b) != N:
        raise DomainError(f"need b_1..b_{N}")
    return [None, *b]


def series_pow_alpha(b0, b: Sequence, alpha, N: int) -> tuple:
    """Coefficients of f^alpha: scale every b_k by alpha, then exponentiate.

    alpha = 1 reproduces log_to_exp_series; alpha = -1 gives the reciprocal
    series.
    """
    bs = _b_list(b, N)
    scaled = [bs[k] * alpha for k in range(1, N + 1)]
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
    """The n x n banded determinant [a_1, ..., a_n]; empty input gives 1.

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
