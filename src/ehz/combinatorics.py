"""Complete Bell polynomials, Stirling numbers of the first kind, and the
exp recurrence for formal power series.

Everything here is exact: inputs are integers or Fractions unless a caller
explicitly evaluates over floats/mpf (the ring operations are generic).
The Bell polynomials come from one binomial recurrence
(:func:`bell_eval_all`), and the Stirling numbers from two routes kept
independent so they can check one another: the recurrence, the one place
that expands a falling or rising factorial, and the Bell form.  The other
routes -- integer partitions and the partition sum, the harmonic-number
closed forms, powers of log(1+x), f^alpha and the determinant bracket --
are test-side oracles, in ``tests/oracles.py``.  Truncated power series
are plain tuples: entry m is the coefficient of x^m.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple, Union

import mpmath

from .numerics import DomainError

__all__ = [
    "bell_eval",
    "bell_eval_all",
    "stirling1",
    "stirling1_row",
    "stirling1_bell",
    "stirling1_bell_row",
    "log_to_exp_series",
]


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
    if len(b) != N:
        raise DomainError(f"need b_1..b_{N}")
    bs = [None, *b]  # entry k is b_k
    a0 = _exp_of(b0)
    a = [a0]
    exact = isinstance(a0, (int, Fraction))
    for n in range(1, N + 1):
        acc = bs[1] * a[n - 1]
        for k in range(2, n + 1):
            acc = acc + bs[k] * a[n - k]
        a.append(Fraction(acc, n) if exact else acc / n)
    return tuple(a)
