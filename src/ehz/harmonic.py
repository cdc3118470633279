"""Exact generalized harmonic numbers, shifted harmonic functions, the
alternating binomial sums S_n(m), and the Coppo binomial/Bell identity.

Shifted harmonic numbers are computed once, as integers over a common
denominator (:func:`scaled_harmonics`), and every Bell row of them runs on
those integers (:func:`signed_bell_row`, :func:`alt_binom_sum_bell`,
:func:`coppo_sweep`).  :func:`check_pole` is the one pole check of the
exact layer.  :func:`Hx` and :func:`coppo_lhs` are the literal sums; they
stay as independent oracles for the scaled routes.  The Coppo closed form
as Fraction rows, ``coppo_rhs_rows``, is a test-side oracle
(``tests/oracles.py``) over :func:`_coppo_rhs_ints`.

Everything in this module is exact rational arithmetic: binomial
coefficients come from math.comb (arbitrary-precision integers) and no
float ever enters a computation.  The alternating sums suffer catastrophic
cancellation in floating point (terms as large as C(n, n/2)), which is why
the two-sided identity checkers built on top of these functions can demand
strict equality.

Identity evaluators (Coppo, Larcombe, Spiess, Adamchik) return both sides
rather than a boolean so that failures are diagnosable; equality is
asserted by the verification registry.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from typing import Dict, Iterator, List, Tuple

from . import combinatorics
from .numerics import DomainError

__all__ = [
    "H",
    "Hx",
    "check_pole",
    "alt_binom_sum",
    "alt_binom_sum_bell",
    "coppo_lhs",
    "coppo_sweep",
    "scaled_harmonics",
    "signed_bell_row",
    "larcombe_check",
    "spiess_check",
    "adamchik_check",
]

_H_CACHE: Dict[int, List[Fraction]] = {}
_H_LOCK = threading.Lock()


def H(n: int, m: int) -> Fraction:
    """Generalized harmonic number: sum of 1/j^m for j = 1..n; H(0, m) = 0."""
    if n < 0 or m < 1:
        raise DomainError("H requires n >= 0 and m >= 1")
    with _H_LOCK:
        col = _H_CACHE.setdefault(m, [Fraction(0)])
        while len(col) <= n:
            j = len(col)
            col.append(col[j - 1] + Fraction(1, j**m))
        return col[n]


def check_pole(n: int, x: Fraction) -> None:
    """Raise DomainError naming k if k + x vanishes for some k = 0..n-1."""
    if x.denominator == 1 and -n < x <= 0:
        raise DomainError(f"pole at k = {-x}: x = {x} makes k + x vanish")


def Hx(n: int, m: int, x: Fraction) -> Fraction:
    """Shifted harmonic function: sum of 1/(k+x)^m for k = 0..n-1.

    x must avoid the poles 0, -1, ..., -(n-1); a pole raises DomainError
    naming the offending k.  Hx(n, m, 1) equals H(n, m).
    """
    if n < 0 or m < 1:
        raise DomainError("Hx requires n >= 0 and m >= 1")
    x = Fraction(x)
    check_pole(n, x)
    total = Fraction(0)
    for k in range(n):
        total += 1 / (k + x) ** m
    return total


def alt_binom_sum(n: int, m: int) -> Fraction:
    """S_n(m) = sum_{k=1}^{n} C(n,k) (-1)^k / k^m, exactly."""
    if n < 1 or m < 1:
        raise DomainError("alt_binom_sum requires n, m >= 1")
    return _alternating_sum(n, m, Fraction(0), 1)


def alt_binom_sum_bell(n: int, m: int) -> Fraction:
    """S_n(m) from the Bell polynomial of generalized harmonic numbers,

    -(1/m!) Y_m(0! H_n, 1! H_n^(2), ..., (m-1)! H_n^(m)), so it equals
    alt_binom_sum exactly.  The arguments are the integers L^j H_n^(j),
    L = lcm(1..n), read from the cached columns of :func:`H`, so Y_m comes
    out as L^m Y_m and is divided once.
    """
    if n < 1 or m < 1:
        raise DomainError("alt_binom_sum_bell requires n, m >= 1")
    L = math.lcm(*range(1, n + 1))
    args = []
    for j in range(m):
        h = H(n, j + 1)
        args.append(math.factorial(j) * L ** (j + 1) // h.denominator * h.numerator)
    y = combinatorics.bell_eval_all(args)[m]
    return Fraction(-y, math.factorial(m) * L**m)


def coppo_lhs(n: int, q: int, x: Fraction) -> Fraction:
    """sum_{k=0}^{n} C(n,k) (-1)^k / (k+x)^q with exact binomials."""
    if n < 0 or q < 1:
        raise DomainError("coppo_lhs requires n >= 0 and q >= 1")
    x = Fraction(x)
    check_pole(n + 1, x)
    return _alternating_sum(n, q, x, 0)


def _alternating_sum(n: int, q: int, x: Fraction, start: int) -> Fraction:
    """sum_{k=start}^{n} C(n,k) (-1)^k / (k+x)^q, cross-multiplied into one
    fraction with exact binomials: with x = p/d, term k is
    C(n,k) d^q / (d k + p)^q."""
    p, d = x.numerator, x.denominator
    dq = d**q
    num, den, c = 0, 1, math.comb(n, start)
    for k in range(start, n + 1):
        w = (d * k + p) ** q
        t = c * dq
        num = num * w + (-t if k & 1 else t) * den
        den *= w
        c = c * (n - k) // (k + 1)  # C(n, k+1)
    return Fraction(num, den)


def _units(n: int, x) -> Tuple[int, List[int]]:
    """D = lcm of |x_q k + x_p| over k = 0..n-1, where x = x_p/x_q, and the
    integers u_k = x_q D / (x_q k + x_p) = D / (k+x); a pole raises
    DomainError."""
    x = Fraction(x)
    check_pole(n, x)
    xp, xq = x.numerator, x.denominator
    bases = [xq * k + xp for k in range(n)]
    D = math.lcm(*bases)
    return D, [xq * D // b for b in bases]


def scaled_harmonics(n: int, m_max: int, x) -> Tuple[int, Iterator[List[int]]]:
    """Shifted harmonic numbers as integers over one common denominator.

    Returns D = lcm of |x_q k + x_p| over k = 0..n-1, where x = x_p/x_q, and
    an iterator over the prefixes i = 0..n of the rows
    [D^j Hx(i, j, x) for j = 1..m_max].  Every entry is an integer, because
    D^j / (k+x)^j = (x_q D / (x_q k + x_p))^j.

    The complete Bell polynomials are weighted-homogeneous:
    Y_m(c x_1, c^2 x_2, ..., c^m x_m) = c^m Y_m(x_1, ..., x_m).  So Bell rows
    of these arguments are D^m times the rows of the unscaled ones, and they
    run on plain integers until the caller divides once.
    """
    D, units = _units(n, x)

    def rows() -> Iterator[List[int]]:
        acc = [0] * m_max
        yield list(acc)
        for u in units:
            p = u
            for j in range(m_max):
                acc[j] += p
                p *= u
            yield list(acc)

    return D, rows()


def signed_bell_row(n: int, x) -> Tuple[int, List[int]]:
    """D and the Bell row D^r Y_r for r = 0..n, where Y_r has the arguments
    H_n(x), -1! H_n^(2)(x), ..., (-1)^(r-1) (r-1)! H_n^(r)(x).

    D is the common denominator of :func:`scaled_harmonics`; entry r
    divided by D^r is Y_r.
    """
    D, units = _units(n, x)
    args = []
    powers = units
    for j in range(n):
        args.append((-1) ** j * math.factorial(j) * sum(powers))
        powers = [p * u for p, u in zip(powers, units)]
    return D, combinatorics.bell_eval_all(args)


def _coppo_rhs_ints(q_max: int, x: Fraction, n_max: int) -> Tuple[int, Iterator[tuple]]:
    """D of :func:`scaled_harmonics` and, for n = 0..n_max, the integers
    (num, den, ys) of row n of the Coppo closed form: num/den is the gamma
    ratio n! / (x (x+1) ... (x+n)), ys the Bell row of the arguments
    (j-1)! D^j H_{n+1}^(j)(x), and sum_k C(n,k) (-1)^k / (k+x)^q is
    num ys[q-1] / (den D^(q-1) (q-1)!)."""
    x = Fraction(x)
    xp, xq = x.numerator, x.denominator
    facts = [math.factorial(j) for j in range(q_max - 1)]
    D, rows = scaled_harmonics(n_max + 1, q_max - 1, x)

    def ints() -> Iterator[Tuple[int, int, List[int]]]:
        next(rows)  # the empty prefix: row n reads H_{n+1}
        num, den = 1, 1  # n! x_q^(n+1) and prod_{k<=n} (x_q k + x_p)
        for n, hs in enumerate(rows):
            num *= xq * max(n, 1)
            den *= xq * n + xp
            yield num, den, combinatorics.bell_eval_all([f * h for f, h in zip(facts, hs)])

    return D, ints()


def coppo_sweep(n_max: int, q_max: int, x: Fraction):
    """Yield (n, q, lhs, rhs) over the full grid n <= n_max, q <= q_max.

    lhs is the brute-force binomial sum, read from a difference table: with
    D = lcm of |x_q k + x_p| over k <= n_max, f_k = (x_q D / (x_q k + x_p))^q
    = D^q / (k+x)^q is an integer, and n passes of d[k] -= d[k+1] (Pascal's
    rule) leave d0 = sum_k C(n,k) (-1)^k f_k = D^q lhs in d[0].  rhs is
    the closed form of :func:`_coppo_rhs_ints`, taken as its integers
    num Y_{q-1} / (den D^(q-1) (q-1)!).  The two sides share only x and D.

    The sides are compared by cross-multiplication,
    d0 den (q-1)! == num Y_{q-1} D, and only the yielded Fractions are
    reduced: on a match lhs and rhs are one Fraction d0/D^q, on a mismatch
    each side is reduced on its own.  The grid costs O(n_max^2 q_max)
    integer operations and one reduction per entry.
    """
    x = Fraction(x)
    D, rows = _coppo_rhs_ints(q_max, x, n_max)
    _, units = _units(n_max + 1, x)
    facts = [math.factorial(j) for j in range(q_max)]
    powers = [D**q for q in range(q_max + 1)]
    tables = [[u**q for u in units] for q in range(1, q_max + 1)]
    for n, (num, den, ys) in enumerate(rows):
        right = num * D
        for q, d in enumerate(tables, 1):
            lhs = Fraction(d[0], powers[q])
            if d[0] * den * facts[q - 1] == right * ys[q - 1]:
                yield n, q, lhs, lhs
            else:
                yield n, q, lhs, Fraction(num * ys[q - 1], den * powers[q - 1] * facts[q - 1])
        tables = [[a - b for a, b in zip(d, d[1:])] for d in tables]


def larcombe_check(variant: int, m: int, n: int) -> Tuple[Fraction, Fraction]:
    """Both sides of the selected alternating binomial identity.

    Variant v in 1..4 scales the alternating sum of C(n,k)(-1)^k/(m+k)^v by
    (v-1)! m C(m+n, n); the right side is built from the partial harmonic
    sums over k = m .. m+n.
    """
    if variant not in (1, 2, 3, 4):
        raise DomainError("variant must be in 1..4")
    if m < 1 or n < 0:
        raise DomainError("requires m >= 1 and n >= 0")
    front = math.comb(m + n, n)
    s = coppo_lhs(n, variant, Fraction(m))
    # Hx(n + 1, j, m) for the j < variant this variant uses, from the H cache
    h = [None] + [H(m + n, j) - H(m - 1, j) for j in range(1, variant)]
    if variant == 1:
        lhs = m * front * s
        rhs = Fraction(1)
    elif variant == 2:
        lhs = m * front * s
        rhs = h[1]
    elif variant == 3:
        lhs = 2 * m * front * s
        rhs = h[1] ** 2 + h[2]
    else:
        lhs = 6 * m * front * s
        rhs = h[1] ** 3 + 3 * h[1] * h[2] + 2 * h[3]
    return Fraction(lhs), Fraction(rhs)


def spiess_check(variant: str, n: int) -> Tuple[Fraction, Fraction]:
    """Both sides of one of the three convolution identities for H_n.

    'a': sum 1/(k(n-k+1));  'b': weighted by H_{k-1};  'c': weighted by
    H_{k-1} H_{n-k}.  The right sides are cubic polynomials in the
    generalized harmonic numbers at n.  The left side is one integer sum
    over L = lcm(1..n+1): 1/(k(n-k+1)) = w_k / L^2 and h_j = L H_j.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    if variant not in ("a", "b", "c"):
        raise DomainError("variant must be 'a', 'b' or 'c'")
    h1, h2, h3 = H(n, 1), H(n, 2), H(n, 3)
    L, rows = scaled_harmonics(n + 1, 1, 1)
    h = [row[0] for row in rows]
    w = [0] + [(L // k) * (L // (n - k + 1)) for k in range(1, n + 1)]
    if variant == "a":
        lhs = Fraction(sum(w), L**2)
        rhs = Fraction(2, n + 1) * h1
    elif variant == "b":
        lhs = Fraction(2 * sum(w[k] * h[k - 1] for k in range(2, n + 1)), L**3)
        rhs = Fraction(3, n + 1) * (h1 * h1 - h2)
    else:
        lhs = Fraction(4 * sum(w[k] * h[k - 1] * h[n - k] for k in range(2, n + 1)), L**4)
        rhs = Fraction(4, n + 1) * (h1**3 - 3 * h1 * h2 + 2 * h3)
    return lhs, rhs


#: term k of the left side of each adamchik_check variant
_ADAMCHIK_TERMS = {
    1: lambda k: H(k, 1) / k,
    2: lambda k: H(k, 2) / k + H(k, 1) / k**2,
    3: lambda k: (H(k, 1) ** 2 + H(k, 2)) / k,
}
_ADAMCHIK_SUMS: Dict[int, List[Fraction]] = {}
_ADAMCHIK_LOCK = threading.Lock()


def adamchik_check(variant: int, n: int) -> Tuple[Fraction, Fraction]:
    """Both sides of the three finite Euler-sum identities at depth n.

    1: sum H_k/k                    = (H_n^2 + H_n^(2)) / 2
    2: sum H_k^(2)/k + sum H_k/k^2  = H_n^(3) + H_n H_n^(2)
    3: sum H_k^2/k + sum H_k^(2)/k  = H_n^3/3 + H_n H_n^(2) + 2 H_n^(3)/3
       (variant 3 also equals -2 S_n(3) and the nested double sum;
       callers may check those separately)

    The left sides are prefix sums, cached per variant and extended
    incrementally like :func:`H`'s columns.
    """
    if variant not in (1, 2, 3):
        raise DomainError("variant must be in 1..3")
    if n < 1:
        raise DomainError("n must be >= 1")
    with _ADAMCHIK_LOCK:
        sums = _ADAMCHIK_SUMS.setdefault(variant, [Fraction(0)])
        term = _ADAMCHIK_TERMS[variant]
        while len(sums) <= n:
            sums.append(sums[-1] + term(len(sums)))
        lhs = sums[n]
    h1, h2, h3 = H(n, 1), H(n, 2), H(n, 3)
    if variant == 1:
        rhs = (h1 * h1 + h2) / 2
    elif variant == 2:
        rhs = h3 + h1 * h2
    else:
        rhs = Fraction(1, 3) * h1**3 + h1 * h2 + Fraction(2, 3) * h3
    return lhs, rhs
