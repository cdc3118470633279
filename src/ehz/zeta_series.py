"""Floating-point evaluators for the zeta-function series families:

* Hasse-style globally convergent double sums for zeta(s, x),
* the alternating (eta) double sums with geometric outer weights,
* the two Bell-polynomial single series for zeta(q+1, x) -- one whose
  arguments are shifted harmonic numbers H_n^(m)(x) and one whose
  arguments are the plain H_{n-1}^(m) with alternating signs,
* the Stirling-number series for zeta(p+1),
* mixed series combining plain and shifted harmonic numbers,
* nonlinear Euler-sum partial sums, central-binomial series for Catalan's
  constant and zeta(2), polylogarithm identities and digamma-weighted sums.

Every evaluator returns a :class:`SeriesResult` carrying the partial sum,
the term budget actually honoured, and an analytic tail estimate (integral
surrogates of the form  integral (log t + c)^d t^(-1-a) dt,  self-calibrated
from the final term so no per-formula constants need tuning; geometric
series use twice the final term).  Terms are summed in ascending index, so
results are bit-reproducible.  The FAST kernels of the gamma-ratio series,
the central-binomial series and the digamma sum add their own terms by
Neumaier's step, with no abs() in the compare where every term is >= 0, and
count n in doubles (see :func:`_gamma_ratio_series`).  Every other loop is a
generator of its terms, summed by ``numerics.compensated_sum``: Neumaier
compensated from a float zero, exact and rounded once from an mpf zero (the
HIGH gamma-ratio series sum fixed-point integers instead).

Gamma-ratio factors are never computed from a Gamma evaluator: the exact
recurrence R_{n+1} = R_n n/(n+x), seeded from R_1 = 1/x, is used
throughout.  Inner alternating binomial sums are never summed term by term
in doubles, which would lose everything to terms as large as C(n, n/2).
Integer s uses their closed form.  Non-integer s swaps the double sum's two
sums into one weighted sum over phi_k = (k+x)^-s, an O(N) dot product at
cancellation-guard precision (:func:`_swapped_sum`).  The polylog identities
carry their inner sums across rows by f_j(n) = f_j(n-1) + f_{j-1}(n)/n.  The
other per-term factors are carried across terms too, at O(q) work per
term: the Bell factor as symmetric-polynomial coefficients, which for the
Stirling series are the column |s(k, j)|/(k-1)!.  The literal routes
(exact terms from ``combinatorics.bell_eval``, ``combinatorics.stirling1``
and ``harmonic.coppo_rhs_rows``, the mixed series' harmonic-number
brackets, the binomial-row loop, the exact-Fraction polylog rows) live in
the tests.

The eta double sums at integer s carry the same h_m recurrence as
euler_hurwitz (:func:`_gamma_ratio_series`): inner row n - 1 is
R_n(x) h_{s-1}(b_0, ..., b_{n-1}), weighted 2^-n; the exact Coppo rows
(``harmonic.coppo_rhs_rows``) are the tests' reference for it.  So does
the mixed series sum (n H_n - 1) R_n(x) h_{m-1} / n^2, of which mixed-q,
zeta3-half, E45_8 and E45_10 are multiples; the Shen series is
stirling_route at x = 1, and the nonlinear Euler sums at x = 1 are these
series scaled (:data:`_EULER_SUMS`).  :func:`_gamma_ratio_result` gives
all of them their tail, scale and final rounding.

Each :class:`Formula` of the CLI has one :class:`FormulaSpec` in
:data:`FORMULAS` (parameter kind, shift, evaluator, reference);
:func:`evaluate` and :func:`reference_value` are lookups into it.
"""

from __future__ import annotations

import enum
import itertools
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import mpmath
from mpmath import mpf

from .numerics import (
    DomainError,
    Mode,
    NumericError,
    PrecisionContext,
    Real,
    SeriesResult,
    compensated_sum,
    const_catalan,
    const_gamma,
    const_log2,
    const_pi,
    const_zeta,
    hurwitz_zeta_em,
    working_precision,
)

__all__ = [
    "Formula",
    "EvalRequest",
    "ConvergenceRow",
    "EulerSumKind",
    "CatalanKind",
    "PolylogIdentity",
    "FormulaSpec",
    "FORMULAS",
    "hasse_hurwitz",
    "sondow_alt",
    "alt_hurwitz",
    "euler_hurwitz",
    "stirling_route",
    "shen_series",
    "mixed_q",
    "euler_sum_partial",
    "euler_sum_target",
    "catalan_series",
    "polylog",
    "polylog_identity_lhs",
    "polylog_identity_target",
    "digamma_half_sum",
    "digamma_half_target",
    "convergence_table",
    "fit_convergence_exponent",
    "evaluate",
    "reference_value",
    "NONINTEGER_S_TERM_CAP",
    "MAX_ORDER",
]

#: Row cap for non-integer s in the Hasse/eta double sums: the inner
#: binomial sums need about 0.302*n extra digits to absorb cancellation.
NONINTEGER_S_TERM_CAP = 400

#: Largest |s| or q that :func:`evaluate` accepts.  The tail surrogate
#: builds d! (d up to the order) as a double, which overflows near 170; an
#: unbounded order also costs order-sized work per term.  100 leaves
#: headroom for the x-dependent factors 1/a^(j+1) next to the d!.
MAX_ORDER = 100


class Formula(enum.Enum):
    HASSE = "hasse"
    HASSE_HURWITZ = "hasse-hurwitz"
    SONDOW_ALT = "sondow-alt"
    ALT_HURWITZ = "alt-hurwitz"
    EULER_HURWITZ = "euler-hurwitz"
    STIRLING_ROUTE = "stirling-route"
    SHEN = "shen"
    MIXED_Q = "mixed-q"
    CATALAN_RAMANUJAN = "catalan-ramanujan"
    CATALAN_CENTRAL = "catalan-central"
    ZETA2_DUP = "zeta2-dup"
    ZETA3_HALF = "zeta3-half"
    POLYLOG_14_3 = "polylog-14-3"
    POLYLOG_14_4 = "polylog-14-4"
    DIGAMMA_HALF_SUM = "digamma-half-sum"
    EULER_SUM_45_8 = "euler-sum-45-8"
    EULER_SUM_45_10 = "euler-sum-45-10"


class EulerSumKind(enum.Enum):
    E41 = "E41"
    E43 = "E43"
    E43_2 = "E43_2"
    E45_8 = "E45_8"
    E45_10 = "E45_10"
    ALT2 = "ALT2"
    ALT3 = "ALT3"
    ALT4 = "ALT4"
    ALT5 = "ALT5"


class CatalanKind(enum.Enum):
    RAMANUJAN_38 = "RAMANUJAN_38"
    CENTRAL_38_1 = "CENTRAL_38_1"
    ZETA2_37 = "ZETA2_37"
    ZETA3_HALF_45_6 = "ZETA3_HALF_45_6"


class PolylogIdentity(enum.Enum):
    E14_3 = "E14_3"
    E14_4 = "E14_4"


@dataclass(frozen=True)
class EvalRequest:
    """One series-evaluation request as issued by the CLI or benchmarks."""

    formula: Formula
    s_or_q: object = None
    x: Optional[Fraction] = None
    N: int = 1000
    ctx: PrecisionContext = PrecisionContext()

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError("N must be >= 1")


@dataclass(frozen=True)
class ConvergenceRow:
    N: int
    partial: Real
    reference: Real
    abs_error: Real
    rel_error: Real
    elapsed_seconds: float


# ----------------------------------------------------------------------
# Tail surrogates.
# ----------------------------------------------------------------------


def _log_tail_integral(d: int, a: float, N: int, c: float) -> float:
    """integral_N^inf (log t + c)^d t^(-1-a) dt, closed form."""
    lnc = math.log(N) + c
    total = 0.0
    jfact = 1.0
    for j in range(d + 1):
        if j:
            jfact *= j
        total += math.comb(d, j) * lnc ** (d - j) * jfact / a ** (j + 1)
    return N ** (-a) * total


def _tail_from_last(t_last: float, N: int, a: float, d: int, c: float) -> float:
    """Tail of a series whose terms behave like (log n + c)^d n^(-1-a),

    scaled so the model reproduces the final computed term exactly.
    """
    t_last = abs(t_last)
    if t_last == 0.0:
        return 0.0
    lnc = math.log(N) + c
    if lnc <= 0.0:
        lnc = 1.0
        c = lnc - math.log(N)
    try:
        scale = t_last * N ** (1.0 + a) / lnc**d
        return scale * _log_tail_integral(d, a, N, c)
    except (OverflowError, ZeroDivisionError):  # reported by _finish
        return math.inf


# ----------------------------------------------------------------------
# Inner sums of the double sums.
# ----------------------------------------------------------------------


def _eta_weights(N: int) -> Tuple[List[int], int, int]:
    """(W, 2^N, 2^N): W_k / 2^N = sum_{n=k}^{N-1} C(n,k) 2^-(n+1) = P(Bin(N, 1/2) >= k+1),
    the eta sum's weights once swapped; W_k = W_{k+1} + C(N, k+1)."""
    return list(itertools.accumulate(math.comb(N, j) for j in range(N, 0, -1)))[::-1], 2**N, 2**N


def _hasse_weights(N: int) -> Tuple[List[int], int, int]:
    """(L V, L, N): V_k = sum_{n=k}^{N-1} C(n,k)/(n+1), the Hasse sum's weights
    once swapped, over L = lcm(1..N); V_0 = H_N, V_{k+1} = C(N,k+1)/(k+1) - V_k."""
    L = math.lcm(*range(1, N + 1))
    terms = (L // k * math.comb(N, k) for k in range(1, N))
    first = sum(L // n for n in range(1, N + 1))  # L H_N
    return list(itertools.accumulate(terms, lambda v, t: t - v, initial=first)), L, N


def _swapped_sum(s_power, x: Fraction, N: int, ctx: PrecisionContext, weights, divisor=1):
    """(sum_{k<N} (-1)^k c_k phi_k / d, r_{N-1} / w), both over ``divisor``, in
    ctx's type, where (c, d, w) = weights(N), phi_k = (k+x)^(-s_power) and
    r_{N-1} = sum_k (-1)^k C(N-1,k) phi_k: a non-integer-s double sum with
    its two sums swapped, and its last term, whose outer weight is 1/w.
    Both are exact dot products at ctx.digits + 0.302 N + 10 digits, rounded
    once: the integer weights reach about 2^N and the sums are O(1).
    """
    if N > NONINTEGER_S_TERM_CAP:
        raise DomainError(
            f"non-integer exponents cap the term budget at {NONINTEGER_S_TERM_CAP}"
        )
    c, d, w = weights(N)
    d, w = d * Fraction(divisor), w * Fraction(divisor)
    with working_precision(ctx.digits + int(0.302 * N) + 10):
        xv = mpf(x.numerator) / x.denominator
        sp = mpf(s_power)
        phi = [(-1) ** k * (k + xv) ** (-sp) for k in range(N)]
        total = mpmath.fdot(c, phi) * d.denominator / d.numerator
        last = mpmath.fdot([math.comb(N - 1, k) for k in range(N)], phi)
        last = last * w.denominator / w.numerator
    return ctx.real(total), ctx.real(last)


# ----------------------------------------------------------------------
# Series evaluators.
# ----------------------------------------------------------------------


def _finish(ctx: PrecisionContext, total, N: int, tail: float) -> SeriesResult:
    if not math.isfinite(tail):
        raise NumericError("the tail estimate overflowed a double")
    with ctx.scope():
        value = ctx.real(+total)
    return SeriesResult(value=value, terms_used=N, tail_estimate=abs(tail), mode=ctx.mode)


def _require_terms(N: int) -> None:
    """Every evaluator sums N >= 1 terms: an empty sum has no tail to report."""
    if N < 1:
        raise DomainError(f"the term budget N must be >= 1, got N = {N}")


def _require_positive_x(x) -> Fraction:
    x = Fraction(x)
    if x <= 0:
        raise DomainError("x must be a positive rational")
    return x


def _ratio_seed(x: Fraction, ctx: PrecisionContext) -> Real:
    """R_1(x) = 1/x, the seed of the gamma-ratio recurrence."""
    try:
        return ctx.real(1 / x)
    except OverflowError:
        raise NumericError("the gamma-ratio seed 1/x overflowed a double") from None


def _to_float(num: int, den: int) -> float:
    """num/den correctly rounded, or inf (which the callers report)."""
    try:
        return num / den
    except OverflowError:
        return math.inf


def _gamma_ratio_series(kind: str, m: int, x: Fraction, N: int, ctx: PrecisionContext):
    """The gamma-ratio series' loop: (sum, last term, h, R_N).  ``kind`` is
    "euler-hurwitz" (term n = R_n a[m-1] / (m n), a[j] = h_j of 1/(i+x)),
    "stirling-route" (R_n a[m-1] / n, a[j] = e_j of 1, ..., 1/(n-1)), "eta"
    (2^-n R_n a[m-1], a[j] = h_j) or "mixed" ((n H_n - 1) R_n a[m-1] / n^2,
    a[j] = h_j).  h is the larger of a[1] and H_N (H_N only for "mixed"), the
    harmonic number behind the tail's log offset.  HIGH is fixed-point.

    FAST runs one kernel per kind (:data:`_FAST_KERNELS`).  The kernels count
    n in doubles (n += 1.0) and form m n and n n as products of doubles:
    every counter is an exact integer below 2^53, and each product rounds
    once, to the double nearest the exact integer, as the int-to-float
    conversion of the integer product did.  So every term is bit for bit the
    one that int counters give.

    Each kernel adds its own terms by Neumaier's step, written out in its
    loop, with ``s >= t`` where ``numerics.compensated_sum`` compares
    ``abs(s) >= abs(t)``.  Every term is >= 0, since x > 0 makes R_n, every
    1/(i+x), every a[j] and every weight non-negative, and n H_n - 1 >= 0;
    so the running sum s is >= 0 too, and the two compares agree on every
    such pair, inf and nan included (a compare with nan is False either
    way).  The sums are bit for bit compensated_sum's.
    """
    if ctx.mode is Mode.HIGH:
        return _fixed_point_series(kind, m, x, N, ctx)
    a = [1.0] + [0.0] * (m - 1)
    total, term, R, H = _FAST_KERNELS[kind](a, _ratio_seed(x, ctx), float(x), N)
    return total, term, max(a[1] if m > 1 else 0.0, H), R


# The FAST kernels of _gamma_ratio_series.  Each sums terms n = 1..N of one
# kind and returns (sum, last term, R_N, H_N), H_N being 0.0 but for
# "mixed".  They advance R and a[] with n - 1 in ``n`` at the top of the
# loop; a[] is updated in place.


def _stirling_fast(a, R, xv, N):
    js = range(len(a) - 1, 0, -1)
    n = s = c = t = 0.0
    for _ in range(N):
        if n:
            R = R * n / (n + xv)
        n += 1.0
        t = R * a[-1] / n
        u = s + t
        if s >= t:
            c += (s - u) + t
        else:
            c += (t - u) + s
        s = u
        for j in js:  # descending: a[j-1] is still e_{j-1} of 1, ..., 1/(n-1)
            a[j] = a[j] + a[j - 1] / n
    return s + c, t, R, 0.0


def _euler_hurwitz_fast(a, R, xv, N):
    js, m = range(1, len(a)), float(len(a))
    n = mn = s = c = t = 0.0
    for _ in range(N):
        den = n + xv
        if n:
            R = R * n / den
        b, prev = 1 / den, 1.0
        for j in js:
            prev = a[j] = a[j] + b * prev
        n += 1.0
        mn += m
        t = R * a[-1] / mn
        u = s + t
        if s >= t:
            c += (s - u) + t
        else:
            c += (t - u) + s
        s = u
    return s + c, t, R, 0.0


def _eta_fast(a, R, xv, N):
    js = range(1, len(a))
    n = s = c = t = 0.0
    w = 1.0
    for _ in range(N):
        den = n + xv
        if n:
            R = R * n / den
        b, prev = 1 / den, 1.0
        for j in js:
            prev = a[j] = a[j] + b * prev
        n += 1.0
        w = w / 2
        t = w * R * a[-1]
        u = s + t
        if s >= t:
            c += (s - u) + t
        else:
            c += (t - u) + s
        s = u
    return s + c, t, R, 0.0


def _mixed_fast(a, R, xv, N):
    js = range(1, len(a))
    n = H = s = c = t = 0.0
    for _ in range(N):
        den = n + xv
        if n:
            R = R * n / den
        b, prev = 1 / den, 1.0
        for j in js:
            prev = a[j] = a[j] + b * prev
        n += 1.0
        H = H + 1 / n
        t = (n * H - 1) * a[-1] * R / (n * n)
        u = s + t
        if s >= t:
            c += (s - u) + t
        else:
            c += (t - u) + s
        s = u
    return s + c, t, R, H


_FAST_KERNELS = {
    "stirling-route": _stirling_fast,
    "euler-hurwitz": _euler_hurwitz_fast,
    "eta": _eta_fast,
    "mixed": _mixed_fast,
}


def _fixed_point_series(kind: str, m: int, x: Fraction, N: int, ctx: PrecisionContext):
    """:func:`_gamma_ratio_series` in integers at scale 2^P, rounded once.

    With x = p/d exact, each step is a floor: R_n = floor(R_{n-1} d(n-1) /
    (d(n-1)+p)), a[j] += floor(a[j-1] d / (d(n-1)+p)) or floor(a[j-1] / n),
    H_n = H_{n-1} + floor(1 / n), term n = floor(R_n a[m-1] / w_n), and for
    "mixed", whose term n is R_n a[m-1] H_{n-1} / n, floor(floor(R_n a[m-1])
    H_{n-1} / n).  R_n keeps P+1 significant bits (scale 2^(P+e)) for the
    tail's floats.  The exact sum is rounded once at ctx.dps.

    Bound: each floor loses under one unit 2^-P and all quantities are
    non-negative, so S' <= S; R_n loses at most n units, a[j] at most
    n (a[0] + ... + a[j-1]), H_{n-1} under n.  With a[j] <= L^j,
    H_n <= L, L = 1/x + 1 + bitlen(N), and n / w_n <= 1:
    S - S' < E 2^-P, E = 2 N m (1 + 1/x) L^(m-1), and for "mixed"
    E = 2 N (m + 2) (1 + 1/x) L^m.  S is at least its first non-zero term
    S_low: term m for "stirling-route", term 2 >= x^-m / (2 (1 + x)) for
    "mixed" (n H_n - 1 vanishes at n = 1), term 1 otherwise.  So
    P = ceil(dps log2 10) + log2(E / S_low) + 4 gives (S - S') / S < 10^-dps / 4.
    """
    p, d = x.numerator, x.denominator
    L = 1 / x + 1 + N.bit_length()
    E = 2 * N * m * (1 + 1 / x) * L ** (m - 1)
    if kind == "stirling-route":
        low = 1 / (m * math.prod(k + x for k in range(m)))
    elif kind == "mixed":
        low, E = x**-m / (2 * (1 + x)), E * (m + 2) * L / m
    else:
        low = x**-m / (m if kind == "euler-hurwitz" else 2)
    ratio = E / low
    P = math.ceil(ctx.dps * math.log2(10)) + ratio.numerator.bit_length() + 4
    P -= ratio.denominator.bit_length()
    e = max(0, p.bit_length() - d.bit_length() + 1)
    R = (d << (P + e)) // p  # R_n 2^(P+e)
    a = [1 << P] + [0] * (m - 1)  # a[j] 2^P
    w = m if kind == "euler-hurwitz" else 1
    total = t = H = 0  # H: H_{n-1} 2^P
    for n in range(1, N + 1):
        k = d * (n - 1)
        if n > 1:
            R = R * k // (k + p)
            shift = max(0, P + 1 - R.bit_length())
            R, e = R << shift, e + shift
        if kind != "stirling-route":
            for j in range(1, m):
                a[j] += a[j - 1] * d // (k + p)
        t = R * a[-1]  # R_n a[m-1] 2^(2P+e)
        if kind == "mixed":  # (n H_n - 1) / n^2 = H_{n-1} / n
            t = (t >> P) * H
            H += (1 << P) // n
        if kind == "eta":
            total += t >> (P + e + n)
        else:
            total += (t >> (P + e)) // (w * n)
        if kind == "stirling-route":  # a held e_j of 1, ..., 1/(n-1)
            for j in range(m - 1, 0, -1):
                a[j] += a[j - 1] // n
    with ctx.scope():
        value = mpmath.ldexp(mpf(total), -P)
    last = _to_float(t, (1 << (2 * P + e)) * ((1 << N) if kind == "eta" else w * N))
    h = max(a[1] if m > 1 else 0, H)
    return value, last, _to_float(h, 1 << P), _to_float(R, 1 << (P + e))


def _gamma_ratio_result(kind: str, m: int, x, N: int, ctx: PrecisionContext, scale=1):
    """scale times the :func:`_gamma_ratio_series` sum, with its tail: the one
    place that finishes a gamma-ratio series.  The tail is twice the last
    term for "eta", else :func:`_tail_from_last` of order m - 1 (m for
    "mixed") at offset h - log N, which starts from R_N / N for a zero last
    term of "stirling-route" and from R_N x^(1-m) / N for one of "mixed"."""
    _require_terms(N)
    x = _require_positive_x(x)
    total, term, h, R = _gamma_ratio_series(kind, m, x, N, ctx)
    if kind == "eta":
        if not math.isfinite(term):  # a[] only grows, so an overflow persists
            raise NumericError("an inner row overflowed a double")
        tail = 2.0 * abs(term)
    else:
        if term == 0.0 and kind != "euler-hurwitz":  # a series whose first terms vanish
            term = R * (float(x) ** (1 - m) if kind == "mixed" else 1.0) / N
        order = m if kind == "mixed" else m - 1
        tail = _tail_from_last(term, N, float(x), order, h - math.log(N))
    with ctx.scope():
        total = ctx.real(scale) * total
    return _finish(ctx, total, N, float(scale) * tail)


def euler_hurwitz(q: int, x, N: int, ctx: PrecisionContext) -> SeriesResult:
    """zeta(q+1, x) by the Bell series in shifted harmonic numbers:

    (1/q!) sum_{n>=1} (1/n) R_n(x) Y_{q-1}(0! H_n(x), ..., (q-2)! H_n^(q-1)(x))
    with R_n(x) the exact-recurrence gamma ratio.

    Y_m(0! H_n^(1)(x), ..., (m-1)! H_n^(m)(x)) / m! is the complete
    homogeneous symmetric polynomial h_m(b_0, ..., b_{n-1}), b_i = 1/(i+x),
    the t^m coefficient of prod_i 1/(1 - b_i t).  The coefficients
    a[m] = h_m are carried across n: a new b gives a[m] += b a[m-1] in
    ascending m, and term n is R_n a[q-1] / (q n).  Every addend is positive.
    """
    if not isinstance(q, int) or q < 1:
        raise DomainError("q must be an integer >= 1")
    return _gamma_ratio_result("euler-hurwitz", q, x, N, ctx)


def stirling_route(q: int, x, N: int, ctx: PrecisionContext) -> SeriesResult:
    """zeta(q+1, x) by the Bell series in *unshifted* harmonic numbers:

    (1/(q-1)!) sum (1/n) R_n(x)
        Y_{q-1}(H_{n-1}, -1! H_{n-1}^(2), ..., (-1)^q (q-2)! H_{n-1}^(q-1));
    the Bell arguments carry no x dependence at all.

    With the alternating signs, Y_m / m! is the elementary symmetric
    polynomial e_m(1, 1/2, ..., 1/(n-1)) = |s(n, m+1)| / (n-1)!.  The
    coefficients a[m] = e_m are carried across n: after term n,
    a[m] += a[m-1] / n in descending m, and term n is R_n a[q-1] / n.  Every
    addend is non-negative, so the signed closed forms' cancellation is gone.
    """
    if not isinstance(q, int) or q < 1:
        raise DomainError("q must be an integer >= 1")
    return _gamma_ratio_result("stirling-route", q, x, N, ctx)


def _is_integer(s) -> bool:
    return isinstance(s, int) or (isinstance(s, float) and s.is_integer())


def hasse_hurwitz(s, x, N: int, ctx: PrecisionContext) -> SeriesResult:
    """The globally convergent double sum for zeta(s, x), s != 1:

    (1/(s-1)) sum_{n=0}^{N-1} (1/(n+1)) sum_k C(n,k) (-1)^k (k+x)^(1-s).

    Integer s >= 2: row n of the double sum is term n+1 of the euler_hurwitz
    series with q = s - 1 (the inner sum's closed form is the gamma ratio
    times the Bell polynomial of shifted harmonic numbers), so that series
    is returned.  Integer s <= 0: the inner sums are exact polynomial sums
    that vanish for n > 1 - s; their exact sum is rounded once.  Non-integer
    s: the two sums are swapped, sum_{k<N} (-1)^k phi_k V_k with
    phi_k = (k+x)^(1-s) and V_k from :func:`_hasse_weights`, at cancellation
    guard digits (term budget capped); below s = 1 convergence is empirical
    and the tail estimate is the last-row magnitude.
    """
    _require_terms(N)
    x = _require_positive_x(x)
    s_is_int = _is_integer(s)
    if float(s) == 1.0:
        raise DomainError("s = 1 is the pole of zeta(s, x)")
    if s_is_int and s >= 2:
        return euler_hurwitz(int(s) - 1, x, N, ctx)

    if s_is_int:
        p = 1 - int(s)  # inner is a degree-p polynomial sum; zero for n > p
        rows = [
            sum((-1) ** k * math.comb(n, k) * (k + x) ** p for k in range(n + 1)) / (-p * (n + 1))
            for n in range(min(N, p + 1))
        ]
        tail = 0.0 if N > p else abs(float(rows[-1]))
        return _finish(ctx, sum(rows), N, tail)
    sf = float(s)
    total, last = _swapped_sum(sf - 1, x, N, ctx, _hasse_weights, Fraction(s) - 1)
    tail = abs(float(last))  # the last row
    if sf > 1:
        tail = _tail_from_last(tail, N, float(x), max(math.ceil(sf) - 2, 0), 1.0)
    return _finish(ctx, total, N, tail)


def _eta_double_sum(s, x: Fraction, N: int, ctx: PrecisionContext) -> SeriesResult:
    """sum_n 2^-(n+1) sum_k C(n,k)(-1)^k (k+x)^-s for s > 0, geometric tail.

    Integer s: inner row n - 1 is R_n(x) h_{s-1}(b_0, ..., b_{n-1}),
    b_i = 1/(i+x) (the Coppo closed form), carried across n as in
    :func:`euler_hurwitz`: a new b gives a[m] += b a[m-1] in ascending m,
    and term n is 2^-n R_n a[s-1].

    Non-integer s: the two sums are swapped (the Euler transform of Cohen,
    Rodriguez Villegas and Zagier), sum_{k<N} (-1)^k phi_k W_k with
    W_k = P(Bin(N, 1/2) >= k+1) in (0, 1] (:func:`_eta_weights`).  The tail
    keeps its definition from the last term, 2^-N times inner row N - 1.
    """
    _require_terms(N)
    if not _is_integer(s):
        total, last = _swapped_sum(s, x, N, ctx, _eta_weights)
        return _finish(ctx, total, N, 2.0 * abs(float(last)))
    return _gamma_ratio_result("eta", int(s), x, N, ctx)


def sondow_alt(s, N: int, ctx: PrecisionContext) -> SeriesResult:
    """Alternating zeta (Dirichlet eta) by the binomial double sum."""
    if float(s) <= 0:
        raise DomainError("s must be > 0")
    return _eta_double_sum(s, Fraction(1), N, ctx)


def alt_hurwitz(s, x, N: int, ctx: PrecisionContext) -> SeriesResult:
    """Alternating Hurwitz zeta sum_n (-1)^n (n+x)^-s by the double sum."""
    if float(s) <= 0:
        raise DomainError("s must be > 0")
    x = _require_positive_x(x)
    return _eta_double_sum(s, x, N, ctx)


def shen_series(p: int, N: int, ctx: PrecisionContext) -> SeriesResult:
    """zeta(p+1) = (-1)^p sum_k (-1)^k s(k,p) / (k k!).

    The signed terms are all positive, and term k = |s(k,p)| / (k k!) is
    term k of :func:`stirling_route` at q = p, x = 1: there R_k(1) = 1/k and
    e_{p-1}(1, ..., 1/(k-1)) = |s(k,p)| / (k-1)!.  So that series is returned.
    """
    if not isinstance(p, int) or p < 1:
        raise DomainError("p must be an integer >= 1")
    return stirling_route(p, 1, N, ctx)


def mixed_q(q: int, x, N: int, ctx: PrecisionContext) -> SeriesResult:
    """The mixed series for zeta(4, x), zeta(5, x), zeta(6, x) whose terms
    couple the x-free factor [n H_n - 1] with shifted harmonic numbers:

    zeta(4,x) = (1/3)  sum [n H_n - 1] H_n(x) R_n(x) / n^2
    zeta(5,x) = (2/4!) sum [n H_n - 1] (H_n(x)^2 + H_n^(2)(x)) R_n(x) / n^2
    zeta(6,x) = (1/60) sum [n H_n - 1] (H_n(x)^3 + 3 H_n(x) H_n^(2)(x)
                                         + 2 H_n^(3)(x)) R_n(x) / n^2

    (The zeta(6, x) bracket carries coefficient 2 on H_n^(3)(x): it is the
    derivative of the zeta(5, x) bracket under d/dx H^(m) = -m H^(m+1).)
    The brackets are 1, 2 and 6 times h_{q-3}(b_0, ..., b_{n-1}), so
    zeta(q, x) = 2 / ((q-1)(q-2)) M(x) with M(x) the "mixed" kind of
    :func:`_gamma_ratio_series` at m = q - 2, which tends to
    (m+1) m / 2 zeta(m+2, x).
    """
    if not isinstance(q, int) or q not in (4, 5, 6):
        raise DomainError("mixed-q supports q in {4, 5, 6}")
    return _gamma_ratio_result("mixed", q - 2, x, N, ctx, Fraction(2, (q - 1) * (q - 2)))


#: The nonlinear Euler sums at x = 1, as (kind, m, scale) of :func:`_gamma_ratio_result`
_EULER_SUMS = {
    EulerSumKind.E41: ("euler-hurwitz", 3, 6),
    EulerSumKind.E43: ("euler-hurwitz", 4, 24),
    EulerSumKind.E43_2: ("euler-hurwitz", 5, 120),
    EulerSumKind.E45_8: ("mixed", 3, 2),
    EulerSumKind.E45_10: ("mixed", 4, 6),
    **{EulerSumKind(f"ALT{s}"): ("eta", s, 1) for s in (2, 3, 4, 5)},
}


def euler_sum_partial(kind: EulerSumKind, N: int, ctx: PrecisionContext) -> SeriesResult:
    """Partial sums of the named nonlinear Euler sums (x = 1 family), each a
    gamma-ratio series scaled (:data:`_EULER_SUMS`).

    The E-kinds return the unnormalized combinations whose limits are
    3! zeta(4), 4! zeta(5), 5! zeta(6), 12 zeta(5) and (1/2) 5! zeta(6).
    E41, E43 and E43_2 sum (H_n^q-bracket) / n^2, q! times the
    :func:`euler_hurwitz` series (q = 3, 4, 5); E45_8 sums
    [n H_n - 1] (H_n^2 + H_n^(2)) / n^3, 12 times the mixed-q series for
    zeta(5, 1), and E45_10 is 60 times the one for zeta(6, 1).  The
    ALT-kinds are the :func:`sondow_alt` series, with limits eta(2)..eta(5).
    """
    if not isinstance(kind, EulerSumKind):
        raise DomainError("unknown Euler-sum kind")
    series, m, scale = _EULER_SUMS[kind]
    return _gamma_ratio_result(series, m, 1, N, ctx, scale)


def euler_sum_target(kind: EulerSumKind, ctx: PrecisionContext) -> Real:
    """Limit of the corresponding euler_sum_partial series: scale zeta(m+1),
    scale (m+1) m / 2 zeta(m+2) for "mixed", or eta(m)."""
    series, m, scale = _EULER_SUMS[kind]
    if series == "eta":
        return (1 - ctx.real(Fraction(2)) ** (1 - m)) * const_zeta(m, ctx)
    if series == "mixed":  # the mixed series tends to (m+1) m / 2 zeta(m+2)
        return scale * (m + 1) * m // 2 * const_zeta(m + 2, ctx)
    return scale * const_zeta(m + 1, ctx)


def catalan_series(kind: CatalanKind, N: int, ctx: PrecisionContext) -> SeriesResult:
    """Central-binomial series: two for Catalan's G, the duplication-formula
    series for zeta(2), and the zeta(3, 1/2) series.

    Term ratios are exact small integers, applied multiplicatively; one
    rounding per step.  Normalized values are returned (targets G, zeta(2),
    7 zeta(3)).  The zeta(3, 1/2) series, (1/2) sum [n H_n - 1]/n^2
    [2^n Gamma(n)]^2/Gamma(2n), is the mixed series at x = 1/2, m = 1
    (its bracketed factor is 2 R_n(1/2)), and returns that.

    FAST runs :func:`_ramanujan_fast` or :func:`_central_fast`, which add
    their own positive terms as the kernels of :func:`_gamma_ratio_series`
    do; HIGH sums the terms of :func:`_ramanujan_terms` or
    :func:`_central_terms` exactly.
    """
    if not isinstance(kind, CatalanKind):
        raise DomainError("unknown catalan-series kind")
    _require_terms(N)
    if kind is CatalanKind.ZETA3_HALF_45_6:
        return _gamma_ratio_result("mixed", 1, Fraction(1, 2), N, ctx)

    fast = ctx.mode is Mode.FAST
    with ctx.scope():
        one = ctx.zero() + 1
        if kind is CatalanKind.RAMANUJAN_38:
            quarter_pi, decay = const_pi(ctx) / 4, 1.0
            if fast:
                total, term = _ramanujan_fast(quarter_pi, N)
            else:
                total, term = compensated_sum(_ramanujan_terms(quarter_pi, one, N), ctx.zero())
        else:  # terms c / (4 (2n+1)) for G and c / (3 (n+1)) for zeta(2)
            a, b = (8, 4) if kind is CatalanKind.CENTRAL_38_1 else (3, 3)
            decay = 0.5
            if fast:
                total, term = _central_fast(a, b, N)
            else:
                total, term = compensated_sum(_central_terms(one * 2, a, b, N), ctx.zero())
        return _finish(ctx, total, N, _tail_from_last(float(term), N, decay, 0, 0.0))


# The catalan_series terms.  The HIGH generators count in Python ints, so
# their integer factors stay exact at any N.  The FAST kernels count in
# doubles, exact integers below 2^53 whose products round once, as the
# int-to-float conversion of the integer product did, and return (sum,
# last term).


def _ramanujan_terms(quarter_pi, b, N):
    """quarter_pi b_n / (2n+1), b_n = C(2n,n)^2 / 2^(4n) from b_0 = b."""
    odd, n1 = 1, 1  # 2n+1, n+1
    for _ in range(N):
        yield quarter_pi * b / odd
        b = b * (odd * odd) / (4 * n1 * n1)
        odd += 2
        n1 += 1


def _ramanujan_fast(quarter_pi, N):
    b = odd = n1 = 1.0
    s = c = t = 0.0
    for _ in range(N):
        t = quarter_pi * b / odd
        u = s + t
        if s >= t:
            c += (s - u) + t
        else:
            c += (t - u) + s
        s = u
        b = b * (odd * odd) / (4 * n1 * n1)
        odd += 2.0
        n1 += 1.0
    return s + c, t


def _central_terms(c, a, b, N):
    """c_n / (a n + b), c_n = 2^(2n+1) (n!)^2 / (2n+1)! from c_0 = c."""
    den, even, odd = b, 2, 3
    for _ in range(N):  # even = 2 (n+1), odd = 2n + 3
        yield c / den
        c = c * even / odd
        den += a
        even += 2
        odd += 2


def _central_fast(a, b, N):
    c, den, step, even, odd = 2.0, float(b), float(a), 2.0, 3.0
    s = r = t = 0.0
    for _ in range(N):
        t = c / den
        u = s + t
        if s >= t:
            r += (s - u) + t
        else:
            r += (t - u) + s
        s = u
        c = c * even / odd
        den += step
        even += 2.0
        odd += 2.0
    return s + r, t


def polylog(s, y, ctx: PrecisionContext) -> Real:
    """Li_s(y) for |y| < 1 by direct summation with a geometric tail cut."""
    yf = float(y)
    if not abs(yf) < 1.0:
        raise DomainError("polylog requires |y| < 1")
    if yf == 0.0:
        return ctx.zero()
    digits = 17 if ctx.mode is Mode.FAST else ctx.digits
    N = int((digits + 4) / -math.log10(abs(yf))) + 4

    with ctx.scope():
        yv = ctx.real(Fraction(y) if isinstance(y, (int, Fraction)) else y)
        e = int(s) if float(s).is_integer() else ctx.real(s)

        def terms():
            p = yv * 0 + 1
            for k in range(1, N + 1):
                p = p * yv
                yield p / k**e

        return +compensated_sum(terms(), yv * 0)[0]


def _polylog_identity_args(which: PolylogIdentity, s, y) -> Fraction:
    if not isinstance(s, int) or s < 1:
        raise DomainError("s must be an integer >= 1")
    y = Fraction(y)
    if not 0 < y <= Fraction(1, 2):
        raise DomainError("identity checks require rational y in (0, 1/2]")
    if which not in (PolylogIdentity.E14_3, PolylogIdentity.E14_4):
        raise DomainError("unknown polylog identity")
    return y


def polylog_identity_lhs(
    which: PolylogIdentity, s: int, y, N: int, ctx: PrecisionContext
) -> SeriesResult:
    """Partial LHS of the two polylog double-sum identities, at rational y
    in (0, 1/2]; :func:`polylog_identity_target` gives the limits.

    E14_3: sum (1/n^2) sum_k C(n,k)(-1)^k y^k/k^s
           -> -(s+1) Li_{s+2}(y) + log(y) Li_{s+1}(y)
    E14_4: sum (1/(n 2^n)) sum_k C(n,k) y^k/k^s -> Li_{s+1}(y)

    Row n's inner sum f_s(n) = sum_{k=1}^n C(n,k) (+-y)^k / k^s is carried
    across n: C(n,k) - C(n-1,k) = (k/n) C(n,k) gives
    f_j(n) = f_j(n-1) + f_{j-1}(n)/n for j = 1..s in ascending j, with
    f_0(n) = (1 +- y)^n - 1.  For E14_3, f_0(n) lies in (-1, 0), so every
    f_j is a sum of negative terms and nothing cancels.  E14_4 carries
    g_j = f_j / 2^n, g_j(n) = g_j(n-1)/2 + g_{j-1}(n)/n, with
    g_0(n) = ((1+y)/2)^n (1 - (1+y)^-n), so (3/2)^n never overflows.
    """
    y = _polylog_identity_args(which, s, y)
    _require_terms(N)
    alternating = which is PolylogIdentity.E14_3
    lib = mpmath if ctx.mode is Mode.HIGH else math  # for expm1 and log1p
    with ctx.scope():
        yv = ctx.real(y)
        # t = (1-y)^n for E14_3, (1+y)^-n for E14_4; u = t - 1 = expm1(n lg)
        lg = lib.log1p(-yv) if alternating else -lib.log1p(yv)
        step = ctx.real(1 - y if alternating else 1 / (1 + y))
        half = (1 + yv) / 2

        def rows():
            t = power = yv * 0 + 1  # power = ((1+y)/2)^n
            f = [yv * 0] * (s + 1)
            for n in range(1, N + 1):
                t, power = t * step, power * half
                u = t - 1 if t <= 0.5 else lib.expm1(n * lg)  # t - 1 cancels while t > 1/2
                f[0] = u if alternating else -power * u
                for j in range(1, s + 1):
                    f[j] = (f[j] if alternating else f[j] / 2) + f[j - 1] / n
                yield f[s] / (n * n if alternating else n)

        total, row = compensated_sum(rows(), yv * 0)
        last = abs(float(row))
        tail = _tail_from_last(last, N, 1.0, 1, 1.0) if alternating else 2.0 * last
        return _finish(ctx, total, N, tail)


def polylog_identity_target(which: PolylogIdentity, s: int, y, ctx: PrecisionContext) -> Real:
    """Closed-form limit of the corresponding polylog_identity_lhs series."""
    y = _polylog_identity_args(which, s, y)
    if which is PolylogIdentity.E14_4:
        return polylog(s + 1, y, ctx)
    hi = PrecisionContext(ctx.digits, Mode.HIGH)
    with hi.scope():
        rhs = +(-(s + 1) * polylog(s + 2, y, hi) + hi.ln(y) * polylog(s + 1, y, hi))
    return rhs if ctx.mode is Mode.HIGH else float(rhs)


def digamma_half_sum(power: int, N: int, ctx: PrecisionContext) -> SeriesResult:
    """sum_{n=0}^{N-1} psi(n + 1/2) / (2n+1)^power for power in {2, 4}.

    psi(n + 1/2) = -gamma - 2 log 2 + H_n(1/2) with the shifted harmonic
    number H_n(1/2) = sum_{k<n} 2/(2k+1) accumulated in a running sum of
    the context's real type, which every term reads: in FAST a Neumaier
    pair inside :func:`_digamma_fast`, in HIGH exact adds read rounded once
    per term.  The denominators are integer powers odd**power, which a
    float power could round twice.
    """
    if power not in (2, 4):
        raise DomainError("power must be 2 or 4")
    _require_terms(N)

    with ctx.scope():
        psi0 = -const_gamma(ctx) - 2 * const_log2(ctx)
        if ctx.mode is Mode.FAST:
            total, term, h = _digamma_fast(psi0, power, N)
        else:
            h, two = ctx.zero(), ctx.real(2)

            def terms():
                nonlocal h
                for odd in range(1, 2 * N, 2):  # 2n + 1
                    yield (psi0 + +h) / odd**power
                    h = mpmath.fadd(h, two / odd, exact=True)

            total, term = compensated_sum(terms(), ctx.zero())
            h = +h
        c = float(psi0 + h) - math.log(N) if N > 1 else 1.0
        tail = _tail_from_last(float(term), N, float(power - 1), 1, c)
        return _finish(ctx, total, N, tail)


def _digamma_fast(psi0, power, N):
    """digamma_half_sum's FAST loop: (sum, last term, H_N(1/2)).  The terms
    change sign, so the outer Neumaier step compares abs() as
    ``numerics.compensated_sum`` does; the addends 2/(2n+1) of H_n(1/2) are
    positive, so its pair (hs, hc) compares without abs()."""
    s = c = t = hs = hc = 0.0
    for odd in range(1, 2 * N, 2):  # 2n + 1
        t = (psi0 + (hs + hc)) / odd**power
        u = s + t
        if abs(s) >= abs(t):
            c += (s - u) + t
        else:
            c += (t - u) + s
        s = u
        b = 2.0 / odd
        u = hs + b
        if hs >= b:
            hc += (hs - u) + b
        else:
            hc += (b - u) + hs
        hs = u
    return s + c, t, hs + hc


def digamma_half_target(power: int, ctx: PrecisionContext) -> Real:
    """Closed-form limits of digamma_half_sum:

    power 2: -(gamma pi^2 + 7 zeta(3)) / 8
    power 4: -(3 pi^2 zeta(3) + pi^4 gamma + 93 zeta(5)) / 96
    """
    g = const_gamma(ctx)
    p = const_pi(ctx)
    if power == 2:
        return -(g * p * p + 7 * const_zeta(3, ctx)) / 8
    if power == 4:
        return -(3 * p * p * const_zeta(3, ctx) + p**4 * g + 93 * const_zeta(5, ctx)) / 96
    raise DomainError("power must be 2 or 4")


# ----------------------------------------------------------------------
# Dispatch and convergence benchmarking.
# ----------------------------------------------------------------------


def _need_int(v, name: str) -> int:
    if isinstance(v, float) and v.is_integer():
        v = int(v)
    if not isinstance(v, int):
        raise DomainError(f"{name} must be an integer")
    return v


def _eta_reference(s, x: Fraction, ctx: PrecisionContext) -> Optional[Real]:
    """eta(s, x) = 2^-s [zeta(s, x/2) - zeta(s, (1+x)/2)] for s > 1, else None.

    The difference is taken at ctx.digits in HIGH mode and rounded once, so
    a FAST reference is not the difference of two rounded doubles.
    """
    if float(s) <= 1:
        return None
    hi = PrecisionContext(ctx.digits, Mode.HIGH)
    a = hurwitz_zeta_em(s, x / 2, hi)
    b = hurwitz_zeta_em(s, (1 + x) / 2, hi)
    with hi.scope():
        eta = +(2 ** (-hi.real(s)) * (a - b))
    return eta if ctx.mode is Mode.HIGH else float(eta)


@dataclass(frozen=True)
class FormulaSpec:
    """Everything the package knows about one :class:`Formula`.

    ``param`` is the kind of the formula's parameter: ``"s"`` (a real
    exponent), ``"q"`` (an integer order) or None.  ``takes_x`` says whether
    the formula has a rational shift x (x = 1 is passed to those without).
    ``evaluate(p, x, N, ctx)`` sums the truncated series;
    ``reference(p, x, ctx)`` returns an independent value of its limit, or
    None where there is none.
    """

    param: Optional[str]
    takes_x: bool
    evaluate: Callable[[object, Fraction, int, PrecisionContext], SeriesResult]
    reference: Callable[[object, Fraction, PrecisionContext], Optional[Real]]


# Entries call the evaluators through their module-global names, so that a
# wrapper installed over one of those names (a profiler, a tracer) sees the
# call.
_HASSE = FormulaSpec(
    "s", True,
    lambda s, x, N, ctx: hasse_hurwitz(s, x, N, ctx),
    lambda s, x, ctx: hurwitz_zeta_em(s, x, ctx) if float(s) > 1 else None,
)


def _central_binomial(kind: CatalanKind, target: Callable[[PrecisionContext], Real]) -> FormulaSpec:
    return FormulaSpec(
        None, False,
        lambda p, x, N, ctx: catalan_series(kind, N, ctx),
        lambda p, x, ctx: target(ctx),
    )


def _euler_sum(kind: EulerSumKind) -> FormulaSpec:
    return FormulaSpec(
        None, False,
        lambda p, x, N, ctx: euler_sum_partial(kind, N, ctx),
        lambda p, x, ctx: euler_sum_target(kind, ctx),
    )


def _polylog(which: PolylogIdentity) -> FormulaSpec:
    return FormulaSpec(
        "s", True,
        lambda s, x, N, ctx: polylog_identity_lhs(which, _need_int(s, "s"), x, N, ctx),
        lambda s, x, ctx: polylog_identity_target(which, _need_int(s, "s"), x, ctx),
    )


FORMULAS: Dict[Formula, FormulaSpec] = {
    Formula.HASSE: _HASSE,
    Formula.HASSE_HURWITZ: _HASSE,
    Formula.SONDOW_ALT: FormulaSpec(
        "s", False,
        lambda s, x, N, ctx: sondow_alt(s, N, ctx),
        lambda s, x, ctx: (
            const_log2(ctx) if float(s) == 1.0 else _eta_reference(s, Fraction(1), ctx)
        ),
    ),
    Formula.ALT_HURWITZ: FormulaSpec(
        "s", True,
        lambda s, x, N, ctx: alt_hurwitz(s, x, N, ctx),
        lambda s, x, ctx: _eta_reference(s, x, ctx),
    ),
    Formula.EULER_HURWITZ: FormulaSpec(
        "q", True,
        lambda q, x, N, ctx: euler_hurwitz(q, x, N, ctx),
        lambda q, x, ctx: hurwitz_zeta_em(q + 1, x, ctx),
    ),
    Formula.STIRLING_ROUTE: FormulaSpec(
        "q", True,
        lambda q, x, N, ctx: stirling_route(q, x, N, ctx),
        lambda q, x, ctx: hurwitz_zeta_em(q + 1, x, ctx),
    ),
    Formula.SHEN: FormulaSpec(
        "q", False,
        lambda q, x, N, ctx: shen_series(q, N, ctx),
        lambda q, x, ctx: const_zeta(q + 1, ctx),
    ),
    Formula.MIXED_Q: FormulaSpec(
        "q", True,
        lambda q, x, N, ctx: mixed_q(q, x, N, ctx),
        lambda q, x, ctx: hurwitz_zeta_em(q, x, ctx),
    ),
    Formula.CATALAN_RAMANUJAN: _central_binomial(
        CatalanKind.RAMANUJAN_38, lambda ctx: const_catalan(ctx)
    ),
    Formula.CATALAN_CENTRAL: _central_binomial(
        CatalanKind.CENTRAL_38_1, lambda ctx: const_catalan(ctx)
    ),
    Formula.ZETA2_DUP: _central_binomial(CatalanKind.ZETA2_37, lambda ctx: const_zeta(2, ctx)),
    Formula.ZETA3_HALF: _central_binomial(
        CatalanKind.ZETA3_HALF_45_6, lambda ctx: 7 * const_zeta(3, ctx)
    ),
    Formula.POLYLOG_14_3: _polylog(PolylogIdentity.E14_3),
    Formula.POLYLOG_14_4: _polylog(PolylogIdentity.E14_4),
    Formula.DIGAMMA_HALF_SUM: FormulaSpec(
        "q", False,
        lambda q, x, N, ctx: digamma_half_sum(q, N, ctx),
        lambda q, x, ctx: digamma_half_target(q, ctx),
    ),
    Formula.EULER_SUM_45_8: _euler_sum(EulerSumKind.E45_8),
    Formula.EULER_SUM_45_10: _euler_sum(EulerSumKind.E45_10),
}


def _resolve(req: EvalRequest) -> Tuple[FormulaSpec, object, Fraction]:
    """The request's spec, checked parameter and shift (1 when absent).

    A q parameter must be an integer; any parameter must satisfy
    |s| or |q| <= MAX_ORDER.  A nonzero shift must lie in the range of
    normal doubles, because every tail estimate takes x as a double.
    """
    spec = FORMULAS.get(req.formula)
    if spec is None:
        raise DomainError(f"unknown formula {req.formula}")
    p = req.s_or_q
    if spec.param is not None:
        if p is None:
            raise DomainError(f"{req.formula.value} requires a parameter {spec.param}")
        if spec.param == "q":
            p = _need_int(p, "q")
        if not abs(p) <= MAX_ORDER:
            raise DomainError(
                f"{spec.param} = {p} is beyond the order limit |{spec.param}| <= {MAX_ORDER}"
            )
    x = Fraction(req.x) if req.x is not None else Fraction(1)
    lo, hi = sys.float_info.min, sys.float_info.max
    if spec.takes_x and x and not lo <= abs(x) <= hi:
        raise DomainError(f"x = {x} is outside the double range {lo!r} <= |x| <= {hi!r}")
    return spec, p, x


def evaluate(req: EvalRequest) -> SeriesResult:
    """Evaluate one request; the single entry point used by the CLI.

    A :class:`NumericError` (a double that overflowed) is raised again with
    the formula, its parameter and x in front of the message.
    """
    spec, p, x = _resolve(req)
    try:
        return spec.evaluate(p, x, req.N, req.ctx)
    except NumericError as exc:
        at = [f"{spec.param} = {p}"] if spec.param is not None else []
        at += [f"x = {x}"] if spec.takes_x else []
        where = f" at {', '.join(at)}" if at else ""
        raise NumericError(f"{req.formula.value}{where}: {exc}") from None


def reference_value(req: EvalRequest) -> Optional[Real]:
    """Independent reference for a request, or None when unavailable.

    Computed under the request's precision scope, so that arithmetic on the
    constants (7 zeta(3), the digamma targets) keeps HIGH-mode digits.
    """
    spec, p, x = _resolve(req)
    with req.ctx.scope():
        return spec.reference(p, x, req.ctx)


def convergence_table(req: EvalRequest, Ns: Sequence[int]) -> List[ConvergenceRow]:
    """Evaluate the request at each term budget against the reference.

    Errors are recomputed here, never trusted from the evaluator; rows
    carry wall-clock seconds.  Ns must be strictly increasing.
    """
    if any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise DomainError("term budgets must be strictly increasing")
    ref = reference_value(req)
    if ref is None:
        raise DomainError("no reference value available for this formula")
    rows = []
    for N in Ns:
        t0 = time.perf_counter()
        res = evaluate(
            EvalRequest(formula=req.formula, s_or_q=req.s_or_q, x=req.x, N=N, ctx=req.ctx)
        )
        dt = time.perf_counter() - t0
        with req.ctx.scope():
            err = abs(res.value - ref)
            rel = err / abs(ref) if ref != 0 else +err
        rows.append(
            ConvergenceRow(
                N=N,
                partial=res.value,
                reference=ref,
                abs_error=err,
                rel_error=rel,
                elapsed_seconds=dt,
            )
        )
    return rows


def fit_convergence_exponent(rows: Sequence[ConvergenceRow]) -> Optional[float]:
    """Least-squares slope of log(abs_error) against log(N)."""
    pts = [(math.log(r.N), math.log(float(r.abs_error))) for r in rows if float(r.abs_error) > 0]
    if len(pts) < 2:
        return None
    n = len(pts)
    sx = sum(p[0] for p in pts)
    sy = sum(p[1] for p in pts)
    sxx = sum(p[0] * p[0] for p in pts)
    sxy = sum(p[0] * p[1] for p in pts)
    denom = n * sxx - sx * sx
    if denom == 0:
        return None
    return (n * sxy - sx * sy) / denom
