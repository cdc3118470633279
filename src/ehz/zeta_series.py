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
series use twice the final term).  Summation is ascending-index with
compensated accumulation, so results are bit-reproducible per context.

Gamma-ratio factors are never computed from a Gamma evaluator: the exact
recurrence R_{n+1} = R_n n/(n+x), seeded from R_1 = 1/x, is used
throughout.  Inner alternating binomial sums are never summed term by term
in doubles, which would lose everything to terms as large as C(n, n/2):
integer s uses their closed form, non-integer s a difference table at
cancellation-guard precision.  The other per-term factors are carried
across terms too, at O(q) work per term: the Bell factor as
symmetric-polynomial coefficients, the Stirling column as |s(k, j)|/k!,
and the non-integer inner rows as a difference table.  The literal routes
(``*_exact_terms``, ``combinatorics.bell_eval``) stay as the tests'
references.

The eta double sums at integer s carry the same h_m recurrence as
euler_hurwitz in the context's real type: inner row n - 1 is
R_n(x) h_{s-1}(b_0, ..., b_{n-1}), weighted 2^-n; the exact Coppo rows
(``harmonic.coppo_rhs_rows``) are the tests' reference for it.  Most
nonlinear Euler sums at x = 1 are other routes: E41, E43 and E43_2 are q!
times euler_hurwitz(q, 1) for q = 3, 4, 5, and ALT2..ALT5 are sondow_alt
at s = 2..5, so :func:`euler_sum_partial` returns those.  Only E45_8 and
E45_10 are summed in their own loop; they are the formulas
``euler-sum-45-8`` and ``euler-sum-45-10``.

Each :class:`Formula` of the CLI has one :class:`FormulaSpec` in
:data:`FORMULAS` (parameter kind, shift, evaluator, reference);
:func:`evaluate` and :func:`reference_value` are lookups into it.
"""

from __future__ import annotations

import enum
import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from mpmath import mpf

from . import combinatorics, harmonic
from .numerics import (
    DomainError,
    Mode,
    NeumaierSum,
    NumericError,
    PrecisionContext,
    Real,
    SeriesResult,
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
    "MixedKind",
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
    "euler_hurwitz_exact_terms",
    "stirling_route_exact_terms",
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


class MixedKind(enum.Enum):
    Z4_457 = "Z4_457"
    Z5_457B = "Z5_457b"
    Z6_459 = "Z6_459"


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


def _spec_euler_tail(N: int, d: int) -> float:
    """integral_N^inf (log t + 1)^d / t^2 dt -- the fixed surrogate for the
    nonlinear Euler sums at x = 1."""
    return _log_tail_integral(d, 1.0, N, 1.0)


# ----------------------------------------------------------------------
# Inner sums of the double sums.
# ----------------------------------------------------------------------


def _poly_inner_exact(p: int, x: Fraction, n: int) -> Fraction:
    """sum_k C(n,k)(-1)^k (k+x)^p for integer p >= 0 (vanishes for n > p)."""
    if n > p:
        return Fraction(0)
    total = Fraction(0)
    for k in range(n + 1):
        total += (-1) ** k * math.comb(n, k) * (k + x) ** p
    return total


def _inner_rows_float(s_power, x: Fraction, N: int, ctx: PrecisionContext) -> list:
    """Rows of sum_k C(n,k)(-1)^k (k+x)^(-s_power) for n < N, non-integer s.

    Row n is ((1 - E)^n phi)_0 with phi_k = (k+x)^(-s_power) and E the
    shift, so it is d[0] after n passes of the difference table
    d[k] <- d[k] - d[k+1] (ascending k) over phi.  Computed at
    ctx.digits + 0.302 N guard digits: a rounding error made in a pass
    grows by up to 2 per later pass, and the guard absorbs that 2^n.
    """
    if N > NONINTEGER_S_TERM_CAP:
        raise DomainError(
            f"non-integer exponents cap the term budget at {NONINTEGER_S_TERM_CAP}"
        )
    guard = ctx.digits + int(0.302 * N) + 10
    rows = []
    with working_precision(guard):
        xv = mpf(x.numerator) / x.denominator
        sp = mpf(s_power)
        d = [(k + xv) ** (-sp) for k in range(N)]
        for n in range(N):
            rows.append(d[0])
            for k in range(N - 1 - n):
                d[k] = d[k] - d[k + 1]
    return rows


# ----------------------------------------------------------------------
# Series evaluators.
# ----------------------------------------------------------------------


def _finish(ctx: PrecisionContext, acc: NeumaierSum, N: int, tail: float) -> SeriesResult:
    if not math.isfinite(tail):
        raise NumericError("the tail estimate overflowed a double")
    with ctx.scope():
        value = ctx.real(+acc.total)
    return SeriesResult(value=value, terms_used=N, tail_estimate=abs(tail), mode=ctx.mode)


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
    x = _require_positive_x(x)

    with ctx.scope():
        xv = ctx.real(x)
        R = _ratio_seed(x, ctx)
        a = [xv * 0 + 1] + [xv * 0] * (q - 1)
        acc = NeumaierSum(xv * 0)
        term = xv * 0
        for n in range(1, N + 1):
            if n > 1:
                R = R * (n - 1) / (n - 1 + xv)
            b = 1 / (n - 1 + xv)
            for m in range(1, q):
                a[m] = a[m] + b * a[m - 1]
            term = R * a[q - 1] / (q * n)
            acc.add(term)
        c = float(a[1]) - math.log(N) if q > 1 else 0.0  # a[1] = H_N(x)
        tail = _tail_from_last(float(term), N, float(x), q - 1, c)
        return _finish(ctx, acc, N, tail)


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
    x = _require_positive_x(x)

    with ctx.scope():
        xv = ctx.real(x)
        R = _ratio_seed(x, ctx)
        a = [xv * 0 + 1] + [xv * 0] * (q - 1)
        acc = NeumaierSum(xv * 0)
        term = xv * 0
        for n in range(1, N + 1):
            if n > 1:
                R = R * (n - 1) / (n - 1 + xv)
            term = R * a[q - 1] / n  # a holds e_m of 1, ..., 1/(n-1): update after
            acc.add(term)
            for m in range(q - 1, 0, -1):
                a[m] = a[m] + a[m - 1] / n
        c = float(a[1]) - math.log(N) if q > 1 else 0.0  # a[1] = H_N
        t_for_tail = float(term)
        if t_for_tail == 0.0:  # the q > 1 series starts with vanishing terms
            t_for_tail = float(R) / max(N, 1)
        tail = _tail_from_last(t_for_tail, N, float(x), q - 1, c)
        return _finish(ctx, acc, N, tail)


def euler_hurwitz_exact_terms(q: int, x, N: int) -> List[Fraction]:
    """First N terms of the euler_hurwitz series as exact rationals.

    Term m equals (1/q!) (1/m) R_m(x) Y_{q-1}(...H_m^(j)(x)...); also the
    reindexed rows of the Hasse double sum with exact inner sums.
    """
    rows = itertools.islice(harmonic.coppo_rhs_rows(q, Fraction(x)), N)
    return [Fraction(row[-1], (n + 1) * q) for n, row in enumerate(rows)]


def stirling_route_exact_terms(q: int, x, N: int) -> List[Fraction]:
    """First N terms of the stirling_route series as exact rationals."""
    x = Fraction(x)
    fact = math.factorial(q - 1)
    ratio = Fraction(1)
    out = []
    for n in range(1, N + 1):
        ratio = ratio / x if n == 1 else ratio * (n - 1) / (x + n - 1)
        args = [
            (-1) ** (j - 1) * math.factorial(j - 1) * harmonic.H(n - 1, j)
            for j in range(1, q)
        ]
        y = combinatorics.bell_eval(args) if args else 1
        out.append(Fraction(ratio * y, n * fact))
    return out


def _is_integer(s) -> bool:
    return isinstance(s, int) or (isinstance(s, float) and s.is_integer())


def hasse_hurwitz(s, x, N: int, ctx: PrecisionContext) -> SeriesResult:
    """The globally convergent double sum for zeta(s, x), s != 1:

    (1/(s-1)) sum_{n=0}^{N-1} (1/(n+1)) sum_k C(n,k) (-1)^k (k+x)^(1-s).

    Integer s >= 2: row n of the double sum is term n+1 of the euler_hurwitz
    series with q = s - 1 (the inner sum's closed form is the gamma ratio
    times the Bell polynomial of shifted harmonic numbers), so that series
    is returned.  Integer s <= 0: the inner sums are exact polynomial sums
    that vanish for n > 1 - s.  Non-integer s: inner sums are computed with
    cancellation guard digits (term budget capped); below s = 1 convergence
    is empirical and the tail estimate is the last-row magnitude.
    """
    x = _require_positive_x(x)
    s_is_int = _is_integer(s)
    if float(s) == 1.0:
        raise DomainError("s = 1 is the pole of zeta(s, x)")
    if s_is_int and s >= 2:
        return euler_hurwitz(int(s) - 1, x, N, ctx)

    with ctx.scope():
        acc = NeumaierSum(ctx.zero())
        last_row = 0.0
        if s_is_int:
            si = int(s)
            p = 1 - si  # inner is a degree-p polynomial sum; zero for n > p
            inv = Fraction(1, si - 1)
            for n in range(min(N, p + 1)):
                row = ctx.real(inv * _poly_inner_exact(p, x, n) / (n + 1))
                acc.add(row)
                last_row = float(row)
            tail = 0.0 if N > p else abs(last_row)
            return _finish(ctx, acc, N, tail)
        sf = float(s)
        rows = _inner_rows_float(sf - 1, x, N, ctx)
        inv = 1 / (mpf(s) - 1) if ctx.mode is Mode.HIGH else 1.0 / (sf - 1.0)
        for n, r in enumerate(rows):
            row = inv * (r if ctx.mode is Mode.HIGH else float(r)) / (n + 1)
            acc.add(row)
            last_row = abs(float(row))
        if sf > 1:
            d = max(int(math.ceil(sf)) - 2, 0)
            tail = _tail_from_last(last_row, N, float(x), d, 1.0)
        else:
            tail = last_row
        return _finish(ctx, acc, N, tail)


def _eta_double_sum(s, x: Fraction, N: int, ctx: PrecisionContext) -> SeriesResult:
    """sum_n 2^-(n+1) sum_k C(n,k)(-1)^k (k+x)^-s for s > 0, geometric tail.

    Integer s: inner row n - 1 is R_n(x) h_{s-1}(b_0, ..., b_{n-1}),
    b_i = 1/(i+x) (the Coppo closed form), carried across n as in
    :func:`euler_hurwitz`: a new b gives a[m] += b a[m-1] in ascending m,
    and term n is 2^-n R_n a[s-1].
    """
    with ctx.scope():
        acc = NeumaierSum(ctx.zero())
        last = 0.0
        if _is_integer(s):
            xv = ctx.real(x)
            R = _ratio_seed(x, ctx)
            a = [xv * 0 + 1] + [xv * 0] * (int(s) - 1)
            w = xv * 0 + 1
            for n in range(1, N + 1):
                if n > 1:
                    R = R * (n - 1) / (n - 1 + xv)
                b = 1 / (n - 1 + xv)
                for m in range(1, len(a)):
                    a[m] = a[m] + b * a[m - 1]
                w = w / 2
                term = w * R * a[-1]
                acc.add(term)
                last = float(term)
            if not math.isfinite(last):  # a[] only grows, so an overflow persists
                raise NumericError("an inner row overflowed a double")
        else:
            rows = _inner_rows_float(s, x, N, ctx)
            w = mpf(1) / 2 if ctx.mode is Mode.HIGH else 0.5
            for r in rows:
                term = w * (r if ctx.mode is Mode.HIGH else float(r))
                acc.add(term)
                last = abs(float(term))
                w /= 2
        return _finish(ctx, acc, N, 2.0 * abs(last))


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

    The signed terms are all positive.  The column v_j = |s(k, j)| / k! is
    carried across k by u(k+1, j) = u(k, j-1) + k u(k, j) divided by (k+1)!:
    v_j <- (v_{j-1} + k v_j) / (k+1) in descending j.  Every v_j lies in
    [0, 1], so doubles neither overflow nor cancel; term k is v_p / k.
    """
    if not isinstance(p, int) or p < 1:
        raise DomainError("p must be an integer >= 1")

    with ctx.scope():
        acc = NeumaierSum(ctx.zero())
        v = [ctx.zero()] * (p + 1)
        v[1] = ctx.real(1)  # |s(1, 1)| / 1!
        term = ctx.zero()
        for k in range(1, N + 1):
            term = v[p] / k
            acc.add(term)
            for j in range(p, 0, -1):
                v[j] = (v[j - 1] + k * v[j]) / (k + 1)
        tail = _tail_from_last(float(term), N, 1.0, p - 1, 1.0)
        return _finish(ctx, acc, N, tail)


def mixed_q(kind: MixedKind, x, N: int, ctx: PrecisionContext) -> SeriesResult:
    """The mixed series for zeta(4, x), zeta(5, x), zeta(6, x) whose terms
    couple the x-free factor [n H_n - 1] with shifted harmonic numbers:

    zeta(4,x) = (1/3)  sum [n H_n - 1] H_n(x) R_n(x) / n^2
    zeta(5,x) = (2/4!) sum [n H_n - 1] (H_n(x)^2 + H_n^(2)(x)) R_n(x) / n^2
    zeta(6,x) = (1/60) sum [n H_n - 1] (H_n(x)^3 + 3 H_n(x) H_n^(2)(x)
                                         + 2 H_n^(3)(x)) R_n(x) / n^2

    (The zeta(6, x) bracket carries coefficient 2 on H_n^(3)(x): it is the
    derivative of the zeta(5, x) bracket under d/dx H^(m) = -m H^(m+1).)
    """
    if not isinstance(kind, MixedKind):
        raise DomainError("unknown mixed-series kind")
    x = _require_positive_x(x)

    with ctx.scope():
        xv = ctx.real(x)
        one = xv * 0 + 1
        R = _ratio_seed(x, ctx)
        H = xv * 0
        h1 = xv * 0
        h2 = xv * 0
        h3 = xv * 0
        acc = NeumaierSum(xv * 0)
        if kind is MixedKind.Z4_457:
            pref, d = one / 3, 2
        elif kind is MixedKind.Z5_457B:
            pref, d = one * 2 / 24, 3
        else:
            pref, d = one / 60, 4
        term = xv * 0
        for n in range(1, N + 1):
            if n > 1:
                R = R * (n - 1) / (n - 1 + xv)
            base = 1 / (n - 1 + xv)
            h1 = h1 + base
            h2 = h2 + base * base
            h3 = h3 + base * base * base
            H = H + one / n
            if kind is MixedKind.Z4_457:
                bracket = h1
            elif kind is MixedKind.Z5_457B:
                bracket = h1 * h1 + h2
            else:
                bracket = h1 * (h1 * h1 + 3 * h2) + 2 * h3
            term = pref * (n * H - 1) * bracket * R / (n * n)
            acc.add(term)
        c = max(float(H) - math.log(N), float(h1) - math.log(N))
        tail = _tail_from_last(float(term), N, float(x), d, c)
        return _finish(ctx, acc, N, tail)


#: E-kinds that are q! times the euler_hurwitz series at x = 1, by q
_EULER_HURWITZ_Q = {EulerSumKind.E41: 3, EulerSumKind.E43: 4, EulerSumKind.E43_2: 5}
#: ALT-kinds, which are the sondow_alt series, by s
_ALT_S = {EulerSumKind.ALT2: 2, EulerSumKind.ALT3: 3, EulerSumKind.ALT4: 4, EulerSumKind.ALT5: 5}


def euler_sum_partial(kind: EulerSumKind, N: int, ctx: PrecisionContext) -> SeriesResult:
    """Partial sums of the named nonlinear Euler sums (x = 1 family).

    The E-kinds return the unnormalized combinations whose limits are
    3! zeta(4), 4! zeta(5), 5! zeta(6), 12 zeta(5) and (1/2) 5! zeta(6);
    the ALT-kinds return the alternating-zeta series with 1/(n 2^n)
    weights, whose limits are eta(2)..eta(5).

    E41, E43 and E43_2 sum (H_n^q-bracket) / n^2, which is q! times the
    :func:`euler_hurwitz` series at x = 1 (q = 3, 4, 5), so they return that
    series scaled, value and tail.  ALT_s sums the same terms as
    :func:`sondow_alt` at s and returns it.  E45_8 and E45_10 are summed
    here, with the analytic surrogate  integral (log t + 1)^d / t^2  as tail
    (d = 3, 4 the harmonic-power degree).
    """
    if not isinstance(kind, EulerSumKind):
        raise DomainError("unknown Euler-sum kind")
    if kind in _ALT_S:
        return sondow_alt(_ALT_S[kind], N, ctx)
    if kind in _EULER_HURWITZ_Q:
        q = _EULER_HURWITZ_Q[kind]
        res = euler_hurwitz(q, 1, N, ctx)
        scale = math.factorial(q)
        with ctx.scope():
            value = scale * res.value
        return SeriesResult(
            value=value, terms_used=N, tail_estimate=scale * res.tail_estimate, mode=ctx.mode
        )

    with ctx.scope():
        acc = NeumaierSum(ctx.zero())
        one = ctx.zero() + 1
        H = H2 = H3 = ctx.zero()
        for n in range(1, N + 1):
            H = H + one / n
            H2 = H2 + one / (n * n)
            H3 = H3 + one / (n * n * n)
            if kind is EulerSumKind.E45_8:
                term = (H * (H * H + H2)) / (n * n) - (H * H + H2) / (n * n * n)
            else:
                term = (H * H * (H * H + 3 * H2) + 2 * H * H3) / (n * n) - (
                    H * (H * H + 3 * H2) + 2 * H3
                ) / (n * n * n)
            acc.add(term)
        tail = _spec_euler_tail(N, 3 if kind is EulerSumKind.E45_8 else 4)
        return _finish(ctx, acc, N, tail)


def euler_sum_target(kind: EulerSumKind, ctx: PrecisionContext) -> Real:
    """Limit of the corresponding euler_sum_partial series."""
    if kind in _EULER_HURWITZ_Q:
        q = _EULER_HURWITZ_Q[kind]
        return math.factorial(q) * const_zeta(q + 1, ctx)
    if kind is EulerSumKind.E45_8:
        return 12 * const_zeta(5, ctx)
    if kind is EulerSumKind.E45_10:
        return 60 * const_zeta(6, ctx)
    s = _ALT_S[kind]
    return (1 - ctx.real(Fraction(2)) ** (1 - s)) * const_zeta(s, ctx)


def catalan_series(kind: CatalanKind, N: int, ctx: PrecisionContext) -> SeriesResult:
    """Central-binomial series: two for Catalan's G, the duplication-formula
    series for zeta(2), and the zeta(3, 1/2) series.

    Term ratios are exact small integers, applied multiplicatively; one
    rounding per step.  Normalized values are returned (targets G, zeta(2),
    7 zeta(3)).
    """
    if not isinstance(kind, CatalanKind):
        raise DomainError("unknown catalan-series kind")

    with ctx.scope():
        acc = NeumaierSum(ctx.zero())
        one = ctx.zero() + 1
        last = 0.0
        if kind is CatalanKind.RAMANUJAN_38:
            quarter_pi = const_pi(ctx) / 4
            b = one  # C(2n,n)^2 / 2^(4n)
            for n in range(N):
                term = quarter_pi * b / (2 * n + 1)
                acc.add(term)
                last = float(term)
                b = b * ((2 * n + 1) * (2 * n + 1)) / (4 * (n + 1) * (n + 1))
            tail = _tail_from_last(last, N, 1.0, 0, 0.0)
            return _finish(ctx, acc, N, tail)
        if kind in (CatalanKind.CENTRAL_38_1, CatalanKind.ZETA2_37):
            # terms c / (4 (2n+1)) for G and c / (3 (n+1)) for zeta(2)
            a, b = (8, 4) if kind is CatalanKind.CENTRAL_38_1 else (3, 3)
            c = one * 2  # 2^(2n+1) (n!)^2 / (2n+1)!
            for n in range(N):
                term = c / (a * n + b)
                acc.add(term)
                last = float(term)
                c = c * (2 * (n + 1)) / (2 * n + 3)
            tail = _tail_from_last(last, N, 0.5, 0, 0.0)
            return _finish(ctx, acc, N, tail)
        # ZETA3_HALF_45_6: (1/2) sum [n H_n - 1]/n^2 * [2^n Gamma(n)]^2/Gamma(2n)
        R = one * 2  # equals R_n(1/2); the bracketed factor is 2 R_n
        H = ctx.zero()
        term = ctx.zero()
        for n in range(1, N + 1):
            if n > 1:
                R = R * (n - 1) / (n - 1 + 0.5)
            H = H + one / n
            term = (n * H - 1) * R / (n * n)
            acc.add(term)
        c_off = float(H) - math.log(N)
        tail = _tail_from_last(float(term), N, 0.5, 1, c_off)
        return _finish(ctx, acc, N, tail)


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
        sv = ctx.real(s)
        acc = NeumaierSum(yv * 0)
        p = yv * 0 + 1
        for k in range(1, N + 1):
            p = p * yv
            acc.add(p / (k ** sv if not float(s).is_integer() else k ** int(s)))
        return +acc.total


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

    Inner sums are exact rationals (the alternating one cancels
    catastrophically in floats), rounded once per row.
    """
    y = _polylog_identity_args(which, s, y)
    alternating = which is PolylogIdentity.E14_3
    with ctx.scope():
        acc = NeumaierSum(ctx.zero())
        last = 0.0
        two_n = 1
        for n in range(1, N + 1):
            two_n *= 2
            inner = Fraction(0)
            c = 1
            yk = Fraction(1)
            for k in range(1, n + 1):
                c = c * (n - k + 1) // k
                yk *= y
                t = Fraction(c, k**s) * yk
                inner += -t if (alternating and k % 2) else t
            row = inner / n**2 if alternating else inner / (n * two_n)
            acc.add(ctx.real(row))
            last = abs(float(row))
        tail = _tail_from_last(last, N, 1.0, 1, 1.0) if alternating else 2.0 * last
        return _finish(ctx, acc, N, tail)


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
    number H_n(1/2) = sum_{k<n} 2/(2k+1) accumulated in a compensated sum
    of the context's real type.
    """
    if power not in (2, 4):
        raise DomainError("power must be 2 or 4")

    with ctx.scope():
        psi0 = -const_gamma(ctx) - 2 * const_log2(ctx)
        acc = NeumaierSum(ctx.zero())
        hx = NeumaierSum(ctx.zero())
        two = ctx.real(2)
        term = ctx.zero()
        for n in range(N):
            term = (psi0 + hx.total) / (2 * n + 1) ** power
            acc.add(term)
            hx.add(two / (2 * n + 1))
        c = float(psi0 + hx.total) - math.log(N) if N > 1 else 1.0
        tail = _tail_from_last(float(term), N, float(power - 1), 1, c)
        return _finish(ctx, acc, N, tail)


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


_MIXED_KINDS = {4: MixedKind.Z4_457, 5: MixedKind.Z5_457B, 6: MixedKind.Z6_459}


def _mixed_kind(q: int) -> MixedKind:
    if q not in _MIXED_KINDS:
        raise DomainError("mixed-q supports q in {4, 5, 6}")
    return _MIXED_KINDS[q]


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
        lambda q, x, N, ctx: mixed_q(_mixed_kind(q), x, N, ctx),
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
    |s| or |q| <= MAX_ORDER.
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
