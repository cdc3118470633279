"""Evaluators for the zeta-function series families, which sum integers at
a binary scale and round once (the FAST gamma-ratio kernels sum doubles):

* Hasse-style globally convergent double sums for zeta(s, x),
* the alternating (eta) double sums with geometric outer weights,
* the two Bell-polynomial single series for zeta(q+1, x) -- one whose
  arguments are shifted harmonic numbers H_n^(m)(x) and one whose
  arguments are the plain H_{n-1}^(m) with alternating signs,
* the Stirling-number series for zeta(p+1),
* mixed series combining plain and shifted harmonic numbers,
* nonlinear Euler-sum partial sums, central-binomial series for Catalan's
  constant and zeta(2), polylogarithm identities and digamma-weighted sums.

Every evaluator returns a :class:`SeriesResult`: the partial sum and a
tail surrogate calibrated on the final term, which is not a bound (an
integral  integral (log t + c)^d t^(-1-a) dt,  so no per-formula constant
needs tuning; geometric series use twice the final term).  Terms are
summed in ascending index, so results are bit-reproducible.  The
gamma-ratio series have the only FAST float loops: one kernel per kind and
order, which counts n in doubles and adds its own terms by Neumaier's step,
written out in the loop, with no abs() in the compare, every term being
>= 0 (see :func:`_gamma_ratio_series`).
Every other loop, and every HIGH loop, sums integers at a scale 2^P: each
step is a floor, the docstring states the loss E units of 2^-P, P is
:func:`_scale` of E over a lower bound on the sum, and :func:`_from_fixed`
rounds the integer sum once.  Each such series has one loop for both modes:
in FAST, P is sized for ``numerics._FAST_SEED_DIGITS`` digits whatever
ctx.digits says, a constant that scales the sum comes from HIGH at those
digits (:func:`_high`), and the result is the double nearest the sum.

Gamma-ratio factors are never computed from a Gamma evaluator: the exact
recurrence R_{n+1} = R_n n/(n+x), seeded from R_1 = 1/x, is used
throughout.  Inner alternating binomial sums are never summed term by term
in doubles, which would lose everything to terms as large as C(n, n/2).
Integer s uses their closed form.  Non-integer s swaps the double sum's two
sums into one weighted sum over phi_k = (k+x)^-s, an O(N) integer dot
product with exact weights (:func:`_swapped_sum`).  The polylog identities
carry their inner sums across rows by f_j(n) = f_j(n-1) + f_{j-1}(n)/n.  The
other per-term factors are carried across terms too, at O(q) work per
term: the Bell factor as symmetric-polynomial coefficients, which for the
Stirling series are the column |s(k, j)|/(k-1)!.  The literal routes
live in the tests: exact terms from ``combinatorics.bell_eval``,
``combinatorics.stirling1`` and the Coppo rows of ``tests/oracles.py``, the
mixed series' harmonic-number brackets, the binomial-row loop and the
exact-Fraction polylog rows.

The eta double sums at integer s carry the same h_m recurrence as
euler_hurwitz (:func:`_gamma_ratio_series`): inner row n - 1 is
R_n(x) h_{s-1}(b_0, ..., b_{n-1}), weighted 2^-n; the exact Coppo rows
(``coppo_rhs_rows`` in ``tests/oracles.py``) are the tests' reference for
it.  So does the mixed series sum (n H_n - 1) R_n(x) h_{m-1} / n^2, of
which mixed-q, zeta3-half and the Euler sums E45_8 and E45_10 are
multiples; the Shen series is stirling_route at x = 1, and the
central-binomial series at x = 1/2 are gamma-ratio series scaled
(:data:`_CENTRAL_BINOMIAL`).  :func:`_gamma_ratio_result` gives all of them
their tail, scale and final rounding.

Each :class:`Formula` of the CLI has one :class:`FormulaSpec` in
:data:`FORMULAS` (parameter kind, shift, evaluator, reference);
:func:`evaluate` and :func:`reference_value` are lookups into it, and
:func:`reference_value` is the one place where a reference is rounded into
the request's mode.  :func:`evaluate_against_reference` is the one place
where a partial sum meets it: eval, converge and verify read its
:class:`Evaluation`.  The references are closed forms in values that all
come from ``numerics``: zeta(s, x), the constants and Li_s(y).
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import sys
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import mpmath

from .numerics import (
    DomainError,
    Mode,
    NumericError,
    PrecisionContext,
    Real,
    SeriesResult,
    const_catalan,
    const_gamma,
    const_log2,
    const_pi,
    const_zeta,
    _FAST_SEED_DIGITS,
    _GUARD_DIGITS,
    _inv_powers,
    _unfixed,
    hurwitz_zeta_em,
    polylog,
    working_precision,  # not called here: bench/tests wraps this module's name
)

__all__ = [
    "Formula",
    "EvalRequest",
    "Evaluation",
    "CatalanKind",
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
    "polylog_identity_lhs",
    "polylog_identity_target",
    "digamma_half_sum",
    "digamma_half_target",
    "convergence_table",
    "fit_convergence_exponent",
    "evaluate",
    "evaluate_against_reference",
    "reference_value",
    "NONINTEGER_S_TERM_CAP",
    "MAX_ORDER",
    "MAX_TERMS",
]

#: Row cap for non-integer s in the Hasse/eta double sums: the tail's inner
#: binomial row N - 1 needs N extra bits to absorb cancellation.
NONINTEGER_S_TERM_CAP = 400

#: Largest |s| or q that :func:`evaluate` accepts.  The tail surrogate
#: builds d! (d up to the order) as a double, which overflows near 170; an
#: unbounded order also costs order-sized work per term.  100 leaves
#: headroom for the x-dependent factors 1/a^(j+1) next to the d!.
MAX_ORDER = 100

#: Largest term budget N that the CLI accepts, for ``eval`` and for every
#: ``converge`` budget: 10x the largest budget the benchmark and the
#: acceptance suite run, so a mistyped N fails at once instead of running
#: for hours.
MAX_TERMS = 10**7


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


class CatalanKind(enum.Enum):
    RAMANUJAN_38 = "RAMANUJAN_38"
    CENTRAL_38_1 = "CENTRAL_38_1"
    ZETA2_37 = "ZETA2_37"
    ZETA3_HALF_45_6 = "ZETA3_HALF_45_6"


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
class Evaluation:
    """A request, :func:`evaluate`'s result, the seconds of that call alone,
    and the reference and errors (all None where there is no reference)."""

    request: EvalRequest
    result: SeriesResult
    reference: Optional[Real]
    abs_error: Optional[Real]
    rel_error: Optional[Real]
    seconds: float


# ----------------------------------------------------------------------
# Tail surrogates.
# ----------------------------------------------------------------------


def _tail_from_last(t_last: float, N: int, a: float, d: int, c: float) -> float:
    """Tail of a series whose terms behave like (log n + c)^d n^(-1-a),

    scaled so the model reproduces the final computed term exactly.  With
    l = log N + c (1 when that is not positive), the model is
    t_last (log n + c)^d n^(-1-a) N^(1+a) / l^d, and its integral from N
    is the closed form |t_last| N sum_{j<=d} C(d, j) j! / (l^j a^(j+1)):
    the factors N^(1+a) and N^(-a) of the scale and the integral cancel,
    so a large a cannot overflow them.
    """
    t_last = abs(t_last)
    if t_last == 0.0:
        return 0.0
    lnc = math.log(N) + c
    if lnc <= 0.0:
        lnc = 1.0
    try:
        total = 0.0
        jfact = 1.0
        for j in range(d + 1):
            if j:
                jfact *= j
            total += math.comb(d, j) * jfact / (lnc**j * a ** (j + 1))
        return t_last * N * total
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


def _swapped_sum(s_power: Fraction, x: Fraction, N: int, ctx, weights, low_log2, divisor=1):
    """(sum_{k<N} (-1)^k c_k phi_k / d in ctx's type, r_{N-1} / w as a
    double), both over ``divisor``, where (c, d, w) = weights(N),
    phi_k = (k+x)^(-s_power) and r_{N-1} = sum_k (-1)^k C(N-1,k) phi_k: a
    non-integer-s double sum with its two sums swapped, and its last term,
    whose outer weight is 1/w.  In integers at scale 2^P, with phi_k
    floored by ``numerics._inv_powers`` (under 1 + 2^-10 units lost) and one
    floor for d, the sum loses under E = (1 + 2^-10) sum_k c_k / |d| + 1
    units (every c_k >= 0) and r_{N-1} under (1 + 2^-10) 2^(N-1).  P is
    :func:`_scale` of max(E / S_low, 2^N), S_low = 2^(floor(low_log2) - 2)
    below the caller's bound 2^low_log2 on the sum: row N - 1 keeps
    10^-dps / 16, and its binomial weights cap N.
    """
    if N > NONINTEGER_S_TERM_CAP:
        raise DomainError(
            f"non-integer exponents cap the term budget at {NONINTEGER_S_TERM_CAP}"
        )
    c, d, w = weights(N)
    d, w = d * Fraction(divisor), w * Fraction(divisor)
    E = Fraction(1025, 1024) * sum(c) / abs(d) + 1
    P = _scale(ctx, max(E / Fraction(2) ** (math.floor(low_log2) - 2), Fraction(2**N)))
    phi = _inv_powers(s_power, x, range(N), P)
    signed = [-f if k % 2 else f for k, f in enumerate(phi)]  # (-1)^k phi_k
    total = sum(ck * f for ck, f in zip(c, signed)) * d.denominator // d.numerator
    last = sum(math.comb(N - 1, k) * f for k, f in enumerate(signed)) * w.denominator
    return _from_fixed(total, P, ctx), _to_float(last, w.numerator << P)


# ----------------------------------------------------------------------
# Series evaluators.
# ----------------------------------------------------------------------


def _finish(ctx: PrecisionContext, total, tail: float) -> SeriesResult:
    if not math.isfinite(tail):
        raise NumericError("the tail estimate overflowed a double")
    return SeriesResult(value=ctx.real(total), tail_estimate=abs(tail))  # rounds total once


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


def _log2(x: Fraction) -> float:
    return math.log2(x.numerator) - math.log2(x.denominator)


#: The HIGH context behind FAST's integer loops: its dps is the digits behind
#: FAST's constants (``numerics._FAST_SEED_DIGITS``), whatever ctx.digits says.
_FAST_LOOP_CTX = PrecisionContext(_FAST_SEED_DIGITS - _GUARD_DIGITS, Mode.HIGH)


def _high(ctx: PrecisionContext) -> PrecisionContext:
    """The HIGH context an integer loop is sized for, and takes its
    constants from: ctx in HIGH, :data:`_FAST_LOOP_CTX` in FAST."""
    return ctx if ctx.mode is Mode.HIGH else _FAST_LOOP_CTX


def _scale(ctx: PrecisionContext, ratio) -> int:
    """P = ceil(dps log2 10) + log2(E / S_low) + 4 for ratio = E / S_low, the
    log2 read off bit lengths, dps that of :func:`_high`: the scale at which
    a sum of size at least S_low that loses under E units of 2^-P is within
    10^-dps / 4 of itself."""
    ratio = Fraction(ratio)
    P = math.ceil(_high(ctx).dps * math.log2(10)) + ratio.numerator.bit_length() + 4
    return P - ratio.denominator.bit_length()


def _from_fixed(total: int, P: int, ctx: PrecisionContext) -> Real:
    """total 2^-P rounded once into ctx's type: the one place where an
    integer series leaves the integers."""
    return _to_float(total, 1 << P) if ctx.mode is Mode.FAST else _unfixed(total, P, ctx.dps)


def _gamma_ratio_series(kind: str, m: int, x: Fraction, N: int, ctx: PrecisionContext):
    """The gamma-ratio series' loop: (sum, last term, h, R_N).  ``kind`` is
    "euler-hurwitz" (term n = R_n a[m-1] / (m n), a[j] = h_j of 1/(i+x)),
    "stirling-route" (R_n a[m-1] / n, a[j] = e_j of 1, ..., 1/(n-1)), "eta"
    (2^-n R_n a[m-1], a[j] = h_j), "mixed" ((n H_n - 1) R_n a[m-1] / n^2,
    a[j] = h_j) or "central" (R_n a[m-1] / (n - 1 + x), a[j] = h_j).  h is
    the larger of a[1] and H_N (H_N only for "mixed"), the harmonic number
    behind the tail's log offset.  HIGH is fixed-point (:func:`_fixed_point_series`).

    Each mode runs one kernel per (kind, m) (:func:`_kernel`).  FAST's count
    n in doubles (n += 1.0) and form m n and n n as products of doubles:
    every counter is an exact integer below 2^53, and each product rounds
    once, to the double nearest the exact integer, as the int-to-float
    conversion of the integer product did.  So every term is bit for bit the
    one that int counters give.

    Each FAST kernel adds its own terms by Neumaier's step, written out in
    its loop, with ``s >= t`` where the general step compares
    ``abs(s) >= abs(t)``.  Every term is >= 0, since x > 0 makes R_n, every
    1/(i+x), every a[j] and every weight non-negative, and n H_n - 1 >= 0;
    so the running sum s is >= 0 too, and the two compares agree on every
    such pair, inf and nan included (a compare with nan is False either
    way), so the sums are bit for bit the general step's.  At m = 1 the
    terms of every kind but "mixed" never increase, so the kernel peels
    term 1 (s = t, c = t - t) and later steps drop the compare
    (s >= t_1 >= t).
    """
    if ctx.mode is Mode.HIGH:
        return _fixed_point_series(kind, m, x, N, ctx)
    total, term, R, a1, H = _kernel(Mode.FAST, kind, m)(_ratio_seed(x, ctx), float(x), N)
    return total, term, max(a1, H), R


# The kernels of _gamma_ratio_series, one per (mode, kind, m), built by
# _kernel.  Per kind: FAST's extra state, FAST's step after ``n += 1.0`` and
# HIGH's step after ``n += 1``, which adds term n to ``total``.  {a} is the
# factor a[m-1] (empty for FAST at m = 1) and {mn} is m n (n at m = 1).
_KERNEL_STEPS = {
    "euler-hurwitz": ("", "t = R{a} / {mn}", "t = R{a}\ntotal += (t >> (P + e)) // ({m} * n)"),
    "stirling-route": ("", "t = R{a} / n", "t = R{a}\ntotal += (t >> (P + e)) // n"),
    "eta": ("w = 1.0", "w = w / 2.0\nt = w * R{a}", "t = R{a}\ntotal += t >> (P + e + n)"),
    "mixed": (  # HIGH: (n H_n - 1) / n^2 = H_{n-1} / n
        "",
        "H = H + 1.0 / n\nt = (n * H - 1.0){a} * R / (n * n)",
        "t = (R{a} >> P) * H\nH += one // n\ntotal += (t >> (P + e)) // n",
    ),
    "central": ("", "t = R{a} / den", "t = R{a}\ntotal += (t >> (P + e)) * d // den"),
}
_NEUMAIER = [  # s >= t compares as abs(s) >= abs(t) does, every term being >= 0
    "u = s + t",
    "if s >= t:",
    "    c += (s - u) + t",
    "else:",
    "    c += (t - u) + s",
    "s = u",
]
_NEUMAIER_AFTER_PEEL = ["u = s + t", "c += (s - u) + t", "s = u"]  # s >= t_1 >= t
_R_STEP = [  # HIGH: R_n keeps P + 1 significant bits, at scale 2^(P+e)
    "R = R * k // den",
    "sh = P1 - R.bit_length()",
    "if sh > 0:",
    "    R <<= sh",
    "    e += sh",
]


@functools.lru_cache(maxsize=None, typed=True)
def _kernel(mode: Mode, kind: str, m: int) -> Callable:
    """The loop of :func:`_gamma_ratio_series` for ``mode``, ``kind`` and
    order m in 1..MAX_ORDER, compiled at its first request and cached (typed,
    so that m = 2.0 meets the order check, not the kernel of m = 2).

    FAST: kernel(R_1, x, N) sums terms n = 1..N in doubles and returns
    (sum, last term, R_N, a[1], H_N).  HIGH: kernel(R_1 2^(P+e), e, p, d, P,
    N), x = p/d, runs :func:`_fixed_point_series`'s integer steps and returns
    (sum 2^P, last term 2^(2P+e), e, R_N 2^(P+e), a[1] 2^P, H_N 2^P).  a[1]
    is 0 for m = 1 and H_N 0 but for "mixed".  The loop is straight-line:
    a[1..m-1] are the locals a1..a{m-1}, a[0] is ``one`` = 2^P in HIGH and
    the literal 1.0 in FAST, where it is left out of products (b 1.0 == b
    and R 1.0 == R, bit for bit).  R and a[] advance with n - 1 in ``n`` at
    the top of the loop.  The source is made from the integer m,
    :data:`_KERNEL_STEPS` and the fixed lines here only.
    """
    if not (isinstance(m, int) and 1 <= m <= MAX_ORDER):
        raise ValueError(f"kernel order must lie in 1..{MAX_ORDER}, got {m!r}")
    init, fast_step, high_step = _KERNEL_STEPS[kind]
    fast = mode is Mode.FAST
    a = ["1.0" if fast else "one"] + [f"a{j}" for j in range(1, m)]
    times = lambda j: "" if a[j] == "1.0" else f" * {a[j]}"  # the factor a[j]
    tail = []
    if kind == "stirling-route":  # a[] after the term, descending: a[j-1] is still old
        pre, ratio, post = [], ["R = R * n / (n + xv)"], []
        div = "/" if fast else "//"
        tail = [f"{a[j]} = {a[j]} + {a[j - 1]} {div} n" for j in range(m - 1, 0, -1)]
    elif fast:  # a[] before the term, ascending: a[j-1] is already new
        pre, ratio = ["den = n + xv"], ["R = R * n / den"]
        post = ["b = 1.0 / den"] * (m > 1)
        post += [f"{a[j]} = {a[j]} + b{times(j - 1)}" for j in range(1, m)]
    else:  # the same in integers
        post = [f"{a[j]} = {a[j]} + {a[j - 1]} * d // den" for j in range(1, m)]
    mn = "n" if m == 1 else f"({m}.0 * n)"
    step = (fast_step if fast else high_step).format(m=m, a=times(m - 1), mn=mn).split("\n")
    if fast:
        state, zero, ret = ["n", "H", "s", "c", "t"], "0.0", "s + c, t, R"
        lines, count, add = ["def kernel(R, xv, N):"], "n += 1.0", _NEUMAIER
    else:
        state, zero, ret = ["n", "H", "total", "t"], "0", "total, t, e, R"
        lines, count, add = ["def kernel(R, e, p, d, P, N):"], "n += 1", []
        init, pre, ratio = "one, P1 = 1 << P, P + 1", ["k = d * n", "den = k + p"], _R_STEP
    lines += [f"    {' = '.join(state + a[1:])} = {zero}", "    " + init]
    peel = fast and m == 1 and kind != "mixed"  # see _gamma_ratio_series
    if peel:
        first = pre + post + [count] + step + ["s = t", "c = t - t"] + tail
        lines += ["    if N > 0:"] + ["        " + line for line in first]
        add = _NEUMAIER_AFTER_PEEL
    else:
        ratio = ["if n:"] + ["    " + line for line in ratio]
    lines += [f"    for _ in range(N{' - 1' * peel}):"]
    lines += ["        " + line for line in pre + ratio + post + [count] + step + add + tail]
    lines += [f"    return {ret}, {a[1] if m > 1 else zero}, H"]
    source = "\n".join(line for line in lines if line.strip())
    namespace: dict = {}
    exec(compile(source, f"<{mode.value.lower()} kernel {kind} m={m}>", "exec"), namespace)
    return namespace["kernel"]


def _fixed_point_series(kind: str, m: int, x: Fraction, N: int, ctx: PrecisionContext):
    """:func:`_gamma_ratio_series` in integers at scale 2^P, rounded once;
    its loop is the HIGH :func:`_kernel`.

    With x = p/d exact, each step is a floor: R_n = floor(R_{n-1} d(n-1) /
    (d(n-1)+p)), a[j] += floor(a[j-1] d / (d(n-1)+p)) or floor(a[j-1] / n),
    H_n = H_{n-1} + floor(1 / n), term n = floor(R_n a[m-1] / w_n), and for
    "mixed", whose term n is R_n a[m-1] H_{n-1} / n, floor(floor(R_n a[m-1])
    H_{n-1} / n).  R_n keeps P+1 significant bits (scale 2^(P+e)) for the
    tail's floats.  The exact sum is rounded once at ctx.dps.

    Bound: each floor loses under one unit 2^-P and all quantities are
    non-negative, so S' <= S; R_n loses at most n units, a[j] at most
    n (a[0] + ... + a[j-1]), H_{n-1} under n.  With a[j] <= L^j,
    H_n <= L, L = 1/x + 1 + bitlen(N), and n / w_n <= f (f = 1, but 1/x for
    "central" at x < 1, w_n = n - 1 + x): S - S' < E 2^-P,
    E = 2 N m f (1 + 1/x) L^(m-1), and for "mixed" E = 2 N (m + 2) (1 + 1/x) L^m.
    S is at least its first non-zero term S_low: term m for "stirling-route",
    term 2 >= x^-m / (2 (1 + x)) for "mixed" (n H_n - 1 vanishes at n = 1),
    term 1 otherwise (x^-(m+1) for "central", x^-2 at m = 1).  So
    P = ceil(dps log2 10) + log2(E / S_low) + 4 gives (S - S') / S < 10^-dps / 4.
    """
    p, d = x.numerator, x.denominator
    L = 1 / x + 1 + N.bit_length()
    E, w = 2 * N * m * (1 + 1 / x) * L ** (m - 1), N  # w = w_N, which divides term N
    if kind == "stirling-route":
        low = 1 / (m * math.prod(k + x for k in range(m)))
    elif kind == "mixed":
        low, E = x**-m / (2 * (1 + x)), E * (m + 2) * L / m
    elif kind == "central":
        low, E, w = x ** -(m + 1), E * max(1, 1 / x), N - 1 + x
    elif kind == "eta":
        low, w = x**-m / 2, 1 << N
    else:
        low, w = x**-m / m, m * N
    P = _scale(ctx, E / low)
    e = max(0, p.bit_length() - d.bit_length() + 1)
    R = (d << (P + e)) // p  # R_1 2^(P+e)
    total, t, e, R, a1, H = _kernel(Mode.HIGH, kind, m)(R, e, p, d, P, N)
    last = _to_float(t * w.denominator, (1 << (2 * P + e)) * w.numerator)
    h, R = _to_float(max(a1, H), 1 << P), _to_float(R, 1 << (P + e))
    return _from_fixed(total, P, ctx), last, h, R


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
        if term == 0.0 and kind in ("stirling-route", "mixed"):  # a series whose first terms vanish
            term = R * (float(x) ** (1 - m) if kind == "mixed" else 1.0) / N
        order = m if kind == "mixed" else m - 1
        tail = _tail_from_last(term, N, float(x), order, h - math.log(N))
    with ctx.scope():
        total = ctx.real(scale) * total
    return _finish(ctx, total, float(scale) * tail)


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
    phi_k = (k+x)^(1-s) and V_k from :func:`_hasse_weights`, one integer
    dot product (:func:`_swapped_sum`, term budget capped); below s = 1
    convergence is empirical and the tail estimate is the last-row magnitude.
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
        return _finish(ctx, sum(rows), tail)
    sf, s1 = float(s), Fraction(s) - 1
    low = (1 - sf) * _log2(x) - math.log2(sf - 1) if sf > 1 else 0.0  # log2 of r_0 / (s-1)
    total, last = _swapped_sum(s1, x, N, ctx, _hasse_weights, low, s1)
    tail = abs(last)  # the last row
    if sf > 1:
        tail = _tail_from_last(tail, N, float(x), max(math.ceil(sf) - 2, 0), 1.0)
    return _finish(ctx, total, tail)


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
        low = -float(s) * _log2(x) - 1  # log2 of r_0 / 2
        total, last = _swapped_sum(Fraction(s), x, N, ctx, _eta_weights, low)
        return _finish(ctx, total, 2.0 * abs(last))
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
        raise DomainError(f"shen requires an integer q >= 1, got {p}")
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


def euler_sum_partial(m: int, N: int, ctx: PrecisionContext) -> SeriesResult:
    """The nonlinear Euler sums E45_8 (m = 3) and E45_10 (m = 4) at x = 1,
    (m-1)! times the "mixed" series: 12 and 60 times the mixed-q series for
    zeta(5, 1) and zeta(6, 1).  E45_8 sums [n H_n - 1] (H_n^2 + H_n^(2)) / n^3."""
    return _gamma_ratio_result("mixed", m, 1, N, ctx, math.factorial(m - 1))


def euler_sum_target(m: int, ctx: PrecisionContext) -> Real:
    """Limit of euler_sum_partial(m): (m+1)!/2 zeta(m+2), 12 zeta(5) or 60 zeta(6)."""
    return math.factorial(m + 1) // 2 * const_zeta(m + 2, ctx)


#: The central-binomial series at x = 1/2, as (kind, m, scale) of :func:`_gamma_ratio_result`
_CENTRAL_BINOMIAL = {
    CatalanKind.CENTRAL_38_1: ("central", 1, Fraction(1, 8)),
    CatalanKind.ZETA2_37: ("euler-hurwitz", 1, Fraction(1, 3)),
    CatalanKind.ZETA3_HALF_45_6: ("mixed", 1, 1),
}


def catalan_series(kind: CatalanKind, N: int, ctx: PrecisionContext) -> SeriesResult:
    """Central-binomial series: two for Catalan's G, the duplication-formula
    series for zeta(2), and the zeta(3, 1/2) series.  Normalized values are
    returned (targets G, zeta(2), 7 zeta(3)).

    The factor c_n = 2^(2n+1) (n!)^2 / (2n+1)! is R_{n+1}(1/2), so all but
    Ramanujan's are gamma-ratio series at x = 1/2 (:data:`_CENTRAL_BINOMIAL`):
    G = (1/8) sum_{n>=1} R_n(1/2) / (n - 1/2) is the "central" kind,
    zeta(2) = zeta(2, 1/2) / 3 the :func:`euler_hurwitz` series at q = 1, and
    (1/2) sum [n H_n - 1]/n^2 [2^n Gamma(n)]^2/Gamma(2n) the mixed series at
    m = 1 (its bracketed factor is 2 R_n(1/2)).  Ramanujan's terms carry
    1/R_{n+1}(1/2)^2 and fall like n^-2, which the gamma-ratio tail (decay x)
    does not model.  Its integer loop :func:`_ramanujan_fixed` runs in both
    modes, and pi/4, an integer at the loop's scale, multiplies the sum once.
    """
    if not isinstance(kind, CatalanKind):
        raise DomainError("unknown catalan-series kind")
    if kind in _CENTRAL_BINOMIAL:
        series, m, scale = _CENTRAL_BINOMIAL[kind]
        return _gamma_ratio_result(series, m, Fraction(1, 2), N, ctx, scale)
    _require_terms(N)
    hi = _high(ctx)
    with hi.scope():
        quarter_pi = const_pi(hi) / 4
    P = _scale(ctx, 2 * N)  # E = 2 N, S_low = b_0 = 1
    Q = int(mpmath.ldexp(quarter_pi, P))  # exact: P exceeds the bits of pi/4
    total, term = _ramanujan_fixed(N, P)
    tail = _tail_from_last(_to_float(Q * term, 1 << 2 * P), N, 1.0, 0, 0.0)
    return _finish(ctx, _from_fixed(Q * total, 2 * P, ctx), tail)


def _ramanujan_fixed(N: int, P: int) -> Tuple[int, int]:
    """(sum, last term) of b_n / (2n+1), n < N, in integers at scale 2^P:
    B_n = floor(floor(B_{n-1} (2n-1) / (2n)) (2n-1) / (2n)) from B_0 = 2^P
    carries b_n = C(2n,n)^2 / 2^(4n), and term n is floor(B_n / (2n+1)).
    Bound: each step's ratio is below 1, so B_n loses under 2 n units of
    2^-P and term n under 1 + 2 n / (2n+1) < 2, and S - E 2^-P < S' <= S,
    E = 2 N; S >= b_0 = 1.
    """
    b, total, t = 1 << P, 0, 0
    for odd in range(1, 2 * N, 2):  # 2n + 1
        t = b // odd
        total += t
        b = b * odd // (odd + 1) * odd // (odd + 1)
    return total, t


def _polylog_identity_args(s, y) -> Fraction:
    if not isinstance(s, int) or s < 1:
        raise DomainError("s must be an integer >= 1")
    y = Fraction(y)
    if not 0 < y <= Fraction(1, 2):
        default = " (the default without --x)" if y == 1 else ""
        raise DomainError(f"the polylog identities take y = --x in (0, 1/2], got x = {y}{default}")
    return y


def polylog_identity_lhs(
    alternating: bool, s: int, y, N: int, ctx: PrecisionContext
) -> SeriesResult:
    """Partial LHS of the two polylog double-sum identities, at rational y
    in (0, 1/2]; :func:`polylog_identity_target` gives the limits.

    E14_3 (alternating): sum (1/n^2) sum_k C(n,k)(-1)^k y^k/k^s
                         -> -(s+1) Li_{s+2}(y) + log(y) Li_{s+1}(y)
    E14_4: sum (1/(n 2^n)) sum_k C(n,k) y^k/k^s -> Li_{s+1}(y)

    Row n's inner sum f_s(n) = sum_{k=1}^n C(n,k) (+-y)^k / k^s is carried
    across n: C(n,k) - C(n-1,k) = (k/n) C(n,k) gives
    f_j(n) = f_j(n-1) + f_{j-1}(n)/n for j = 1..s in ascending j, with
    f_0(n) = (1 +- y)^n - 1.  For E14_3, f_0(n) lies in (-1, 0), so every
    f_j is a sum of negative terms and nothing cancels.  E14_4 carries
    g_j = f_j / 2^n, g_j(n) = g_j(n-1)/2 + g_{j-1}(n)/n, with
    g_0(n) = ((1+y)/2)^n - 2^-n, so (3/2)^n never appears.  Both modes run
    the integer loop :func:`_polylog_rows_fixed`.
    """
    y = _polylog_identity_args(s, y)
    _require_terms(N)
    L = 1 + N.bit_length()
    E = N + ((s + 1) if alternating else (4 * s + 5)) * L
    P = _scale(ctx, E / (y if alternating else y / 2))
    total, row = _polylog_rows_fixed(alternating, s, y, N, P)
    last = abs(_to_float(row, 1 << P))
    if alternating:
        tail = _tail_from_last(last, N, 1.0, 1, 1.0)
    else:  # row n < r^n / n, r = (1+y)/2, bounds the rest once the last row floors to 0
        r = float(1 + y) / 2
        tail = 2.0 * last if last else r ** (N + 1) / ((N + 1) * (1 - r))
    return _finish(ctx, _from_fixed(total, P, ctx), tail)


def _polylog_rows_fixed(alternating: bool, s: int, y: Fraction, N: int, P: int):
    """polylog_identity_lhs's loop in integers at scale 2^P: (sum, last
    row).  With y = p/d, t = (1-y)^n (E14_3) or ((1+y)/2)^n (E14_4) is
    carried as floor(t_{n-1} (d-p) / d) or floor(t_{n-1} (d+p) / (2d)) from
    2^P, f_0 = t - 2^P or t - floor(2^(P-n)), and each f_j step and row is
    floored.

    Bound, in units of 2^-P with L = 1 + bitlen(N) >= H_N: E14_3's floors
    all lose downwards, t under n, f_j(n) under (j+1) n and row n under
    (s+1)/n + 1, so S' <= S and S - S' < E = N + (s+1) L.  E14_4's t loses
    under 2/(1-y) <= 4, f_0 under 5, and halving keeps f_j(n)'s loss under
    5 + 4j, so |S - S'| < E = N + (4s+5) L.  Every row of E14_3 is negative
    and every row of E14_4 positive, so |S| is at least row 1: S_low = y
    for E14_3 and y/2 for E14_4.
    """
    p, d = y.numerator, y.denominator
    num, den = (d - p, d) if alternating else (d + p, 2 * d)
    one = 1 << P
    t, f, total, row = one, [0] * (s + 1), 0, 0
    for n in range(1, N + 1):
        t = t * num // den
        f[0] = t - (one if alternating else one >> n)
        for j in range(1, s + 1):
            f[j] = (f[j] if alternating else f[j] >> 1) + f[j - 1] // n
        row = f[s] // (n * n if alternating else n)
        total += row
    return total, row


def polylog_identity_target(alternating: bool, s: int, y, ctx: PrecisionContext) -> Real:
    """Closed-form limit of the corresponding polylog_identity_lhs series, from
    Li_s(y) of ``numerics.polylog``, in ctx's arithmetic under the caller's
    precision scope (:func:`reference_value`'s)."""
    y = _polylog_identity_args(s, y)
    li = polylog(s + 1, y, ctx)
    return -(s + 1) * polylog(s + 2, y, ctx) + ctx.ln(y) * li if alternating else li


def digamma_half_sum(power: int, N: int, ctx: PrecisionContext) -> SeriesResult:
    """sum_{n=0}^{N-1} psi(n + 1/2) / (2n+1)^power for power in {2, 4}.

    psi(n + 1/2) = psi0 + H_n(1/2), psi0 = -gamma - 2 log 2, with the shifted
    harmonic number H_n(1/2) = sum_{k<n} 2/(2k+1) carried across terms, in
    both modes by the integer loop :func:`_digamma_fixed`.
    """
    if power not in (2, 4):
        raise DomainError(f"digamma-half-sum supports q in {{2, 4}}, got {power}")
    _require_terms(N)

    hi = _high(ctx)
    with hi.scope():
        psi0 = -const_gamma(hi) - 2 * const_log2(hi)
    P = _scale(ctx, 4 * N)  # E = 4 N, S_low = 1
    Psi = int(mpmath.ldexp(psi0, P))  # exact: P exceeds the bits of psi0
    A, B, H, t = _digamma_fixed(power, N, P)
    total = _from_fixed(Psi * A + (B << P), 2 * P, ctx)
    term = _to_float(Psi + t, (2 * N - 1) ** power << P)
    c = _to_float(Psi + H, 1 << P) - math.log(N) if N > 1 else 1.0
    tail = _tail_from_last(term, N, float(power - 1), 1, c)
    return _finish(ctx, total, tail)


def _digamma_fixed(power: int, N: int, P: int) -> Tuple[int, int, int, int]:
    """digamma_half_sum's loop in integers at scale 2^P: (A, B, H_N,
    H_{N-1}) with A = sum_{n<N} floor(2^P / (2n+1)^power), B = sum_{n<N}
    floor(H_n / (2n+1)^power) and H_n = sum_{k<n} floor(2^(P+1) / (2k+1)),
    so that the sum is psi0 A + B at scale 2^P.

    Bound: every floor loses under one unit of 2^-P, so A loses under N
    units, H_n under n and term n of B under 1 + n / (2n+1)^power; with
    |psi0| < 2 the sum S' = psi0 A + B is within E 2^-P of the partial sum
    S, E = 4 N.  The terms after n = 0 are positive and S tends to -1.76
    (power 2) or -1.96 (power 4), so |S| >= S_low = 1.
    """
    one, two = 1 << P, 2 << P
    A = B = H = h = 0
    for odd in range(1, 2 * N, 2):  # 2n + 1
        w = odd**power
        A += one // w
        B += H // w
        h = H
        H += two // odd
    return A, B, H, h


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
    raise DomainError(f"digamma-half-sum supports q in {{2, 4}}, got {power}")


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
    """eta(s, x) = 2^-s [zeta(s, x/2) - zeta(s, (1+x)/2)] for s > 1, else None,
    in ctx's arithmetic: :func:`reference_value` calls it in HIGH, so a FAST
    reference is the HIGH difference rounded once, not the difference of
    two rounded doubles.
    """
    if float(s) <= 1:
        return None
    a = hurwitz_zeta_em(s, x / 2, ctx)
    b = hurwitz_zeta_em(s, (1 + x) / 2, ctx)
    return 2 ** (-ctx.real(s)) * (a - b)


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


def _euler_sum(m: int) -> FormulaSpec:
    return FormulaSpec(
        None, False,
        lambda p, x, N, ctx: euler_sum_partial(m, N, ctx),
        lambda p, x, ctx: euler_sum_target(m, ctx),
    )


def _polylog(alternating: bool) -> FormulaSpec:
    return FormulaSpec(
        "s", True,
        lambda s, x, N, ctx: polylog_identity_lhs(alternating, _need_int(s, "s"), x, N, ctx),
        lambda s, x, ctx: polylog_identity_target(alternating, _need_int(s, "s"), x, ctx),
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
    Formula.POLYLOG_14_3: _polylog(True),
    Formula.POLYLOG_14_4: _polylog(False),
    Formula.DIGAMMA_HALF_SUM: FormulaSpec(
        "q", False,
        lambda q, x, N, ctx: digamma_half_sum(q, N, ctx),
        lambda q, x, ctx: digamma_half_target(q, ctx),
    ),
    Formula.EULER_SUM_45_8: _euler_sum(3),
    Formula.EULER_SUM_45_10: _euler_sum(4),
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
    """Independent reference for a request, or None when unavailable: the one
    place where a reference meets the request's mode.

    Every reference is computed in HIGH at the request's digits, under that
    precision scope, so that arithmetic on the constants (7 zeta(3), the
    digamma targets, the eta difference) keeps its digits; a FAST request
    gets that value rounded once to the nearest double.
    """
    spec, p, x = _resolve(req)
    hi = PrecisionContext(req.ctx.digits, Mode.HIGH)
    with hi.scope():
        ref = spec.reference(p, x, hi)
    return float(ref) if ref is not None and req.ctx.mode is Mode.FAST else ref


def evaluate_against_reference(req: EvalRequest, ref: Optional[Real] = None) -> Evaluation:
    """Evaluate one request, then its errors against ``ref`` (by default
    :func:`reference_value`) under its precision scope.  ``evaluate`` runs
    first, so it names a bad request; a zero reference gives rel = abs.
    """
    t0 = time.perf_counter()
    res = evaluate(req)
    seconds = time.perf_counter() - t0
    if ref is None:
        ref = reference_value(req)
    if ref is None:
        return Evaluation(req, res, None, None, None, seconds)
    with req.ctx.scope():
        err = abs(res.value - ref)
        rel = err / abs(ref) if ref != 0 else +err
    return Evaluation(req, res, ref, err, rel, seconds)


def convergence_table(req: EvalRequest, Ns: Sequence[int]) -> List[Evaluation]:
    """The request evaluated at each term budget against the reference of
    the first.  Ns must be strictly increasing."""
    if any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise DomainError("term budgets must be strictly increasing")
    rows: List[Evaluation] = []
    for N in Ns:
        ref = rows[0].reference if rows else None
        rows.append(evaluate_against_reference(replace(req, N=N), ref))
        if rows[0].reference is None:
            at = f"{FORMULAS[req.formula].param} = {req.s_or_q}"
            raise DomainError(f"{req.formula.value} has no reference value at {at}")
    return rows


def fit_convergence_exponent(rows: Sequence[Evaluation]) -> Optional[float]:
    """Least-squares slope of log(abs_error) against log(N)."""
    errs = [(r.request.N, float(r.abs_error)) for r in rows]
    pts = [(math.log(N), math.log(e)) for N, e in errs if e > 0]
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
