"""Precision management and reference constants.

Two numeric backplanes are provided and selected through a
:class:`PrecisionContext`:

* ``FAST`` -- native IEEE doubles, for large term budgets (N up to 1e6).
  The requested digit count is not honoured.  The gamma-ratio series run
  float loops that add their own terms by Neumaier's step
  (``ehz.zeta_series``): every operation rounds to a double, and a series'
  relative rounding error grows with N, about as sqrt(N) 2^-52 (40 to 400
  times 2^-52 for those series at N = 1e6).  Every other series runs the
  integer loop of HIGH below, sized for :data:`_FAST_SEED_DIGITS` digits,
  and returns the double nearest its integer sum.
* ``HIGH`` -- the requested digits.  Every series loop of
  ``ehz.zeta_series`` and the zeta(s, x) engine below sum integers at a
  scale 2^P, with a stated loss of E units of 2^-P, and round the integer
  sum once into an mpf; mpf arithmetic is left to the boundary (the
  constants a sum is scaled by, the powers (k+x)^-s of an s that is not an
  integer or a half-integer).

mpmath keeps its working precision in global state, so every mpf operation
runs inside :func:`working_precision`, which holds a re-entrant lock while
the precision is altered; outside this module it is entered only through
:meth:`PrecisionContext.scope`.  All operations are otherwise pure
functions of immutable inputs and are safe to call from multiple threads.
The constants and the Bernoulli table are ``functools.cache`` entries, each
a pure function of its key: two threads may build one at once, and the
cache keeps one of the equal values.

The reference values zeta(s, x) and zeta(m) (Euler--Maclaurin with exact
Bernoulli numbers) are sums of integers at scale 2^P, each a floor losing
under one unit of 2^-P, rounded once to an mpf; P keeps 32 bits beyond the
value's digits (:data:`_GUARD_BITS`).  They keep their own engine, as
``mpmath.zeta`` is slower and loses relative accuracy at large x.  pi, gamma,
Catalan's G, log 2 and Li_s(y) are only targets and scale factors of the
series under study, so they are mpmath's values at 5 digits more, rounded
once.  The tests check them against 50-digit literals, ``mpmath.zeta`` and
closed forms in pi, log 2 and zeta(3).  Summation order is ascending index
everywhere; repeated calls with equal arguments return bit-identical values.
"""

from __future__ import annotations

import enum
import functools
import math
import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Tuple, Union

import mpmath
from mpmath import mpf

__all__ = [
    "Mode",
    "NumericError",
    "DomainError",
    "PrecisionContext",
    "Real",
    "SeriesResult",
    "bernoulli_even",
    "tangent_numbers",
    "hurwitz_zeta_em",
    "const_zeta",
    "const_gamma",
    "const_pi",
    "const_catalan",
    "const_log2",
    "polylog",
    "CONSTANT_LITERALS",
    "MAX_CONSTANT_DIGITS",
]

Real = Union[float, mpmath.mpf]

#: Largest decimal-digit request honoured by the constant evaluators.
MAX_CONSTANT_DIGITS = 300

_GUARD_DIGITS = 10

#: 50-digit reference literals.  Every constant below, from the zeta(s, x)
#: engine or from mpmath, must agree with these to min(digits, 50) - 2
#: digits; the test suite enforces it.
CONSTANT_LITERALS = {
    "gamma": "0.5772156649015328606065120900824024310421593359399236",
    "pi": "3.141592653589793238462643383279502884197169399375106",
    "catalan": "0.9159655941772190150546035149323841107741493742816721",
    "log2": "0.6931471805599453094172321214581765680755001343602553",
    "zeta2": "1.644934066848226436472415166646025189218949901206798",
    "zeta3": "1.202056903159594285399738161511449990764986292340499",
    "zeta4": "1.082323233711138191516003696541167902774750951918727",
    "zeta5": "1.036927755143369926331365486457034168057080919501913",
    "zeta6": "1.017343061984449139714517929790920527901817490032854",
    "zeta7": "1.008349277381922826839797549849796759599863560565239",
    "zeta8": "1.00407735619794433937868523850865246525896079064985",
    "zeta9": "1.002008392826082214417852769232412060485605851394889",
    "zeta10": "1.000994575127818085337145958900319017006019531564478",
}


class Mode(enum.Enum):
    FAST = "FAST"
    HIGH = "HIGH"


class NumericError(ArithmeticError):
    """A computation produced or encountered a non-finite value."""


class DomainError(ValueError):
    """Arguments lie outside the mathematical domain of an operation."""


_MP_LOCK = threading.RLock()


@contextmanager
def working_precision(dps: int) -> Iterator[None]:
    """Hold the mpmath global precision at ``dps`` decimal digits.

    Serialises HIGH-mode work across threads; mpmath's precision is process
    global, so unguarded concurrent changes would corrupt results.
    """
    with _MP_LOCK:
        saved = mpmath.mp.dps
        mpmath.mp.dps = dps
        try:
            yield
        finally:
            mpmath.mp.dps = saved


@dataclass(frozen=True)
class PrecisionContext:
    """Immutable precision request: decimal digits plus backplane mode.

    ``digits`` must be >= 15.  FAST mode ignores ``digits``: the gamma-ratio
    series round every operation to a double, and their relative error grows
    with the term count N, about as sqrt(N) times 2^-52; the other series
    return the double nearest an integer sum (see the module docstring).
    """

    digits: int = 30
    mode: Mode = Mode.HIGH

    def __post_init__(self) -> None:
        if not isinstance(self.digits, int) or self.digits < 15:
            raise ValueError("digits must be an integer >= 15")
        if not isinstance(self.mode, Mode):
            raise ValueError("mode must be a Mode")

    @property
    def dps(self) -> int:
        """Internal mpmath working precision (guard digits included)."""
        return self.digits + _GUARD_DIGITS

    def scope(self):
        """The precision scope for this context's arithmetic.

        ``with ctx.scope():`` holds :func:`working_precision` at ``dps`` in
        HIGH mode and does nothing in FAST mode, so one block of code serves
        both backplanes.
        """
        if self.mode is Mode.HIGH:
            return working_precision(self.dps)
        return nullcontext()

    def real(self, value) -> Real:
        """Round an exact or textual quantity into this context's float type."""
        if self.mode is Mode.FAST:
            if isinstance(value, float):
                return value
            if isinstance(value, (int, Fraction)):
                return float(value)
            return float(mpf(value))
        with working_precision(self.dps):
            if isinstance(value, Fraction):
                return mpmath.fdiv(value.numerator, value.denominator)  # rounded once
            return mpf(value)

    def ln(self, value) -> Real:
        if self.mode is Mode.FAST:
            return math.log(value)
        with working_precision(self.dps):
            return mpmath.ln(self.real(value))


@dataclass(frozen=True)
class SeriesResult:
    """Outcome of a truncated series evaluation: the partial sum in the
    context's type, and a surrogate for the magnitude of the discarded
    remainder, calibrated on the last term: finite and non-negative, but not
    a bound.  The term budget and the mode are the request's.
    """

    value: Real
    tail_estimate: Real

    def __post_init__(self) -> None:
        if not (float(self.tail_estimate) >= 0.0 and math.isfinite(float(self.tail_estimate))):
            raise NumericError("tail_estimate must be finite and non-negative")


# ----------------------------------------------------------------------
# Exact Bernoulli numbers via the tangent-number triangle.
# ----------------------------------------------------------------------

@functools.cache
def tangent_numbers() -> Tuple[int, ...]:
    """The tangent numbers T_1, T_2, T_3, ... = 1, 2, 16, ... to T_{_EM_JMAX},
    exact, by the Knuth--Buckholtz in-place triangle (R. P. Brent and D.
    Harvey, "Fast computation of Bernoulli, tangent and secant numbers",
    2013): from t[i] = i!, pass k = 1, 2, ... sets t[i] = (i-k) t[i-1] +
    (i-k+2) t[i] for i >= k, which leaves t[i] = T_{i+1}."""
    t = [math.factorial(i) for i in range(_EM_JMAX)]
    for k in range(1, _EM_JMAX):
        for i in range(k, _EM_JMAX):
            t[i] = (i - k) * t[i - 1] + (i - k + 2) * t[i]
    return tuple(t)


@functools.cache
def bernoulli_even() -> Tuple[Fraction, ...]:
    """Exact B_2, B_4, ..., B_{2 _EM_JMAX}, every correction the zeta(s, x)
    engine may add, by B_{2n} = (-1)^(n-1) 2n T_n / (4^n (4^n - 1))."""
    return tuple(
        Fraction((-1) ** (n - 1) * 2 * n * T, 4**n * (4**n - 1))
        for n, T in enumerate(tangent_numbers(), start=1)
    )


# ----------------------------------------------------------------------
# Reference values in integers at scale 2^P (reference oracles only; the
# series under study are summed term by term elsewhere).
# ----------------------------------------------------------------------

#: Bits kept beyond a value's digits: the zeta(s, x) engine below loses under
#: M + J + 4 < 2^14 units of 2^-P at up to 300 digits (M terms, J Bernoulli
#: corrections), under 2^-12 of the last bit of the mpf it is rounded to.
_GUARD_BITS = 32

#: Bernoulli corrections the zeta(s, x) engine may add before M doubles.
_EM_JMAX = 120


def _scale_bits(dps: int) -> int:
    """P for a value of order 1 wanted at ``dps`` digits."""
    return math.ceil(dps * math.log2(10)) + _GUARD_BITS


def _unfixed(v: int, P: int, dps: int):
    """v 2^-P as an mpf at ``dps`` digits: the engines' one rounding."""
    with working_precision(dps):
        return mpmath.ldexp(mpf(v), -P)


def _inv_powers(s: Fraction, x: Fraction, ks, P: int) -> list:
    """[floor(2^P (k+x)^-s) for k in ks], ks ascending: the only code that
    knows whether s is an integer.  Integer s is exact, and skips each k
    whose floor is 0: (d k + p)^s >= 2^((bitlen(d k + p) - 1) s) exceeds
    d^s 2^P when that exponent reaches bitlen(d^s 2^P).  Half-integer s is
    exact too, the integer square root of floor(2^(2P) (k+x)^-2s).  Other s
    take the mpf power under one precision scope, at P + 30 bits and at 20
    bits more than the bits of the largest 2^P (k+x)^-s when that exceeds
    2^(P+10), so each is within 2^-10 of a unit and its floor loses under
    1 + 2^-10 units."""
    p, d = x.numerator, x.denominator
    if s.denominator == 1:
        a = s.numerator
        top = d**a << P
        cut = top.bit_length()
        bases = (d * k + p for k in ks)
        return [top // b**a if (b.bit_length() - 1) * a < cut else 0 for b in bases]
    if s.denominator == 2:  # floor(sqrt(floor(X))) = floor(sqrt(X))
        a = s.numerator
        if a > 0:
            top = d**a << 2 * P
            return [math.isqrt(top // (d * k + p) ** a) for k in ks]
        return [math.isqrt(((d * k + p) ** -a << 2 * P) // d**-a) for k in ks]
    lg = max(-float(s) * (math.log2(d * k + p) - math.log2(d)) for k in (ks[0], ks[-1]))
    bits = P + 30 + max(0, math.ceil(lg) - 9)
    with working_precision(math.ceil(bits * math.log10(2)) + 1):
        minus_s = -mpf(s.numerator) / s.denominator
        return [int(mpmath.floor(mpmath.ldexp((mpf(d * k + p) / d) ** minus_s, P))) for k in ks]


def hurwitz_zeta_em(s, x, ctx: PrecisionContext) -> Real:
    """zeta(s, x) for real s > 1, x > 0 by Euler--Maclaurin tail completion.

    Direct sum to M terms, then the integral, half-term and Bernoulli
    corrections; M doubles until a correction is below 10^-(digits+4) of the
    sum, skipping each M that :func:`_em_can_reach` rules out.  Each attempt
    (:func:`_em_attempt`) sums integers at scale 2^P, s and x exact
    rationals, and rounds once to an mpf at ctx.dps + 5 digits.  The
    remainder is a small multiple of the last correction (F. Johansson,
    Numer. Algorithms 69, 2015); the tests hold the value to 10^-(digits+3)
    relative against ``mpmath.zeta``.
    """
    if float(s) <= 1.0:
        raise DomainError("hurwitz zeta reference requires s > 1")
    if float(x) <= 0.0:
        raise DomainError("hurwitz zeta reference requires x > 0")
    s, x = Fraction(s), Fraction(x)
    M = max(20, int(0.8 * (ctx.dps + 5)) + 4)
    for _ in range(6):
        if _em_can_reach(float(s), float(x), M, ctx.digits + 4):
            value = _em_attempt(s, x, M, ctx.digits + 4, ctx.dps + 5)
            if value is not None:
                return value if ctx.mode is Mode.HIGH else float(value)
        M *= 2
    raise NumericError("Euler-Maclaurin tail failed to converge")


def _em_can_reach(s: float, x: float, M: int, digits: int) -> bool:
    """False when _em_attempt at M must fail: correction j <= _EM_JMAX is at
    least 2 (s)_{2j-1} / (2 pi (M+x))^(2j) (M+x)^(1-s), never below 10^-digits
    (x^-s + x^(1-s) / (s-1)) >= 10^-digits zeta(s, x)."""
    lb = math.log(M + x)
    # log(10^-digits zeta bound) + 1 of slack, less the correction's j-free terms
    target = -digits * math.log(10) - s * math.log(x) + math.log1p(x / (s - 1)) + 1.0
    target += math.lgamma(s) - math.log(2) + (s - 1) * lb
    c = math.log(2 * math.pi) + lb
    return any(math.lgamma(s + 2 * j - 1) - 2 * j * c < target for j in range(1, _EM_JMAX + 1))


def _em_attempt(s: Fraction, x: Fraction, M: int, digits: int, dps: int):
    """One Euler--Maclaurin sum for zeta(s, x), or None once the corrections
    grow (M must rise).  With x = p/d and W = floor(2^(P+g) (M+x)^-s):

    sum_{k<M} floor(2^P (k+x)^-s) + floor(W (M+x) / ((s-1) 2^g))
    + floor(W / 2^(g+1)) + sum_j floor(W c_j / 2^g), where the exact
    c_j = B_2j (s)_{2j-1} d^(2j-1) / ((2j)! (dM+p)^(2j-1)) run until one
    term is below 10^-digits of the sum.  Each floor loses under a unit of
    2^-P (1 + 2^-10 for a non-integer power) and W's floor under 1/2 in
    all, as 2^g > 4 (M+x) / (s-1).  P adds the bits of 1/zeta_low,
    zeta_low = max(x^-s, x^(1-s) / (s-1)) <= zeta(s, x), to :func:`_scale_bits`.
    """
    p, d, a, b = x.numerator, x.denominator, s.numerator, s.denominator
    lx, sf = math.log2(p) - math.log2(d), a / b
    P = _scale_bits(dps) + max(0, math.ceil(min(sf * lx, (sf - 1) * lx + math.log2(sf - 1))))
    base = d * M + p  # M + x = base / d
    g = (base * b // (d * (a - b))).bit_length() + 2
    W = _inv_powers(s, x, [M], P + g)[0]
    total = sum(_inv_powers(s, x, range(M), P)) + (W >> (g + 1))
    total += W * base * b // (d * (a - b) << g)
    num, den, ten, prev = a * d, 2 * b * base, 10**digits, None  # num / den = c_j / B_2j
    for j, B in enumerate(bernoulli_even(), start=1):
        t = W * B.numerator * num // (B.denominator * den << g)
        total += t
        if abs(t) * ten < total:
            return _unfixed(total, P, dps)
        if prev is not None and abs(t) > prev:
            return None  # divergent regime: raise M and retry
        prev = abs(t)
        num *= (a + (2 * j - 1) * b) * (a + 2 * j * b) * d * d
        den *= (2 * j + 1) * (2 * j + 2) * b * b * base * base
    return None


# ----------------------------------------------------------------------
# Public constant operations, cached per (name, digits).
# ----------------------------------------------------------------------

#: digits used for the FAST-mode double seed of every constant, and the
#: digits FAST's integer series loops are sized for.
_FAST_SEED_DIGITS = 25


@functools.cache
def _zeta_value(m: int, dps: int):
    return hurwitz_zeta_em(m, 1, PrecisionContext(dps))


@functools.cache
def _mpmath_value(name: str, dps: int):
    """mpmath's constant ``name`` at dps + 5 digits, rounded once: a
    reference independent of every series of ``ehz.zeta_series``."""
    with working_precision(dps + 5):
        return +getattr(mpmath, name)


def _const(build, key, ctx: PrecisionContext) -> Real:
    if ctx.mode is Mode.FAST:
        return float(build(key, _FAST_SEED_DIGITS))
    return build(key, ctx.dps)


def const_zeta(m: int, ctx: PrecisionContext) -> Real:
    """zeta(m) for integer m >= 2, accurate to 10^-(digits-2)."""
    if not isinstance(m, int) or m < 2:
        raise DomainError("const_zeta requires an integer m >= 2")
    return _const(_zeta_value, m, ctx)


def const_gamma(ctx: PrecisionContext) -> Real:
    """Euler's constant, the limit of H_n - log n."""
    return _const(_mpmath_value, "euler", ctx)


def const_pi(ctx: PrecisionContext) -> Real:
    return _const(_mpmath_value, "pi", ctx)


def const_catalan(ctx: PrecisionContext) -> Real:
    return _const(_mpmath_value, "catalan", ctx)


def const_log2(ctx: PrecisionContext) -> Real:
    return _const(_mpmath_value, "ln2", ctx)


def polylog(s: int, y: Fraction, ctx: PrecisionContext) -> Real:
    """Li_s(y) for an integer s >= 1 and rational |y| < 1, the polylog
    identities' target: mpmath's value at ctx.dps + 5 digits, rounded once into ctx."""
    with working_precision(ctx.dps + 5):
        value = mpmath.polylog(s, mpmath.fdiv(y.numerator, y.denominator))
    return ctx.real(value)


def clear_caches() -> None:
    """Empty the constant and Bernoulli caches (a test hook: no result depends on them)."""
    for cached in (_zeta_value, _mpmath_value, tangent_numbers, bernoulli_even):
        cached.cache_clear()
