"""Precision management, deterministic summation and reference constants.

Two numeric backplanes are provided and selected through a
:class:`PrecisionContext`:

* ``FAST`` -- native IEEE doubles with Neumaier compensated summation.
  Effective precision is the platform double width regardless of the
  requested digit count; intended for large term budgets (N up to 1e6).
* ``HIGH`` -- mpmath at the requested digits, for tight tolerances at small
  N.  Sums are exact and rounded once; the gamma-ratio series sum
  fixed-point integers, not mpfs.

The FAST kernels of the hot series (the gamma-ratio series, the
central-binomial series, the digamma sum) add their own terms by Neumaier's
step, written out in each loop (``ehz.zeta_series``).  Every other series
loop -- the HIGH loops, the polylogarithm sums, Euler--Maclaurin's head
and the arctangent series behind pi -- is a generator of terms summed by
:func:`compensated_sum`: Neumaier's step over doubles from a float zero,
exact adds rounded once from an mpf zero.

mpmath keeps its working precision in global state, so every HIGH-mode
computation in this package runs inside :func:`working_precision`, which
holds a re-entrant lock while the precision is altered.  All operations are
otherwise pure functions of immutable inputs and are safe to call from
multiple threads.

Reference constants (pi, gamma, Catalan's G, zeta(m)) are computed from
scratch -- Machin's arctangent formula for pi, Euler--Maclaurin tail
completion with exact Bernoulli numbers for zeta and gamma, and a
binomial-accelerated series for G -- and are cross-checked against 50-digit
stored literals by the test suite.  Summation order is ascending index
everywhere; repeated calls with equal arguments return bit-identical
values.
"""

from __future__ import annotations

import enum
import math
import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Tuple, Union

import mpmath
from mpmath import mpf

__all__ = [
    "Mode",
    "NumericError",
    "DomainError",
    "PrecisionContext",
    "Real",
    "SeriesResult",
    "compensated_sum",
    "bernoulli_even",
    "tangent_numbers",
    "hurwitz_zeta_em",
    "const_zeta",
    "const_gamma",
    "const_pi",
    "const_catalan",
    "const_log2",
    "CONSTANT_LITERALS",
    "MAX_CONSTANT_DIGITS",
]

Real = Union[float, mpmath.mpf]

#: Largest decimal-digit request honoured by the constant evaluators.
MAX_CONSTANT_DIGITS = 300

_GUARD_DIGITS = 10

#: 50-digit reference literals.  Every constant algorithm below must agree
#: with these to min(digits, 50) - 2 digits; the test suite enforces it.
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

    ``digits`` must be >= 15.  In FAST mode the effective precision is the
    platform double width regardless of ``digits``.
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

    def zero(self) -> Real:
        return 0.0 if self.mode is Mode.FAST else self.real(0)

    def ln(self, value) -> Real:
        if self.mode is Mode.FAST:
            return math.log(value)
        with working_precision(self.dps):
            return mpmath.ln(self.real(value))


@dataclass(frozen=True)
class SeriesResult:
    """Outcome of a truncated series evaluation.

    ``tail_estimate`` is an analytic surrogate for the magnitude of the
    discarded remainder, always finite and non-negative; ``terms_used``
    equals the term budget requested by the caller.
    """

    value: Real
    terms_used: int
    tail_estimate: Real
    mode: Mode

    def __post_init__(self) -> None:
        if self.terms_used < 0:
            raise ValueError("terms_used must be non-negative")
        if not (float(self.tail_estimate) >= 0.0 and math.isfinite(float(self.tail_estimate))):
            raise NumericError("tail_estimate must be finite and non-negative")


def compensated_sum(terms: Iterable, zero=0.0) -> Tuple[Real, Real]:
    """(sum, last term) of ``terms`` in order; ``zero`` when there are none.

    From a float zero the sum is Neumaier's compensated sum (Kahan's
    variant); from an mpf zero every add is exact (``mpmath.fadd(...,
    exact=True)``) and the sum is rounded once at the caller's working
    precision.  The step is inlined in one loop, and equal term sequences
    give bit-identical sums.
    """
    s = last = zero
    if isinstance(zero, mpf):
        for last in terms:
            s = mpmath.fadd(s, last, exact=True)
        return +s, last
    c = zero * 0
    for last in terms:
        t = s + last
        if abs(s) >= abs(last):
            c += (s - t) + last
        else:
            c += (last - t) + s
        s = t
    return s + c, last


# ----------------------------------------------------------------------
# Exact Bernoulli numbers via the tangent-number triangle.
# ----------------------------------------------------------------------

_BERNOULLI_CACHE: list = []
_BERNOULLI_LOCK = threading.Lock()


def tangent_numbers(m: int) -> list:
    """First ``m`` tangent numbers T_1..T_m (exact integers).

    Computed with the Knuth--Buckholtz in-place triangle; T_1 = 1, T_2 = 2,
    T_3 = 16, ...
    """
    if m < 1:
        return []
    t = [0] * (m + 1)
    t[1] = 1
    for k in range(2, m + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, m + 1):
        for j in range(k, m + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:]


def bernoulli_even(jmax: int) -> Sequence[Fraction]:
    """Exact B_2, B_4, ..., B_{2 jmax} from the tangent numbers.

    Uses B_{2n} = (-1)^(n-1) * 2n * T_n / (4^n (4^n - 1)).
    """
    with _BERNOULLI_LOCK:
        if len(_BERNOULLI_CACHE) < jmax:
            ts = tangent_numbers(jmax)
            fresh = []
            for n in range(1, jmax + 1):
                p = 4**n
                b = Fraction((-1) ** (n - 1) * 2 * n * ts[n - 1], p * (p - 1))
                fresh.append(b)
            _BERNOULLI_CACHE[:] = fresh
        return list(_BERNOULLI_CACHE[:jmax])


# ----------------------------------------------------------------------
# Euler--Maclaurin engines (reference oracles only; the series under study
# are summed term by term elsewhere).
# ----------------------------------------------------------------------


def hurwitz_zeta_em(s, x, ctx: PrecisionContext) -> Real:
    """zeta(s, x) for real s > 1, x > 0 by Euler--Maclaurin tail completion.

    Direct sum to M terms, then the integral, half-term and Bernoulli
    corrections; M doubles until a correction is below 10^-(digits+4) of the
    sum, skipping each M that :func:`_em_can_reach` rules out.
    """
    sf = float(s)
    xf = float(x)
    if sf <= 1.0:
        raise DomainError("hurwitz zeta reference requires s > 1")
    if xf <= 0.0:
        raise DomainError("hurwitz zeta reference requires x > 0")
    dps = ctx.dps + 5
    with working_precision(dps):
        s_mp = mpf(s) if not isinstance(s, Fraction) else mpf(s.numerator) / s.denominator
        x_mp = mpf(x) if not isinstance(x, Fraction) else mpf(x.numerator) / x.denominator
        eps = mpf(10) ** (-(ctx.digits + 4))
        M = max(20, int(0.8 * dps) + 4)
        for _ in range(6):
            reachable = _em_can_reach(sf, xf, M, ctx.digits + 4)
            value = _em_once(s_mp, x_mp, M, eps) if reachable else None
            if value is not None:
                break
            M *= 2
        else:
            raise NumericError("Euler-Maclaurin tail failed to converge")
    return value if ctx.mode is Mode.HIGH else float(value)


def _em_can_reach(s: float, x: float, M: int, digits: int, jmax: int = 120) -> bool:
    """False when _em_once at M must fail: correction j <= jmax is at least
    2 (s)_{2j-1} / (2 pi (M+x))^(2j) (M+x)^(1-s), never below 10^-digits
    (x^-s + x^(1-s) / (s-1)) >= 10^-digits zeta(s, x)."""
    lb = math.log(M + x)
    # log(10^-digits zeta bound) + 1 of slack, less the correction's j-free terms
    target = -digits * math.log(10) - s * math.log(x) + math.log1p(x / (s - 1)) + 1.0
    target += math.lgamma(s) - math.log(2) + (s - 1) * lb
    c = math.log(2 * math.pi) + lb
    return any(math.lgamma(s + 2 * j - 1) - 2 * j * c < target for j in range(1, jmax + 1))


def _em_once(s_mp, x_mp, M: int, eps):
    head, _ = compensated_sum(((k + x_mp) ** (-s_mp) for k in range(M)), mpf(0))
    base = M + x_mp
    total = head + base ** (1 - s_mp) / (s_mp - 1) + base ** (-s_mp) / 2
    # Bernoulli corrections: B_2j/(2j)! * s(s+1)...(s+2j-2) * base^(-s-2j+1)
    jmax = 120
    bs = bernoulli_even(jmax)
    poch = s_mp  # (s)_{2j-1} built incrementally
    power = base ** (-s_mp - 1)
    fact = mpf(2)  # (2j)!
    inv_b2 = 1 / (base * base)
    prev = None
    for j in range(1, jmax + 1):
        b = mpf(bs[j - 1].numerator) / bs[j - 1].denominator
        term = b / fact * poch * power
        total += term
        at = abs(term)
        if at < eps * abs(total):
            return total
        if prev is not None and at > prev:
            return None  # divergent regime: raise M and retry
        prev = at
        poch *= (s_mp + 2 * j - 1) * (s_mp + 2 * j)
        power *= inv_b2
        fact *= (2 * j + 1) * (2 * j + 2)
    return None


def _gamma_em(dps: int):
    """Euler's constant at ``dps`` digits: H_M - ln M - 1/(2M) + EM tail."""
    with working_precision(dps + 5):
        M = max(30, int(0.45 * dps) + 10)
        h = Fraction(0)
        for k in range(1, M + 1):
            h += Fraction(1, k)
        g = mpf(h.numerator) / h.denominator - mpmath.ln(M) - mpf(1) / (2 * M)
        eps = mpf(10) ** (-(dps + 3))
        m2 = mpf(M) ** 2
        power = m2
        prev = None
        for j, b in enumerate(bernoulli_even(240), start=1):
            term = (mpf(b.numerator) / b.denominator) / (2 * j) / power
            g += term
            at = abs(term)
            if at < eps:
                return +g
            if prev is not None and at > prev:
                break
            prev = at
            power *= m2
        raise NumericError("gamma tail did not reach target accuracy; raise M")


def _atan_recip(q: int):
    """arctan(1/q) by its alternating Taylor series (exact-integer powers)."""
    q2 = q * q
    eps = mpf(10) ** (-(mpmath.mp.dps + 2))

    def terms():
        term, k = mpf(1) / q, 0
        while abs(term) > eps:
            yield term if k % 2 == 0 else -term
            k += 1
            term = term / q2 * (2 * k - 1) / (2 * k + 1)

    return compensated_sum(terms(), mpf(0))[0]


def _pi_machin(dps: int):
    with working_precision(dps + 5):
        return +(16 * _atan_recip(5) - 4 * _atan_recip(239))


def _catalan_series(dps: int):
    """G = 3/8 * sum 1/((2n+1)^2 C(2n,n)) + pi/8 * ln(2 + sqrt 3).

    The series term decays like 4^-n, so n runs to about 1.7 * dps.
    """
    with working_precision(dps + 5):
        nmax = int(1.8 * dps) + 10
        s = Fraction(0)
        for n in range(nmax):
            s += Fraction(1, (2 * n + 1) ** 2 * math.comb(2 * n, n))
        part = mpf(s.numerator) / s.denominator
        return +(mpf(3) / 8 * part + _pi_machin(dps) / 8 * mpmath.ln(2 + mpmath.sqrt(3)))


# ----------------------------------------------------------------------
# Public constant operations, cached per (name, digits).
# ----------------------------------------------------------------------

_CONST_CACHE: dict = {}
_CONST_LOCK = threading.Lock()

#: digits used for the FAST-mode double seed of every constant.
_FAST_SEED_DIGITS = 25


def _cached(name: str, digits: int, builder):
    key = (name, digits)
    with _CONST_LOCK:
        hit = _CONST_CACHE.get(key)
    if hit is not None:
        return hit
    value = builder(digits)
    with _CONST_LOCK:
        _CONST_CACHE.setdefault(key, value)
        return _CONST_CACHE[key]


def _const(name: str, ctx: PrecisionContext, builder) -> Real:
    if ctx.mode is Mode.FAST:
        return float(_cached(name, _FAST_SEED_DIGITS, builder))
    return _cached(name, ctx.dps, builder)


def const_zeta(m: int, ctx: PrecisionContext) -> Real:
    """zeta(m) for integer m >= 2, accurate to 10^-(digits-2)."""
    if not isinstance(m, int) or m < 2:
        raise DomainError("const_zeta requires an integer m >= 2")
    return _const(
        f"zeta{m}",
        ctx,
        lambda dps: hurwitz_zeta_em(m, 1, PrecisionContext(max(dps, 15), Mode.HIGH)),
    )


def const_gamma(ctx: PrecisionContext) -> Real:
    """Euler's constant, the limit of H_n - log n."""
    return _const("gamma", ctx, _gamma_em)


def const_pi(ctx: PrecisionContext) -> Real:
    return _const("pi", ctx, _pi_machin)


def const_catalan(ctx: PrecisionContext) -> Real:
    return _const("catalan", ctx, _catalan_series)


def const_log2(ctx: PrecisionContext) -> Real:
    def build(dps):
        with working_precision(dps + 5):
            return +mpmath.ln(2)

    return _const("log2", ctx, build)


def clear_caches() -> None:
    """Drop constant caches (test hook; results are unchanged by caching)."""
    with _CONST_LOCK:
        _CONST_CACHE.clear()
    with _BERNOULLI_LOCK:
        _BERNOULLI_CACHE.clear()
