import functools
import math
from fractions import Fraction

import mpmath
import pytest

from ehz.numerics import Mode, PrecisionContext, working_precision


@pytest.fixture(scope="session")
def high30() -> PrecisionContext:
    return PrecisionContext(30, Mode.HIGH)


@pytest.fixture(scope="session")
def fast30() -> PrecisionContext:
    return PrecisionContext(30, Mode.FAST)


def mp_literal(text: str, dps: int = 60) -> mpmath.mpf:
    """Parse a decimal literal at high precision (not the global default)."""
    with working_precision(dps):
        return mpmath.mpf(text)


def mp_abs_diff(a, b, dps: int = 60) -> float:
    with working_precision(dps):
        return float(abs(mpmath.mpf(a) - mpmath.mpf(b)))


def frac(s: str) -> Fraction:
    return Fraction(s)


class NeumaierSum:
    """ORACLE: a streaming compensated sum, one ``add`` call per term.  From
    a float zero, Neumaier's step with its abs() compare; from an mpf zero,
    exact adds whose :attr:`total` is rounded once.  The package's summing
    loops are held to it bit for bit."""

    __slots__ = ("_sum", "_comp")

    def __new__(cls, zero=0.0):
        if cls is NeumaierSum and isinstance(zero, mpmath.mpf):
            cls = _ExactSum
        return super().__new__(cls)

    def __init__(self, zero=0.0):
        self._sum = zero
        self._comp = zero * 0

    def add(self, term) -> None:
        t = self._sum + term
        if abs(self._sum) >= abs(term):
            self._comp += (self._sum - t) + term
        else:
            self._comp += (term - t) + self._sum
        self._sum = t

    @property
    def total(self):
        return self._sum + self._comp


class _ExactSum(NeumaierSum):
    """ORACLE: the mpf path of :class:`NeumaierSum`, exact adds rounded once."""

    __slots__ = ()

    def add(self, term) -> None:
        self._sum = mpmath.fadd(self._sum, term, exact=True)

    @property
    def total(self):
        return +self._sum


#: the kinds :func:`fixed_point_loop` knows
FIXED_POINT_KINDS = ("euler-hurwitz", "stirling-route", "eta", "mixed", "central")


def fixed_point_loop(kind, m, R, e, p, d, P, N):
    """ORACLE: the generic integer loop of ``zeta_series._fixed_point_series``
    (one branch per kind inside the loop), which the HIGH kernels of
    ``zeta_series._kernel`` replaced.  Takes and returns what they do:
    (sum 2^P, last term, e, R_N 2^(P+e), a[1] 2^P, H_N 2^P)."""
    assert kind in FIXED_POINT_KINDS
    a = [1 << P] + [0] * (m - 1)
    w = m if kind == "euler-hurwitz" else 1
    total = t = H = 0
    for n in range(1, N + 1):
        k = d * (n - 1)
        if n > 1:
            R = R * k // (k + p)
            shift = max(0, P + 1 - R.bit_length())
            R, e = R << shift, e + shift
        if kind != "stirling-route":
            for j in range(1, m):
                a[j] += a[j - 1] * d // (k + p)
        t = R * a[-1]
        if kind == "mixed":
            t = (t >> P) * H
            H += (1 << P) // n
        if kind == "eta":
            total += t >> (P + e + n)
        elif kind == "central":
            total += (t >> (P + e)) * d // (k + p)
        else:
            total += (t >> (P + e)) // (w * n)
        if kind == "stirling-route":
            for j in range(m - 1, 0, -1):
                a[j] += a[j - 1] // n
    return total, t, e, R, a[1] if m > 1 else 0, H


def fixed_point_series(kind, m, x, N, ctx):
    """ORACLE: ``zeta_series._fixed_point_series`` around :func:`fixed_point_loop`
    (same P, seed and final rounding).  Returns (sum, last term, h, R_N) as
    ``_gamma_ratio_series`` does."""
    from ehz.zeta_series import _to_float

    p, d = x.numerator, x.denominator
    L = 1 / x + 1 + N.bit_length()
    E = 2 * N * m * (1 + 1 / x) * L ** (m - 1)
    if kind == "stirling-route":
        low = 1 / (m * math.prod(k + x for k in range(m)))
    elif kind == "mixed":
        low, E = x**-m / (2 * (1 + x)), E * (m + 2) * L / m
    elif kind == "central":
        low, E = x ** -(m + 1), E * max(1, 1 / x)
    else:
        low = x**-m / (m if kind == "euler-hurwitz" else 2)
    ratio = E / low
    P = math.ceil(ctx.dps * math.log2(10)) + ratio.numerator.bit_length() + 4
    P -= ratio.denominator.bit_length()
    e = max(0, p.bit_length() - d.bit_length() + 1)
    total, t, e, R, a1, H = fixed_point_loop(kind, m, (d << (P + e)) // p, e, p, d, P, N)
    with ctx.scope():
        value = mpmath.ldexp(mpmath.mpf(total), -P)
    if kind == "central":  # term N is divided by N - 1 + x
        last = _to_float(t * d, (1 << (2 * P + e)) * (d * (N - 1) + p))
    else:
        w = m if kind == "euler-hurwitz" else 1
        last = _to_float(t, (1 << (2 * P + e)) * ((1 << N) if kind == "eta" else w * N))
    return value, last, _to_float(max(a1, H), 1 << P), _to_float(R, 1 << (P + e))


@functools.cache
def bernoulli_even_mpmath(jmax: int) -> list:
    """ORACLE: B_2, ..., B_{2 jmax} from ``mpmath.bernfrac``, independent of
    the tangent-number table of ``numerics.bernoulli_even``."""
    return [Fraction(*mpmath.bernfrac(2 * j)) for j in range(1, jmax + 1)]


def polylog_series_mpf(s: int, y: Fraction, dps: int):
    """ORACLE: Li_s(y) = sum_{k>=1} y^k / k^s for |y| < 1, summed in mpfs at
    ``dps`` digits until the terms drop below 10^-dps of the first, with no
    call to ``mpmath.polylog``."""
    with working_precision(dps):
        y_mp = mpmath.mpf(y.numerator) / y.denominator
        eps = mpmath.mpf(10) ** -dps * abs(y_mp)
        total, power, k = mpmath.mpf(0), y_mp, 1
        while abs(power) > eps:
            total += power / mpmath.mpf(k) ** s
            power *= y_mp
            k += 1
        return +total


def hurwitz_zeta_mpf(s, x, ctx):
    """ORACLE: ``numerics.hurwitz_zeta_em`` as it was summed in mpfs at
    ctx.dps + 5 digits (one rounding per power and per correction), with the
    same M, retry and stopping rule as the integer engine that replaced it,
    and mpmath's Bernoulli numbers in place of the engine's table."""
    from ehz.numerics import _EM_JMAX, _em_can_reach

    dps = ctx.dps + 5
    with working_precision(dps):
        s_mp, x_mp = (mpmath.mpf(v.numerator) / v.denominator for v in (Fraction(s), Fraction(x)))
        eps = mpmath.mpf(10) ** (-(ctx.digits + 4))
        M = max(20, int(0.8 * dps) + 4)
        for _ in range(6):
            if _em_can_reach(float(s), float(x), M, ctx.digits + 4):
                value = _em_once(s_mp, x_mp, M, eps, bernoulli_even_mpmath(_EM_JMAX))
                if value is not None:
                    return value
            M *= 2
    raise ArithmeticError("Euler-Maclaurin tail failed to converge")


def _em_once(s_mp, x_mp, M, eps, bs):
    total = mpmath.mpf(0)
    for k in range(M):
        total = mpmath.fadd(total, (k + x_mp) ** (-s_mp), exact=True)
    base = M + x_mp
    total = +total + base ** (1 - s_mp) / (s_mp - 1) + base ** (-s_mp) / 2
    poch, power, fact = s_mp, base ** (-s_mp - 1), mpmath.mpf(2)
    inv_b2 = 1 / (base * base)
    prev = None
    for j, b in enumerate(bs, start=1):
        term = mpmath.mpf(b.numerator) / b.denominator / fact * poch * power
        total += term
        at = abs(term)
        if at < eps * abs(total):
            return total
        if prev is not None and at > prev:
            return None
        prev = at
        poch *= (s_mp + 2 * j - 1) * (s_mp + 2 * j)
        power *= inv_b2
        fact *= (2 * j + 1) * (2 * j + 2)
    return None
