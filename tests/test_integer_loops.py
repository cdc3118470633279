"""The HIGH series loops that sum integers at scale 2^P, held to the loss
E 2^-P that each states in its docstring, against exact partial sums.

Each loop leaves the integers through ``zs._from_fixed(total, P, ctx)``;
the ``fixed`` fixture records its arguments, so a test reads the integer
sum and its scale as the loop produced them, before any rounding.  Two
assertions per point: the loss is under E units of 2^-P, and P is large
enough that E 2^-P < S_low 10^-dps / 4 (the rule of ``zs._scale``), so a
loop run at fewer bits than its rule asks for fails the second.
"""

import functools
import math
from fractions import Fraction as F

import mpmath
import pytest

from ehz import numerics as nu
from ehz import zeta_series as zs
from ehz.numerics import Mode, PrecisionContext
from ehz.zeta_series import CatalanKind

DIGITS = [30, 60, 300]
BUDGETS = (1, 2, 10, 100, 300)
POLYLOG_IDS = ["E14_3", "E14_4"]  # polylog_identity_lhs's alternating: True, False


@pytest.fixture
def fixed(monkeypatch):
    """The (total, P) of every ``zs._from_fixed`` call, in call order."""
    calls, original = [], zs._from_fixed

    def spy(total, P, ctx):
        calls.append((total, P))
        return original(total, P, ctx)

    monkeypatch.setattr(zs, "_from_fixed", spy)
    return calls


def assert_within(total, P, S, E, low, ctx, signed=False):
    """total 2^-P within E 2^-P of S (below it unless ``signed``), and
    E 2^-P < low 10^-dps / 4."""
    loss = S * 2**P - total
    assert (abs(loss) if signed else loss) >= 0 and abs(loss) < E, (float(loss), E)
    assert 4 * E * 10**ctx.dps < low * 2**P


@pytest.mark.parametrize("digits", DIGITS)
def test_high_ramanujan_series_within_the_stated_bound(digits, fixed):
    # sum b_n / (2n+1), b_n = C(2n,n)^2 / 2^(4n): E = 2 N, S_low = 1; the
    # loop's sum leaves the integers times pi/4 at scale 2^P, at 2^(2P)
    ctx = PrecisionContext(digits, Mode.HIGH)
    with ctx.scope():
        quarter_pi = nu.const_pi(ctx) / 4
    S, b = F(0), F(1)
    for N in range(1, max(BUDGETS) + 1):
        S += b / (2 * N - 1)
        b = b * (2 * N - 1) ** 2 / (4 * N * N)
        if N in BUDGETS:
            zs.catalan_series(CatalanKind.RAMANUJAN_38, N, ctx)
            total, P2 = fixed[-1]
            P = P2 // 2
            Q = mpmath.ldexp(quarter_pi, P)
            assert Q == int(Q)  # pi/4 is exact at scale 2^P
            assert total % int(Q) == 0
            assert_within(total // int(Q), P, S, 2 * N, 1, ctx)


@pytest.mark.parametrize("digits", DIGITS)
@pytest.mark.parametrize("power", [2, 4])
def test_high_digamma_sum_within_the_stated_bound(power, digits, fixed):
    # psi0 A + B at scale 2^(2P) (psi0 exact at 2^P): E = 4 N, S_low = 1
    ctx = PrecisionContext(digits, Mode.HIGH)
    with ctx.scope():
        psi0 = -nu.const_gamma(ctx) - 2 * nu.const_log2(ctx)
    man, exp = psi0.man_exp
    psi0 = -F(man) * F(2) ** exp  # psi0 < 0; man_exp drops the sign
    S, h = F(0), F(0)
    for N in range(1, max(BUDGETS) + 1):
        S += (psi0 + h) / (2 * N - 1) ** power
        h += F(2, 2 * N - 1)
        if N in BUDGETS:
            zs.digamma_half_sum(power, N, ctx)
            total, P2 = fixed[-1]
            P = P2 // 2
            assert_within(F(total, 2**P), P, S, 4 * N, 1, ctx, signed=True)


@functools.lru_cache(maxsize=None)
def polylog_rows_exact(alternating, s, y):
    """{N: the exact partial sum} for N in BUDGETS, by the f_j recurrence
    in Fractions (``test_zeta_series`` holds it to the binomial rows)."""
    sign, out = (-1 if alternating else 1), {}
    f, S = [F(0)] * (s + 1), F(0)
    for n in range(1, max(BUDGETS) + 1):
        f[0] = (1 + sign * y) ** n - 1
        for j in range(1, s + 1):
            f[j] += f[j - 1] / n
        S += f[s] / (n * n if sign < 0 else n * 2**n)
        if n in BUDGETS:
            out[n] = S
    return out


@pytest.mark.parametrize("digits", DIGITS)
@pytest.mark.parametrize("s, y", [(1, F(1, 2)), (3, F(1, 3))], ids=["s1-y1/2", "s3-y1/3"])
@pytest.mark.parametrize("alternating", [True, False], ids=POLYLOG_IDS)
def test_high_polylog_rows_within_the_stated_bound(alternating, s, y, digits, fixed):
    # E14_3: S' <= S, E = N + (s+1) L, S_low = y; E14_4: E = N + (4s+5) L,
    # S_low = y/2; L = 1 + bitlen(N)
    ctx = PrecisionContext(digits, Mode.HIGH)
    for N, S in polylog_rows_exact(alternating, s, y).items():
        zs.polylog_identity_lhs(alternating, s, y, N, ctx)
        total, P = fixed[-1]
        L = 1 + N.bit_length()
        E = N + ((s + 1) if alternating else (4 * s + 5)) * L
        assert_within(total, P, S, E, y if alternating else y / 2, ctx, signed=not alternating)


#: (sum, exponent s_power of phi_k = (k+x)^-s_power, x): eta is alt_hurwitz
#: at s = s_power, hasse is hasse_hurwitz at s = s_power + 1
SWAPPED = [
    ("eta", F(3, 2), F(1, 2)),
    ("eta", F(1, 2), F(7, 4)),
    ("eta", F(2.3), F(1, 4)),
    ("hasse", F(3, 2), F(1, 4)),
    ("hasse", F(2.3), F(1)),
    ("hasse", F(-1, 2), F(7, 4)),
]


@pytest.mark.parametrize("digits", DIGITS)
@pytest.mark.parametrize("which, s_power, x", SWAPPED, ids=lambda v: str(v))
def test_swapped_sums_within_the_stated_bound(which, s_power, x, digits, fixed):
    # E = (1 + 2^-10) sum c_k / |d| + 1 against sum (-1)^k c_k phi_k / d with
    # phi_k from mpmath at many more bits than P; S_low = x^-s / 2 (eta),
    # x^(1-s) / (s-1) (hasse, s > 1) or 1 (hasse, s < 1); and 2^P carries the
    # N bits of row N - 1: 2^(N-1) units stay under 10^-dps / 32
    ctx = PrecisionContext(digits, Mode.HIGH)
    eta = which == "eta"
    divisor = 1 if eta else s_power
    with mpmath.workprec(4 * ctx.dps + 3 * max(BUDGETS) + 128):
        xv = mpmath.mpf(x.numerator) / x.denominator
        sv = mpmath.mpf(s_power.numerator) / s_power.denominator
        phi = [(k + xv) ** -sv for k in range(max(BUDGETS))]
        low = xv**-sv / 2 if eta else (xv**-sv / sv if s_power > 0 else 1)
        for N in BUDGETS:
            if eta:
                zs.alt_hurwitz(s_power, x, N, ctx)
                c, d, _ = zs._eta_weights(N)
            else:
                zs.hasse_hurwitz(s_power + 1, x, N, ctx)
                c, d, _ = zs._hasse_weights(N)
            total, P = fixed[-1]
            d = d * divisor
            S = mpmath.fsum((-1) ** k * c[k] * phi[k] for k in range(N))
            S = S * d.denominator / d.numerator
            E = F(1025, 1024) * sum(c) / abs(d) + 1
            assert abs(S * 2**P - total) * E.denominator < E.numerator, N
            assert 4 * E.numerator * 10**ctx.dps < low * 2**P * E.denominator, N
            assert 2**P >= 16 * 2**N * 10**ctx.dps, N


FAST, HIGH60 = PrecisionContext(30, Mode.FAST), PrecisionContext(60, Mode.HIGH)


def fast_against_high60(call, stated_loss, fixed):
    """|FAST - HIGH at 60 digits| <= FAST's stated loss plus half an ulp,
    and HIGH's own stated loss, 10^-60 of it at most."""
    fast = call(FAST)
    E_fast = stated_loss(fixed[-1][1], FAST)
    high = call(HIGH60)
    E_high = stated_loss(fixed[-1][1], HIGH60)
    assert isinstance(fast, float)
    with mpmath.workprec(600):
        gap = abs(mpmath.mpf(fast) - high)
        allowed = E_fast + E_high + mpmath.mpf(math.ulp(fast)) / 2
        assert gap <= allowed, (fast, high)


@pytest.mark.parametrize("N", [1, 10, 100, 300])
@pytest.mark.parametrize("x", [F(1, 4), F(1), F(7, 4)], ids=str)
@pytest.mark.parametrize("s", [0.5, 1.5, 2.5])
@pytest.mark.parametrize("which", ["eta", "hasse"])
def test_swapped_sums_fast_against_high(which, s, x, N, fixed):
    weights = zs._eta_weights if which == "eta" else zs._hasse_weights
    c, d, _ = weights(N)
    d = d * (1 if which == "eta" else F(s) - 1)
    E = F(1025, 1024) * sum(c) / abs(d) + 1

    def call(ctx):
        f = zs.alt_hurwitz if which == "eta" else zs.hasse_hurwitz
        return f(s, x, N, ctx).value

    fast_against_high60(call, lambda P, ctx: mpmath.mpf(E.numerator) / E.denominator / 2**P, fixed)


#: the FAST-against-HIGH grid of the series whose one integer loop runs in both modes
GRID_BUDGETS = (1, 2, 10, 10**3, 10**4, 10**5)


def constant_loss(ctx):
    """The error that pi/4 or psi0, taken from HIGH at the loop's digits,
    adds to the sum it scales: under 10^-dps, each constant being below 2 in
    size and its sum below 1.3."""
    return mpmath.mpf(10) ** -zs._high(ctx).dps


@pytest.mark.parametrize("N", GRID_BUDGETS)
def test_ramanujan_series_fast_against_high(N, fixed):
    # E = 2 N units of 2^-P in a sum below 1.2 scaled by pi/4 < 1, at 2^(2P)
    def loss(P2, ctx):
        return mpmath.mpf(2 * N) / 2 ** (P2 // 2) + constant_loss(ctx)

    call = lambda ctx: zs.catalan_series(CatalanKind.RAMANUJAN_38, N, ctx).value
    fast_against_high60(call, loss, fixed)


@pytest.mark.parametrize("N", GRID_BUDGETS)
@pytest.mark.parametrize("power", [2, 4])
def test_digamma_sum_fast_against_high(power, N, fixed):
    # E = 4 N units of 2^-P (psi0 exact at 2^P), at 2^(2P)
    def loss(P2, ctx):
        return mpmath.mpf(4 * N) / 2 ** (P2 // 2) + constant_loss(ctx)

    fast_against_high60(lambda ctx: zs.digamma_half_sum(power, N, ctx).value, loss, fixed)


@pytest.mark.parametrize("N", GRID_BUDGETS)
@pytest.mark.parametrize("y", [F(1, 4), F(1, 3), F(1, 2)], ids=str)
@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("alternating", [True, False], ids=POLYLOG_IDS)
def test_polylog_rows_fast_against_high(alternating, s, y, N, fixed):
    # E = N + (s+1) L (E14_3) or N + (4s+5) L (E14_4), L = 1 + bitlen(N)
    L = 1 + N.bit_length()
    E = N + ((s + 1) if alternating else (4 * s + 5)) * L
    call = lambda ctx: zs.polylog_identity_lhs(alternating, s, y, N, ctx).value
    fast_against_high60(call, lambda P, ctx: mpmath.mpf(E) / 2**P, fixed)


def test_fast_polylog_row_sum_is_the_double_nearest_its_value():
    # the float loop this integer loop replaced read 2 ulps below it here
    call = lambda ctx: zs.polylog_identity_lhs(False, 2, F(1, 3), 1000, ctx)
    assert call(FAST).value == float(call(HIGH60).value)  # float() rounds to nearest


#: a FAST call of each integer loop that serves both modes
FAST_INTEGER_LOOPS = {
    "ramanujan": lambda ctx: zs.catalan_series(CatalanKind.RAMANUJAN_38, 100, ctx),
    "digamma": lambda ctx: zs.digamma_half_sum(2, 100, ctx),
    "polylog-rows": lambda ctx: zs.polylog_identity_lhs(True, 2, F(1, 3), 100, ctx),
    "swapped-eta": lambda ctx: zs.alt_hurwitz(1.5, F(1, 2), 100, ctx),
}


@pytest.mark.parametrize("name", FAST_INTEGER_LOOPS)
def test_fast_integer_loops_ignore_the_digits(name, fixed):
    # P is sized for numerics._FAST_SEED_DIGITS, whatever ctx.digits says
    assert zs._high(FAST).dps == nu._FAST_SEED_DIGITS
    for digits in (15, 30, 100):
        FAST_INTEGER_LOOPS[name](PrecisionContext(digits, Mode.FAST))
    assert len(fixed) == 3 and len(set(fixed)) == 1
