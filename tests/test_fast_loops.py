"""The FAST series kernels against the streaming loops they replaced, bit
for bit.

The kernels of ``zs._gamma_ratio_series`` (one per kind, ``zs._FAST_KERNELS``),
the FAST paths of ``zs.catalan_series`` and ``zs.digamma_half_sum`` add
their own terms by Neumaier's step.  Where every term is >= 0 their
compare is ``s >= t``, not ``abs(s) >= abs(t)``; digamma's outer sum, whose
terms change sign, keeps abs().  ``zs.polylog_identity_lhs`` is summed by
``numerics.compensated_sum``.

ORACLE: the functions below are the FAST loops as they were written before
the kernels: one ``add`` call per term on the streaming accumulator
``NeumaierSum`` (conftest), whose compare takes abs(), and integer
arithmetic (``2 * n + 1``, ``m * n``, ``n * n``) converted to doubles per
term.  They are kept only as the reference for the kernels' float counters
and inlined summation; the tails go through the package's own
``_tail_from_last`` and ``_finish``.
"""

import math
import struct
from fractions import Fraction as F

import pytest

from conftest import NeumaierSum
from ehz import numerics as nu
from ehz import zeta_series as zs
from ehz.numerics import Mode, PrecisionContext
from ehz.zeta_series import CatalanKind, PolylogIdentity

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

FAST = PrecisionContext(30, Mode.FAST)

#: the kinds the oracle below knows
KINDS = ("euler-hurwitz", "stirling-route", "eta", "mixed")


def gamma_ratio_series(kind, m, x, N):
    """ORACLE: the FAST loop of ``zs._gamma_ratio_series``."""
    assert kind in KINDS
    xv, R = float(x), float(1 / x)
    a = [1.0] + [0.0] * (m - 1)
    acc, term, w, H = NeumaierSum(), 0.0, 1.0, 0.0
    elementary, eta, mixed = kind == "stirling-route", kind == "eta", kind == "mixed"
    for n in range(1, N + 1):
        den = n - 1 + xv
        if n > 1:
            R = R * (n - 1) / den
        if elementary:
            term = R * a[m - 1] / n
            for j in range(m - 1, 0, -1):
                a[j] = a[j] + a[j - 1] / n
        else:
            b = 1 / den
            for j in range(1, m):
                a[j] = a[j] + b * a[j - 1]
            if eta:
                w = w / 2
                term = w * R * a[-1]
            elif mixed:
                H = H + 1 / n
                term = (n * H - 1) * a[m - 1] * R / (n * n)
            else:
                term = R * a[m - 1] / (m * n)
        acc.add(term)
    return acc.total, term, max(a[1] if m > 1 else 0.0, H), R


def catalan_series(kind, N):
    """ORACLE: the FAST loops of ``zs.catalan_series`` (not ZETA3_HALF_45_6,
    which is the mixed series)."""
    acc, term = NeumaierSum(), 0.0
    if kind is CatalanKind.RAMANUJAN_38:
        quarter_pi = nu.const_pi(FAST) / 4
        b = 1.0
        for n in range(N):
            term = quarter_pi * b / (2 * n + 1)
            acc.add(term)
            b = b * ((2 * n + 1) * (2 * n + 1)) / (4 * (n + 1) * (n + 1))
        return zs._finish(FAST, acc.total, N, zs._tail_from_last(term, N, 1.0, 0, 0.0))
    a, b = (8, 4) if kind is CatalanKind.CENTRAL_38_1 else (3, 3)
    c = 2.0
    for n in range(N):
        term = c / (a * n + b)
        acc.add(term)
        c = c * (2 * (n + 1)) / (2 * n + 3)
    return zs._finish(FAST, acc.total, N, zs._tail_from_last(term, N, 0.5, 0, 0.0))


def digamma_half_sum(power, N):
    """ORACLE: the FAST loop of ``zs.digamma_half_sum``."""
    psi0 = -nu.const_gamma(FAST) - 2 * nu.const_log2(FAST)
    acc, hx, term = NeumaierSum(), NeumaierSum(), 0.0
    for n in range(N):
        term = (psi0 + hx.total) / (2 * n + 1) ** power
        acc.add(term)
        hx.add(2.0 / (2 * n + 1))
    c = psi0 + hx.total - math.log(N) if N > 1 else 1.0
    tail = zs._tail_from_last(term, N, float(power - 1), 1, c)
    return zs._finish(FAST, acc.total, N, tail)


def polylog_identity_lhs(which, s, y, N):
    """ORACLE: the FAST loop of ``zs.polylog_identity_lhs``."""
    alternating = which is PolylogIdentity.E14_3
    yv = float(y)
    lg = math.log1p(-yv) if alternating else -math.log1p(yv)
    step = float(1 - y if alternating else 1 / (1 + y))
    half = (1 + yv) / 2
    t = power = 1.0
    f = [0.0] * (s + 1)
    acc, row = NeumaierSum(), 0.0
    for n in range(1, N + 1):
        t, power = t * step, power * half
        u = t - 1 if t <= 0.5 else math.expm1(n * lg)
        f[0] = u if alternating else -power * u
        for j in range(1, s + 1):
            f[j] = (f[j] if alternating else f[j] / 2) + f[j - 1] / n
        row = f[s] / (n * n if alternating else n)
        acc.add(row)
    last = abs(row)
    tail = zs._tail_from_last(last, N, 1.0, 1, 1.0) if alternating else 2.0 * last
    return zs._finish(FAST, acc.total, N, tail)


def bits(*values):
    """The IEEE bit patterns, so that -0.0 differs from 0.0 and nan equals nan."""
    return [struct.pack("<d", v) for v in values]


def result_bits(res):
    return bits(res.value, res.tail_estimate) + [res.terms_used, res.mode]


def test_every_fast_kernel_has_an_oracle():
    assert set(zs._FAST_KERNELS) == set(KINDS)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 12])
@pytest.mark.parametrize("kind", KINDS)
def test_gamma_ratio_series_matches_streaming_loop(kind, m):
    for x in (F(1, 4), F(1, 2), F(1), F(7, 4), F(1, 10**6), F(10**6)):
        for N in (0, 1, 2, 3, 50, 2000):
            got = zs._gamma_ratio_series(kind, m, x, N, FAST)
            assert bits(*got) == bits(*gamma_ratio_series(kind, m, x, N)), (x, N)


#: the smallest normal double, the least shift x that evaluate accepts
TINY = F(1, 2**1022)


@pytest.mark.parametrize("m", [3, 4, 7])
@pytest.mark.parametrize("kind", KINDS)
def test_gamma_ratio_series_matches_streaming_loop_when_terms_overflow(kind, m):
    # At x = 2^-1022, 1/x is near the largest double, so h_j (j >= 2) of
    # the 1/(i+x) is inf and so are the terms and the sums, or nan where
    # inf meets 0 or inf - inf; stirling-route's sum overflows instead.
    for N in (0, 1, 2, 3, 50):
        got = zs._gamma_ratio_series(kind, m, TINY, N, FAST)
        assert bits(*got) == bits(*gamma_ratio_series(kind, m, TINY, N)), N
    assert not math.isfinite(got[0])


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    m=st.integers(1, 8),
    p=st.integers(1, 10**6),
    d=st.integers(1, 10**6),
    N=st.integers(0, 500),
)
def test_gamma_ratio_series_matches_streaming_loop_at_random_shifts(kind, m, p, d, N):
    x = F(p, d)
    got = zs._gamma_ratio_series(kind, m, x, N, FAST)
    assert bits(*got) == bits(*gamma_ratio_series(kind, m, x, N))


#: term budgets; the public evaluators reject N < 1
#: (test_zeta_series.test_empty_sum_is_a_domain_error), and the kernel of
#: _gamma_ratio_series is checked at N = 0 above
BUDGETS = (1, 2, 10, 10**4)


def catalan_fast(kind, N, monkeypatch):
    """The FAST catalan_series and its oracle at N."""
    got = zs.catalan_series(kind, N, FAST)
    if kind is not CatalanKind.ZETA3_HALF_45_6:
        return got, catalan_series(kind, N)
    with monkeypatch.context() as mp:
        mp.setattr(zs, "_gamma_ratio_series", lambda k, m, x, n, ctx: gamma_ratio_series(k, m, x, n))
        return got, zs.catalan_series(kind, N, FAST)


@pytest.mark.parametrize("kind", list(CatalanKind))
def test_catalan_series_matches_streaming_loop(kind, monkeypatch):
    for N in BUDGETS:
        got, want = catalan_fast(kind, N, monkeypatch)
        assert result_bits(got) == result_bits(want), N


@pytest.mark.parametrize("power", [2, 4])
def test_digamma_half_sum_matches_streaming_loop(power):
    for N in BUDGETS:
        got = zs.digamma_half_sum(power, N, FAST)
        assert result_bits(got) == result_bits(digamma_half_sum(power, N)), N


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(list(CatalanKind)), power=st.sampled_from([2, 4]), N=st.integers(1, 3000))
def test_central_binomial_and_digamma_match_streaming_loops_at_random_budgets(kind, power, N):
    with pytest.MonkeyPatch.context() as monkeypatch:
        got, want = catalan_fast(kind, N, monkeypatch)
    assert result_bits(got) == result_bits(want)
    got = zs.digamma_half_sum(power, N, FAST)
    assert result_bits(got) == result_bits(digamma_half_sum(power, N))


@pytest.mark.parametrize("which", list(PolylogIdentity))
def test_polylog_identity_lhs_matches_streaming_loop(which):
    for s, y in ((1, F(1, 2)), (3, F(1, 4))):
        for N in BUDGETS:
            got = zs.polylog_identity_lhs(which, s, y, N, FAST)
            assert result_bits(got) == result_bits(polylog_identity_lhs(which, s, y, N)), (s, y, N)
