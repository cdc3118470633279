"""The FAST series kernels against the streaming loops they replaced, bit
for bit.

The FAST kernels of ``zs._gamma_ratio_series`` (one per kind and order,
built by ``zs._kernel``, which also writes the HIGH kernels that
``test_zeta_series`` checks) are the only FAST float loops; every other
series runs its integer loop in both modes, and ``test_integer_loops``
holds FAST to HIGH there.  The kernels add their own terms by Neumaier's
step, and every term being >= 0, their compare is ``s >= t``, not
``abs(s) >= abs(t)`` (the kernels at order 1 drop it after term 1).

ORACLE: the functions below are the FAST loops as they were written before
the kernels: one ``add`` call per term on the streaming accumulator
``NeumaierSum`` (conftest), whose compare takes abs(), and integer
arithmetic (``m * n``, ``n * n``) converted to doubles per term.  They are
kept only as the reference for the kernels' float counters and inlined
summation; the tails go through the package's own ``_tail_from_last`` and
``_finish``.
"""

import math
import struct
from fractions import Fraction as F

import pytest

from conftest import FIXED_POINT_KINDS, NeumaierSum
from ehz import zeta_series as zs
from ehz.numerics import Mode, PrecisionContext
from ehz.zeta_series import CatalanKind

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

FAST = PrecisionContext(30, Mode.FAST)

#: the kinds the oracle below knows
KINDS = ("euler-hurwitz", "stirling-route", "eta", "mixed", "central")


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
            elif kind == "central":
                term = R * a[m - 1] / den
            else:
                term = R * a[m - 1] / (m * n)
        acc.add(term)
    return acc.total, term, max(a[1] if m > 1 else 0.0, H), R


def central_fast(kind, N):
    """ORACLE: ``zs._central_fast``, the FAST loop of catalan-central
    (a, b = 8, 4) and zeta2-dup (3, 3) before both ran on the gamma-ratio
    kernels, finished as ``zs.catalan_series`` finished it: the terms
    c_n / (a n + b), n = 0..N-1, c_n = 2^(2n+1) (n!)^2 / (2n+1)!, with term 1
    peeled.  It was held bit for bit to the streaming loop with
    ``NeumaierSum`` that it replaced."""
    a, b = (8, 4) if kind is CatalanKind.CENTRAL_38_1 else (3, 3)
    c, den, step, even = 2.0, float(b), float(a), 2.0
    s = t = c / den
    r = t - t
    for _ in range(N - 1):
        c = c * even / (even + 1.0)
        den += step
        even += 2.0
        t = c / den
        u = s + t
        r += (s - u) + t
        s = u
    return zs._finish(FAST, s + r, zs._tail_from_last(t, N, 0.5, 0, 0.0))


def bits(*values):
    """The IEEE bit patterns, so that -0.0 differs from 0.0 and nan equals nan."""
    return [struct.pack("<d", v) for v in values]


def result_bits(res):
    return bits(res.value, res.tail_estimate)


def test_every_fast_kernel_has_an_oracle():
    # and every HIGH kernel: conftest.fixed_point_loop knows the same kinds
    assert set(zs._KERNEL_STEPS) == set(KINDS) == set(FIXED_POINT_KINDS)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 12])
@pytest.mark.parametrize("kind", KINDS)
def test_gamma_ratio_series_matches_streaming_loop(kind, m):
    for x in (F(1, 4), F(1, 2), F(1), F(7, 4), F(1, 10**6), F(10**6)):
        for N in (0, 1, 2, 3, 50, 2000):
            got = zs._gamma_ratio_series(kind, m, x, N, FAST)
            assert bits(*got) == bits(*gamma_ratio_series(kind, m, x, N)), (x, N)


@pytest.mark.parametrize("kind", KINDS)
def test_gamma_ratio_series_matches_streaming_loop_at_the_largest_order(kind):
    for x in (F(1, 4), F(7, 4)):
        for N in (0, 1, 2, 3, 50):
            got = zs._gamma_ratio_series(kind, zs.MAX_ORDER, x, N, FAST)
            assert bits(*got) == bits(*gamma_ratio_series(kind, zs.MAX_ORDER, x, N)), (x, N)


@pytest.mark.parametrize("kind", KINDS)
def test_a_kernel_is_built_once_per_kind_and_order(kind):
    for mode in Mode:
        kernel = zs._kernel(mode, kind, 5)
        assert zs._kernel(mode, kind, 5) is kernel
        assert zs._kernel(mode, kind, 6) is not kernel
    assert zs._kernel(Mode.HIGH, kind, 5) is not zs._kernel(Mode.FAST, kind, 5)


@pytest.mark.parametrize("m", [0, zs.MAX_ORDER + 1, -1, 2.0, "3"])
def test_the_kernel_builder_rejects_an_order_outside_its_range(m):
    # with the kernels of m = 2 built, an untyped cache would hand m = 2.0 the
    # m = 2 kernel without the order check
    zs._kernel(Mode.FAST, "euler-hurwitz", 2)
    zs._kernel(Mode.HIGH, "mixed", 2)
    built = zs._kernel.cache_info().currsize
    with pytest.raises(ValueError, match="kernel order"):
        zs._kernel(Mode.FAST, "euler-hurwitz", m)
    with pytest.raises(ValueError, match="kernel order"):
        zs._kernel(Mode.HIGH, "mixed", m)
    assert zs._kernel.cache_info().currsize == built


def test_the_kernel_builder_rejects_an_unknown_kind():
    with pytest.raises(KeyError):
        zs._kernel(Mode.FAST, "hasse", 2)


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


def test_peeled_first_term_overflows_as_the_streaming_loop_does():
    # "central" term 1 is 1/x^2, inf at x = 2^-1022: the peel's compensation
    # t - t is then nan, as the first compensated step's is
    for N in (1, 2, 3, 50):
        got = zs._gamma_ratio_series("central", 1, TINY, N, FAST)
        assert bits(*got) == bits(*gamma_ratio_series("central", 1, TINY, N)), N
    assert math.isnan(got[0])


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


#: the central-binomial series; Ramanujan's runs the integer loop of both
#: modes, which test_integer_loops holds to HIGH
CENTRAL_KINDS = [k for k in CatalanKind if k is not CatalanKind.RAMANUJAN_38]


def catalan_fast(kind, N, monkeypatch):
    """The FAST catalan_series and its oracle at N: the old catalan-central
    loop (still equal bit for bit), or the gamma-ratio series run on the
    oracle loop :func:`gamma_ratio_series`."""
    got = zs.catalan_series(kind, N, FAST)
    if kind is CatalanKind.CENTRAL_38_1:
        return got, central_fast(kind, N)
    with monkeypatch.context() as mp:
        mp.setattr(zs, "_gamma_ratio_series", lambda k, m, x, n, ctx: gamma_ratio_series(k, m, x, n))
        return got, zs.catalan_series(kind, N, FAST)


@pytest.mark.parametrize("kind", CENTRAL_KINDS)
def test_catalan_series_matches_streaming_loop(kind, monkeypatch):
    for N in BUDGETS:
        got, want = catalan_fast(kind, N, monkeypatch)
        assert result_bits(got) == result_bits(want), N


def ulps(a, b):
    """The number of doubles from b to a, for finite a, b >= 0."""
    a, b = (struct.unpack("<q", struct.pack("<d", v))[0] for v in (a, b))
    return abs(a - b)


def test_zeta2_dup_is_the_euler_hurwitz_series_within_ulps_of_its_old_loop():
    # zeta(2) = zeta(2, 1/2) / 3: the old loop summed the terms c_n / (3 (n+1));
    # the series now scales the sum of R_n(1/2) / n by 1/3 once, after it
    for N in (1, 2, 3, 10, 200, 10**3, 10**4, 10**5, 10**6):
        got = zs.catalan_series(CatalanKind.ZETA2_37, N, FAST)
        route = zs._gamma_ratio_result("euler-hurwitz", 1, F(1, 2), N, FAST, F(1, 3))
        assert result_bits(got) == result_bits(route), N
        old = central_fast(CatalanKind.ZETA2_37, N)
        assert ulps(got.value, old.value) <= 1 and ulps(got.tail_estimate, old.tail_estimate) <= 2, N


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(CENTRAL_KINDS), N=st.integers(1, 3000))
def test_central_binomial_series_match_streaming_loops_at_random_budgets(kind, N):
    with pytest.MonkeyPatch.context() as monkeypatch:
        got, want = catalan_fast(kind, N, monkeypatch)
    assert result_bits(got) == result_bits(want)
