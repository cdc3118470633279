import functools
import math
from fractions import Fraction

import mpmath
import pytest

from conftest import NeumaierSum
from ehz import combinatorics as co
from ehz import harmonic as ha
from ehz import numerics as nu
from ehz import zeta_series as zs
from ehz.numerics import Mode, PrecisionContext
from ehz.zeta_series import (
    CatalanKind,
    EulerSumKind,
    EvalRequest,
    Formula,
    PolylogIdentity,
)

F = Fraction
HIGH = PrecisionContext(30, Mode.HIGH)
FAST = PrecisionContext(30, Mode.FAST)

#: FAST and HIGH, each at 30 and 60 digits
ROUTE_CTX = [PrecisionContext(d, mode) for mode in (Mode.FAST, Mode.HIGH) for d in (30, 60)]
ROUTE_CTX_IDS = [f"{c.mode.value.lower()}{c.digits}" for c in ROUTE_CTX]


def euler_hurwitz_exact_terms(q: int, x, N: int) -> list:
    """First N terms of the euler_hurwitz series as exact rationals (the
    literal route of its h_m recurrence).

    Term m equals (1/q!) (1/m) R_m(x) Y_{q-1}(...H_m^(j)(x)...); also the
    reindexed rows of the Hasse double sum with exact inner sums.
    """
    rows = ha.coppo_rhs_rows(q, Fraction(x), N - 1)
    return [Fraction(row[-1], (n + 1) * q) for n, row in enumerate(rows)]


def stirling_route_exact_terms(q: int, x, N: int) -> list:
    """First N terms of the stirling_route series as exact rationals (the
    literal route of its e_m recurrence, through ``bell_eval``)."""
    x = Fraction(x)
    fact = math.factorial(q - 1)
    ratio = Fraction(1)
    out = []
    for n in range(1, N + 1):
        ratio = ratio / x if n == 1 else ratio * (n - 1) / (x + n - 1)
        args = [
            (-1) ** (j - 1) * math.factorial(j - 1) * ha.H(n - 1, j)
            for j in range(1, q)
        ]
        y = co.bell_eval(args) if args else 1
        out.append(Fraction(ratio * y, n * fact))
    return out


def mixed_exact_terms(m: int, x, N: int) -> list:
    """First N terms of the mixed series (n H_n - 1) R_n(x) h_{m-1} / n^2 as
    exact rationals (the literal route of its h_m recurrence): the brackets
    1, H_n(x), H_n(x)^2 + H_n^(2)(x) and H_n(x) (H_n(x)^2 + 3 H_n^(2)(x))
    + 2 H_n^(3)(x) are (m-1)! h_{m-1} for m = 1..4."""
    x = Fraction(x)
    ratio, H, h1, h2, h3 = Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(0)
    out = []
    for n in range(1, N + 1):
        ratio = ratio / x if n == 1 else ratio * (n - 1) / (x + n - 1)
        b = 1 / (x + n - 1)
        H, h1, h2, h3 = H + Fraction(1, n), h1 + b, h2 + b**2, h3 + b**3
        bracket = (1, h1, h1**2 + h2, h1 * (h1**2 + 3 * h2) + 2 * h3)[m - 1]
        out.append((n * H - 1) * ratio * bracket / (math.factorial(m - 1) * n * n))
    return out


def mixed_series(m: int, x, N: int, ctx):
    """The mixed series at scale 1, in the evaluators' signature."""
    return zs._gamma_ratio_result("mixed", m, x, N, ctx)


def within_tail(result, reference, factor=3.0) -> bool:
    return abs(float(result.value) - float(reference)) <= factor * float(
        result.tail_estimate
    )


class TestHurwitzRef:
    def test_at_one(self):
        with nu.working_precision(40):
            assert abs(nu.hurwitz_zeta_em(2, 1, HIGH) - nu.const_zeta(2, HIGH)) < mpmath.mpf(10) ** -28

    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_half_shift_doubling(self, s):
        with nu.working_precision(40):
            got = nu.hurwitz_zeta_em(s, F(1, 2), HIGH)
            want = (2**s - 1) * nu.const_zeta(s, HIGH)
            assert abs(got - want) < mpmath.mpf(10) ** -26

    def test_quarter_shift_catalan(self):
        with nu.working_precision(40):
            got = nu.hurwitz_zeta_em(2, F(1, 4), HIGH)
            want = nu.const_pi(HIGH) ** 2 + 8 * nu.const_catalan(HIGH)
            assert abs(got - want) < mpmath.mpf(10) ** -26


class TestHasse:
    def test_zeta2_error_below_tail(self):
        res = zs.hasse_hurwitz(2, F(1), 10**4, FAST)
        ref = nu.const_zeta(2, FAST)
        assert abs(res.value - ref) <= res.tail_estimate

    def test_terms_used_contract(self):
        res = zs.hasse_hurwitz(2, F(1), 500, FAST)
        assert res.terms_used == 500

    def test_analytic_continuation_at_zero(self):
        res = zs.hasse_hurwitz(0, F(1), 50, FAST)
        assert abs(res.value - (-0.5)) < 1e-6
        assert res.tail_estimate == 0.0

    def test_s_equals_one_rejected(self):
        with pytest.raises(nu.DomainError):
            zs.hasse_hurwitz(1, F(1), 10, FAST)

    def test_noninteger_cap(self):
        with pytest.raises(nu.DomainError):
            zs.hasse_hurwitz(2.5, F(1), 10**4, FAST)

    def test_noninteger_within_tails(self):
        res = zs.hasse_hurwitz(2.5, F(1), 200, HIGH)
        ref = nu.hurwitz_zeta_em(2.5, F(1), HIGH)
        assert within_tail(res, ref)

    def test_rows_match_euler_terms_exactly(self):
        # the double sum's exact rows, reindexed, are the single-series
        # terms: brute-force binomial inner sums against the Bell form
        for q, x in ((1, F(1)), (2, F(1, 2)), (3, F(7, 4))):
            terms = euler_hurwitz_exact_terms(q, x, 40)
            for n in range(40):
                row = ha.coppo_lhs(n, q, x) / ((n + 1) * q)
                assert row == terms[n]

    @pytest.mark.parametrize("ctx", [FAST, HIGH], ids=["FAST", "HIGH"])
    @pytest.mark.parametrize("x", [F(1, 3), F(1, 2), F(1), F(7, 4)], ids=str)
    @pytest.mark.parametrize("s", [0, -1, -2, -3])
    def test_nonpositive_integer_s_is_exact(self, s, x, ctx):
        # zeta(s, x) = -B_{1-s}(x) / (1-s), rounded once
        res = zs.hasse_hurwitz(s, x, 10, ctx)
        assert res.value == ctx.real(-_bernoulli_poly(1 - s, x) / (1 - s))
        assert res.tail_estimate == 0.0


def _bernoulli_poly(n: int, x: Fraction) -> Fraction:
    """B_n(x) = sum_k C(n, k) B_k x^(n-k), with B_1 = -1/2."""
    b = [F(1), F(-1, 2)] + [F(0)] * (n - 1)
    for j, b2j in enumerate(nu.bernoulli_even(n // 2), start=1):
        b[2 * j] = b2j
    return sum(math.comb(n, k) * b[k] * x ** (n - k) for k in range(n + 1))


class TestEta:
    def test_log2(self):
        res = zs.sondow_alt(1, 60, FAST)
        assert abs(res.value - math.log(2)) < 1e-14

    def test_eta2_twelve_digits_by_50(self):
        res = zs.sondow_alt(2, 50, FAST)
        assert abs(res.value - math.pi**2 / 12) < 1e-12

    def test_alternating_hurwitz_catalan(self):
        res = zs.alt_hurwitz(2, F(1, 2), 60, FAST)
        assert abs(res.value - 4 * nu.const_catalan(FAST)) < 1e-12

    def test_reference_matches(self):
        req = EvalRequest(formula=Formula.ALT_HURWITZ, s_or_q=3, x=F(1, 3), N=60, ctx=FAST)
        res = zs.evaluate(req)
        ref = zs.reference_value(req)
        assert abs(res.value - ref) < 1e-11


class TestEulerHurwitz:
    def test_q1_is_basel_partial(self):
        exact = Fraction(0)
        for k in range(1, 201):
            exact += Fraction(1, k * k)
        res = zs.euler_hurwitz(1, F(1), 200, FAST)
        assert abs(res.value - float(exact)) < 1e-14

    def test_exact_terms_q4_bracket_identity(self):
        # term n must equal (1/4!) ([H]^3 + 3 H^(2) H + 2 H^(3)) / n^2 exactly
        terms = euler_hurwitz_exact_terms(4, F(1), 1000)
        for n in range(1, 1001):
            h1, h2, h3 = ha.H(n, 1), ha.H(n, 2), ha.H(n, 3)
            want = (h1**3 + 3 * h2 * h1 + 2 * h3) / (24 * n * n)
            assert terms[n - 1] == want

    def test_route_agreement_matrix(self):
        for q in (1, 2, 3, 4):
            for x in (F(1), F(1, 2), F(3, 2)):
                a = zs.euler_hurwitz(q, x, 10**4, FAST)
                b = zs.stirling_route(q, x, 10**4, FAST)
                ref = nu.hurwitz_zeta_em(q + 1, x, FAST)
                assert abs(a.value - b.value) <= float(a.tail_estimate) + float(
                    b.tail_estimate
                )
                assert within_tail(a, ref)
                assert within_tail(b, ref)

    def test_rejects_bad_args(self):
        with pytest.raises(nu.DomainError):
            zs.euler_hurwitz(0, F(1), 10, FAST)
        with pytest.raises(nu.DomainError):
            zs.euler_hurwitz(2, F(-1), 10, FAST)

    @pytest.mark.parametrize("q", [6, 7])
    def test_generic_bell_path_beyond_fast_orders(self, q):
        a = zs.euler_hurwitz(q, F(1), 4000, FAST)
        b = zs.stirling_route(q, F(1), 4000, FAST)
        ref = nu.const_zeta(q + 1, FAST)
        assert abs(float(a.value) - float(ref)) <= 3 * float(a.tail_estimate)
        assert abs(float(b.value) - float(ref)) <= 3 * float(b.tail_estimate)


class TestStirlingRoute:
    def test_q1_identical_terms_to_euler_route(self):
        a = euler_hurwitz_exact_terms(1, F(2, 3), 50)
        b = stirling_route_exact_terms(1, F(2, 3), 50)
        assert a == b

    def test_q2_unit_terms(self):
        terms = stirling_route_exact_terms(2, F(1), 30)
        for n in range(1, 31):
            assert terms[n - 1] == ha.H(n - 1, 1) / Fraction(n * n)

    def test_half_shift_seven_zeta3(self):
        res = zs.stirling_route(2, F(1, 2), 10**4, FAST)
        assert within_tail(res, 7 * nu.const_zeta(3, FAST))


class TestShen:
    def test_p1_terms_are_inverse_squares(self):
        res = zs.shen_series(1, 100, FAST)
        exact = float(sum(Fraction(1, k * k) for k in range(1, 101)))
        assert abs(res.value - exact) < 1e-14

    def test_p2_within_tail(self):
        res = zs.shen_series(2, 2000, FAST)
        assert within_tail(res, nu.const_zeta(3, FAST))

    def test_p3_within_tail(self):
        res = zs.shen_series(3, 1000, FAST)
        assert within_tail(res, nu.const_zeta(4, FAST))


EPS = 2.0**-52
KERNEL_N = 300


@functools.lru_cache(maxsize=None)
def _exact_sum(exact_terms, q: int, x: Fraction) -> Fraction:
    return sum(exact_terms(q, x, KERNEL_N))


def _assert_close_to_exact(value, exact: Fraction, ctx: PrecisionContext) -> None:
    """FAST within 32 eps |S|; HIGH within 10^-digits |S| (compared at
    digits + 20)."""
    if ctx.mode is Mode.FAST:
        want = float(exact)
        assert abs(value - want) <= 32 * EPS * abs(want), (value, want)
        return
    with nu.working_precision(ctx.digits + 20):
        want = mpmath.mpf(exact.numerator) / exact.denominator
        assert abs(value - want) <= mpmath.mpf(10) ** -ctx.digits * abs(want), (value, want)


def _eta_exact_sum(s: int, x: Fraction, N: int) -> Fraction:
    """The integer-s eta double sum's first N rows, from the exact Coppo rows."""
    rows = ha.coppo_rhs_rows(s, x, N - 1)
    return sum(Fraction(row[-1], 2 ** (n + 1)) for n, row in enumerate(rows))


#: shifts far from 1, where the fixed-point kernel's precision rule adds bits
WIDE_X = [F(1, 10**6), F(10**6)]
BELL_SERIES = pytest.mark.parametrize(
    "evaluator, exact_terms",
    [
        (zs.euler_hurwitz, euler_hurwitz_exact_terms),
        (zs.stirling_route, stirling_route_exact_terms),
    ],
    ids=["euler-hurwitz", "stirling-route"],
)


class TestKernelsMatchLiteralRoutes:
    """The running recurrences of the evaluators against the literal
    Bell-polynomial, Stirling-column and binomial-row routes."""

    @pytest.mark.parametrize("ctx", [FAST, HIGH], ids=["fast", "high"])
    @pytest.mark.parametrize("x", [F(1, 3), F(1, 2), F(7, 4)], ids=str)
    @pytest.mark.parametrize("q", range(1, 9))
    @BELL_SERIES
    def test_bell_series(self, evaluator, exact_terms, q, x, ctx):
        res = evaluator(q, x, KERNEL_N, ctx)
        _assert_close_to_exact(res.value, _exact_sum(exact_terms, q, x), ctx)

    @pytest.mark.parametrize("x", WIDE_X, ids=str)
    @pytest.mark.parametrize("q", range(1, 5))
    @BELL_SERIES
    def test_bell_series_wide_x_high(self, evaluator, exact_terms, q, x):
        res = evaluator(q, x, KERNEL_N, HIGH)
        _assert_close_to_exact(res.value, _exact_sum(exact_terms, q, x), HIGH)

    @pytest.mark.parametrize("q, x", [(1, F(1, 3)), (4, F(7, 4)), (8, F(1, 2))], ids=str)
    @BELL_SERIES
    def test_bell_series_hundred_digits(self, evaluator, exact_terms, q, x):
        ctx = PrecisionContext(100, Mode.HIGH)
        res = evaluator(q, x, KERNEL_N, ctx)
        _assert_close_to_exact(res.value, _exact_sum(exact_terms, q, x), ctx)

    @pytest.mark.parametrize("ctx", [FAST, HIGH], ids=["fast", "high"])
    @pytest.mark.parametrize("x", [F(1, 3), F(1, 2), F(7, 4)], ids=str)
    @pytest.mark.parametrize("m", range(1, 5))
    def test_mixed_series(self, m, x, ctx):
        res = mixed_series(m, x, KERNEL_N, ctx)
        _assert_close_to_exact(res.value, _exact_sum(mixed_exact_terms, m, x), ctx)

    @pytest.mark.parametrize("x", WIDE_X, ids=str)
    @pytest.mark.parametrize("m", range(1, 5))
    def test_mixed_series_wide_x_high(self, m, x):
        res = mixed_series(m, x, KERNEL_N, HIGH)
        _assert_close_to_exact(res.value, _exact_sum(mixed_exact_terms, m, x), HIGH)

    @pytest.mark.parametrize("m, x", [(1, F(1, 2)), (2, F(1, 3)), (4, F(7, 4))], ids=str)
    def test_mixed_series_hundred_digits(self, m, x):
        ctx = PrecisionContext(100, Mode.HIGH)
        res = mixed_series(m, x, KERNEL_N, ctx)
        _assert_close_to_exact(res.value, _exact_sum(mixed_exact_terms, m, x), ctx)

    @pytest.mark.parametrize("ctx", [FAST, HIGH], ids=["fast", "high"])
    @pytest.mark.parametrize("p", range(1, 5))
    def test_shen(self, p, ctx):
        exact = sum(
            Fraction(abs(co.stirling1(k, p)), k * math.factorial(k))
            for k in range(1, KERNEL_N + 1)
        )
        _assert_close_to_exact(zs.shen_series(p, KERNEL_N, ctx).value, exact, ctx)

    @pytest.mark.parametrize("ctx", [FAST, HIGH], ids=["fast", "high"])
    @pytest.mark.parametrize("x", [F(1), F(1, 2), F(7, 4)], ids=str)
    @pytest.mark.parametrize("s", range(1, 8))
    def test_eta_integer_s(self, s, x, ctx):
        # 120 rows: the weights reach 2^-120, below HIGH's 1e-30 bound
        N = 120
        _assert_close_to_exact(zs.alt_hurwitz(s, x, N, ctx).value, _eta_exact_sum(s, x, N), ctx)

    @pytest.mark.parametrize("x", WIDE_X, ids=str)
    @pytest.mark.parametrize("s", range(1, 8))
    def test_eta_integer_s_wide_x_high(self, s, x):
        N = 120
        _assert_close_to_exact(zs.alt_hurwitz(s, x, N, HIGH).value, _eta_exact_sum(s, x, N), HIGH)

    @pytest.mark.parametrize("s", [1, 4, 7])
    def test_eta_integer_s_hundred_digits(self, s):
        ctx, N, x = PrecisionContext(100, Mode.HIGH), 400, F(1, 2)  # 2^-400 < 1e-100
        _assert_close_to_exact(zs.alt_hurwitz(s, x, N, ctx).value, _eta_exact_sum(s, x, N), ctx)

    @pytest.mark.parametrize("x", [F(1, 4), F(7, 4)], ids=str)
    @pytest.mark.parametrize("q", [1, 4, 7])
    @pytest.mark.parametrize(
        "evaluator", [zs.euler_hurwitz, zs.stirling_route, zs.alt_hurwitz, mixed_series],
        ids=["euler-hurwitz", "stirling-route", "alt-hurwitz", "mixed"],
    )
    def test_high_digits_agree_at_1e4(self, evaluator, q, x):
        # HIGH at 30 digits against HIGH at 60, at the eval budget N = 1e4
        lo = evaluator(q, x, 10**4, HIGH).value
        hi = evaluator(q, x, 10**4, PrecisionContext(60, Mode.HIGH)).value
        with nu.working_precision(80):
            assert abs(lo - hi) <= mpmath.mpf(10) ** -30 * abs(hi), (lo, hi)

    @pytest.mark.parametrize("kind", ["euler-hurwitz", "stirling-route", "eta", "mixed"])
    def test_kernel_at_max_order(self, kind):
        # the kernel itself: at q = 100 and x = 1/64 the tail overflows a double
        lo, hi = (
            zs._fixed_point_series(kind, zs.MAX_ORDER, F(1, 64), KERNEL_N, ctx)[0]
            for ctx in (HIGH, PrecisionContext(60, Mode.HIGH))
        )
        with nu.working_precision(80):
            assert abs(lo - hi) <= mpmath.mpf(10) ** -30 * abs(hi), (lo, hi)

    @pytest.mark.parametrize("s_power, x", [(1.5, F(1, 2)), (0.5, F(1)), (2.5, F(3, 4))])
    def test_inner_rows(self, s_power, x):
        # the swapped sums of alt_hurwitz at s = s_power and hasse at
        # s = s_power + 1 against the binomial-row loop they replaced, at
        # the same guard, for values and tails
        N = 120
        with nu.working_precision(HIGH.digits + int(0.302 * N) + 10):
            xv = mpmath.mpf(x.numerator) / x.denominator
            phi = [(k + xv) ** -mpmath.mpf(s_power) for k in range(N)]
            rows = []
            for n in range(N):
                c = mpmath.mpf(1)
                acc = phi[0]
                for k in range(1, n + 1):
                    c = c * (n - k + 1) / k
                    acc += (c if k % 2 == 0 else -c) * phi[k]
                rows.append(acc)
            eta = mpmath.fsum(r / 2 ** (n + 1) for n, r in enumerate(rows))
            hasse = mpmath.fsum(r / (n + 1) for n, r in enumerate(rows)) / s_power
        eta_tail = 2 * abs(float(rows[-1])) / 2**N
        d = max(math.ceil(s_power + 1) - 2, 0)
        hasse_tail = zs._tail_from_last(abs(float(rows[-1])) / (s_power * N), N, float(x), d, 1.0)
        for ctx in (FAST, HIGH):
            got_eta = zs.alt_hurwitz(s_power, x, N, ctx)
            got_hasse = zs.hasse_hurwitz(s_power + 1, x, N, ctx)
            for got, want in ((got_eta.value, eta), (got_hasse.value, hasse)):
                if ctx.mode is Mode.FAST:
                    assert abs(got - float(want)) <= 4 * EPS * abs(float(want)), (got, want)
                else:
                    assert abs(got - want) <= mpmath.mpf(10) ** -30 * abs(want), (got, want)
            assert got_eta.tail_estimate == pytest.approx(eta_tail, rel=1e-14)
            assert got_hasse.tail_estimate == pytest.approx(hasse_tail, rel=1e-14)

    @pytest.mark.parametrize("N", [1, 2, 7, 40])
    def test_swapped_weights(self, N):
        # sum_{n=k}^{N-1} C(n,k) 2^-(n+1) and sum_{n=k}^{N-1} C(n,k)/(n+1)
        W, D, _ = zs._eta_weights(N)
        V, L, _ = zs._hasse_weights(N)
        assert len(W) == len(V) == N
        for k in range(N):
            col = [math.comb(n, k) for n in range(k, N)]
            assert F(W[k], D) == sum(F(c, 2 ** (n + 1)) for n, c in enumerate(col, start=k))
            assert F(V[k], L) == sum(F(c, n + 1) for n, c in enumerate(col, start=k))

    @pytest.mark.parametrize("ctx", [FAST, HIGH], ids=["fast", "high"])
    @pytest.mark.parametrize("y", [F(1, 4), F(1, 3), F(1, 2)], ids=str)
    @pytest.mark.parametrize("s", range(1, 5))
    @pytest.mark.parametrize("which", list(PolylogIdentity), ids=lambda w: w.value)
    def test_polylog_rows(self, which, s, y, ctx):
        res = zs.polylog_identity_lhs(which, s, y, 120, ctx)
        _assert_close_to_exact(res.value, _polylog_exact_sum(which, s, y, 120), ctx)


@functools.lru_cache(maxsize=None)
def _polylog_exact_sum(which: PolylogIdentity, s: int, y: Fraction, N: int) -> Fraction:
    """The polylog identities' first N rows with exact-Fraction inner sums
    sum_k C(n,k) (+-y)^k / k^s: the literal route of the row recurrence."""
    z = -y if which is PolylogIdentity.E14_3 else y
    total = F(0)
    for n in range(1, N + 1):
        inner = sum(F(math.comb(n, k), k**s) * z**k for k in range(1, n + 1))
        total += inner / n**2 if which is PolylogIdentity.E14_3 else inner / (n * 2**n)
    return total


class TestMixed:
    @pytest.mark.parametrize("q", [4, 5, 6])
    def test_unit_shift(self, q):
        res = zs.mixed_q(q, F(1), 10**4, FAST)
        assert within_tail(res, nu.const_zeta(q, FAST))

    def test_half_shift(self):
        res = zs.mixed_q(4, F(1, 2), 10**4, FAST)
        assert within_tail(res, nu.hurwitz_zeta_em(4, F(1, 2), FAST))


class TestEulerSums:
    @pytest.mark.parametrize(
        "kind",
        [EulerSumKind.E41, EulerSumKind.E43, EulerSumKind.E43_2, EulerSumKind.E45_8, EulerSumKind.E45_10],
    )
    def test_within_three_tails_at_1e4(self, kind):
        res = zs.euler_sum_partial(kind, 10**4, FAST)
        assert within_tail(res, zs.euler_sum_target(kind, FAST))

    @pytest.mark.parametrize(
        "kind", [EulerSumKind.ALT2, EulerSumKind.ALT3, EulerSumKind.ALT4, EulerSumKind.ALT5]
    )
    def test_alternating_family_reaches_twelve_digits(self, kind):
        res = zs.euler_sum_partial(kind, 80, FAST)
        target = zs.euler_sum_target(kind, FAST)
        assert abs(res.value - target) < 1e-12 * abs(target)

    def test_zeta6_routes_agree_within_combined_tails(self):
        a = zs.euler_sum_partial(EulerSumKind.E43_2, 10**5, FAST)
        b = zs.euler_sum_partial(EulerSumKind.E45_10, 10**5, FAST)
        z6 = float(nu.const_zeta(6, FAST))
        norm_a = float(a.value) / 120
        norm_b = float(b.value) / 60
        combined = float(a.tail_estimate) / 120 + float(b.tail_estimate) / 60
        assert abs(norm_a - norm_b) <= combined
        assert abs(norm_a - z6) <= 3 * float(a.tail_estimate) / 120
        assert abs(norm_b - z6) <= 3 * float(b.tail_estimate) / 60

    @pytest.mark.parametrize("ctx", ROUTE_CTX, ids=ROUTE_CTX_IDS)
    def test_targets_are_the_closed_forms(self, ctx):
        with ctx.scope():
            z = {s: nu.const_zeta(s, ctx) for s in (2, 3, 4, 5, 6)}
            want = {
                EulerSumKind.E41: 6 * z[4],
                EulerSumKind.E43: 24 * z[5],
                EulerSumKind.E43_2: 120 * z[6],
                EulerSumKind.E45_8: 12 * z[5],
                EulerSumKind.E45_10: 60 * z[6],
                **{
                    EulerSumKind(f"ALT{s}"): (1 - ctx.real(F(2)) ** (1 - s)) * z[s]
                    for s in (2, 3, 4, 5)
                },
            }
            assert {k: zs.euler_sum_target(k, ctx) for k in EulerSumKind} == want

    def test_integer_q_rejects_fractional(self):
        req = EvalRequest(formula=Formula.EULER_HURWITZ, s_or_q=2.5, x=F(1), N=10, ctx=FAST)
        with pytest.raises(nu.DomainError):
            zs.evaluate(req)


class TestCatalan:
    @pytest.mark.parametrize(
        "kind,target_of",
        [
            (CatalanKind.RAMANUJAN_38, "catalan"),
            (CatalanKind.CENTRAL_38_1, "catalan"),
            (CatalanKind.ZETA2_37, "zeta2"),
            (CatalanKind.ZETA3_HALF_45_6, "7zeta3"),
        ],
    )
    def test_within_tails(self, kind, target_of):
        res = zs.catalan_series(kind, 10**4, FAST)
        target = {
            "catalan": nu.const_catalan(FAST),
            "zeta2": nu.const_zeta(2, FAST),
            "7zeta3": 7 * nu.const_zeta(3, FAST),
        }[target_of]
        assert within_tail(res, target)

    def test_two_catalan_series_agree_after_tail_correction(self):
        a = zs.catalan_series(CatalanKind.RAMANUJAN_38, 10**4, FAST)
        b = zs.catalan_series(CatalanKind.CENTRAL_38_1, 10**4, FAST)
        corrected_a = res_plus_tail(a)
        corrected_b = res_plus_tail(b)
        assert abs(corrected_a - corrected_b) < 1e-3


def res_plus_tail(res) -> float:
    return float(res.value) + float(res.tail_estimate)


class TestPolylog:
    def test_dilog_half_closed_form(self):
        with nu.working_precision(40):
            got = zs.polylog(2, F(1, 2), HIGH)
            want = nu.const_pi(HIGH) ** 2 / 12 - nu.const_log2(HIGH) ** 2 / 2
            assert abs(got - want) < mpmath.mpf(10) ** -25

    def test_domain(self):
        with pytest.raises(nu.DomainError):
            zs.polylog(2, 1.0, FAST)

    def test_identity_14_4(self):
        lhs = zs.polylog_identity_lhs(PolylogIdentity.E14_4, 2, F(1, 2), 80, HIGH).value
        rhs = zs.polylog_identity_target(PolylogIdentity.E14_4, 2, F(1, 2), HIGH)
        assert abs(float(lhs) - float(rhs)) < 1e-10

    def test_identity_14_3_within_tail(self):
        lhs = zs.polylog_identity_lhs(PolylogIdentity.E14_3, 1, F(1, 2), 400, HIGH).value
        rhs = zs.polylog_identity_target(PolylogIdentity.E14_3, 1, F(1, 2), HIGH)
        # rows decay like (log n + c)/n^2; analytic tail at N = 400
        tail = zs._tail_from_last(_e14_3_row(400), 400, 1.0, 1, 1.0)
        assert abs(float(lhs) - float(rhs)) <= 3 * tail

    @pytest.mark.parametrize("ctx", [FAST, HIGH], ids=["fast", "high"])
    @pytest.mark.parametrize("which", list(PolylogIdentity), ids=lambda w: w.value)
    def test_identities_at_2000_terms(self, which, ctx):
        # E14_4's (3/2)^n passes a double's range near n = 1750; the rows
        # carry f / 2^n.  Its tail is geometric (about 1e-250 here), so the
        # gate adds the kernel tests' rounding allowance to 3 tails.
        res = zs.polylog_identity_lhs(which, 2, F(1, 2), 2000, ctx)
        target = zs.polylog_identity_target(which, 2, F(1, 2), ctx)
        rounding = (32 * EPS if ctx.mode is Mode.FAST else 1e-30) * abs(float(target))
        assert math.isfinite(float(res.value))
        with nu.working_precision(50):
            err = abs(mpmath.mpf(res.value) - target)
        assert err <= 3 * res.tail_estimate + rounding


def _e14_3_row(n: int) -> float:
    total = Fraction(0)
    c = 1
    yk = Fraction(1)
    for k in range(1, n + 1):
        c = c * (n - k + 1) // k
        yk *= Fraction(1, 2)
        t = Fraction(c, k) * yk
        total += -t if k % 2 else t
    return abs(float(total / n**2))


class TestDigamma:
    def test_single_term(self):
        res = zs.digamma_half_sum(2, 1, FAST)
        psi_half = -nu.const_gamma(FAST) - 2 * math.log(2)
        assert abs(res.value - psi_half) < 1e-15

    def test_power4_fast_convergence(self):
        res = zs.digamma_half_sum(4, 1000, FAST)
        assert abs(res.value - zs.digamma_half_target(4, FAST)) < 1e-4

    def test_power2_within_tail(self):
        res = zs.digamma_half_sum(2, 10**4, FAST)
        assert within_tail(res, zs.digamma_half_target(2, FAST))

    def test_bad_power(self):
        with pytest.raises(nu.DomainError):
            zs.digamma_half_sum(3, 10, FAST)

    @pytest.mark.parametrize("ctx", [FAST, HIGH], ids=["FAST", "HIGH"])
    @pytest.mark.parametrize("power", [2, 4])
    def test_matches_exact_harmonic_reference(self, ctx, power):
        # reference: H_n(1/2) kept as an exact Fraction, rounded once per term
        N = 2000

        def reference():
            psi0 = -nu.const_gamma(ctx) - 2 * nu.const_log2(ctx)
            acc = NeumaierSum(ctx.zero())
            hx = F(0)
            for n in range(N):
                acc.add((psi0 + ctx.real(hx)) / (2 * n + 1) ** power)
                hx += F(2, 2 * n + 1)
            return acc.total

        if ctx.mode is Mode.HIGH:
            with nu.working_precision(ctx.dps):
                ref = reference()
        else:
            ref = reference()
        value = zs.digamma_half_sum(power, N, ctx).value
        assert type(value) is type(ref)
        assert value == ref
        assert repr(value) == repr(ref)


def _eta(s, x):
    return mpmath.mpf(2) ** -s * (mpmath.zeta(s, x / 2) - mpmath.zeta(s, (1 + x) / 2))


#: (formula, parameter, x, the limit from mpmath's own functions)
HIGH_REFERENCES = [
    (Formula.HASSE, 2, F(1, 4), lambda: mpmath.zeta(2, mpmath.mpf(1) / 4)),
    (Formula.HASSE_HURWITZ, 2.5, F(1, 2), lambda: mpmath.zeta(2.5, 0.5)),
    (Formula.SONDOW_ALT, 1, None, lambda: mpmath.log(2)),
    (Formula.SONDOW_ALT, 2.5, None, lambda: mpmath.altzeta(2.5)),
    (Formula.ALT_HURWITZ, 2, F(3, 4), lambda: _eta(2, mpmath.mpf(3) / 4)),
    (Formula.EULER_HURWITZ, 4, F(7, 4), lambda: mpmath.zeta(5, mpmath.mpf(7) / 4)),
    (Formula.STIRLING_ROUTE, 3, F(1, 3), lambda: mpmath.zeta(4, mpmath.mpf(1) / 3)),
    (Formula.SHEN, 2, None, lambda: mpmath.zeta(3)),
    (Formula.MIXED_Q, 5, F(5, 4), lambda: mpmath.zeta(5, mpmath.mpf(5) / 4)),
    (Formula.CATALAN_RAMANUJAN, None, None, lambda: mpmath.catalan),
    (Formula.CATALAN_CENTRAL, None, None, lambda: mpmath.catalan),
    (Formula.ZETA2_DUP, None, None, lambda: mpmath.zeta(2)),
    (Formula.ZETA3_HALF, None, None, lambda: 7 * mpmath.zeta(3)),
    (
        Formula.POLYLOG_14_3, 2, F(1, 3),
        lambda: -3 * mpmath.polylog(4, mpmath.mpf(1) / 3)
        + mpmath.log(mpmath.mpf(1) / 3) * mpmath.polylog(3, mpmath.mpf(1) / 3),
    ),
    (Formula.POLYLOG_14_4, 1, F(1, 2), lambda: mpmath.polylog(2, 0.5)),
    (
        Formula.DIGAMMA_HALF_SUM, 2, None,
        lambda: -(mpmath.euler * mpmath.pi**2 + 7 * mpmath.zeta(3)) / 8,
    ),
    (
        Formula.DIGAMMA_HALF_SUM, 4, None,
        lambda: -(
            3 * mpmath.pi**2 * mpmath.zeta(3) + mpmath.pi**4 * mpmath.euler + 93 * mpmath.zeta(5)
        ) / 96,
    ),
]


@pytest.mark.parametrize(
    "formula, param, x, limit",
    HIGH_REFERENCES,
    ids=[f"{f.value} {p} {x}" for f, p, x, _ in HIGH_REFERENCES],
)
def test_high_reference_has_thirty_digits(formula, param, x, limit):
    ref = zs.reference_value(EvalRequest(formula=formula, s_or_q=param, x=x, N=1, ctx=HIGH))
    with nu.working_precision(40):
        want = limit()
        assert abs(ref - want) <= mpmath.mpf(10) ** -30 * abs(want), (ref, want)


#: every public evaluator, as a call at term budget N
EMPTY_SUM_CALLS = {
    "euler_hurwitz": lambda N, ctx: zs.euler_hurwitz(2, 1, N, ctx),
    "stirling_route": lambda N, ctx: zs.stirling_route(2, F(1, 2), N, ctx),
    "hasse_hurwitz s=-2": lambda N, ctx: zs.hasse_hurwitz(-2, 1, N, ctx),
    "hasse_hurwitz s=2": lambda N, ctx: zs.hasse_hurwitz(2, 1, N, ctx),
    "hasse_hurwitz s=2.5": lambda N, ctx: zs.hasse_hurwitz(2.5, 1, N, ctx),
    "sondow_alt s=2": lambda N, ctx: zs.sondow_alt(2, N, ctx),
    "sondow_alt s=2.5": lambda N, ctx: zs.sondow_alt(2.5, N, ctx),
    "alt_hurwitz": lambda N, ctx: zs.alt_hurwitz(2, F(1, 2), N, ctx),
    "shen_series": lambda N, ctx: zs.shen_series(2, N, ctx),
    "mixed_q": lambda N, ctx: zs.mixed_q(4, F(1, 3), N, ctx),
    **{
        f"euler_sum_partial {k.value}": lambda N, ctx, k=k: zs.euler_sum_partial(k, N, ctx)
        for k in EulerSumKind
    },
    **{
        f"catalan_series {k.value}": lambda N, ctx, k=k: zs.catalan_series(k, N, ctx)
        for k in CatalanKind
    },
    **{
        f"polylog_identity_lhs {w.value}":
            lambda N, ctx, w=w: zs.polylog_identity_lhs(w, 2, F(1, 2), N, ctx)
        for w in PolylogIdentity
    },
    "digamma_half_sum 2": lambda N, ctx: zs.digamma_half_sum(2, N, ctx),
    "digamma_half_sum 4": lambda N, ctx: zs.digamma_half_sum(4, N, ctx),
}


@pytest.mark.parametrize("ctx", [FAST, HIGH], ids=["fast", "high"])
@pytest.mark.parametrize("name", list(EMPTY_SUM_CALLS))
def test_empty_sum_is_a_domain_error(name, ctx):
    # N = 0 would sum nothing and report an exact 0; each evaluator names N
    call = EMPTY_SUM_CALLS[name]
    for N in (0, -1):
        with pytest.raises(nu.DomainError, match=f"N must be >= 1, got N = {N}"):
            call(N, ctx)
    assert call(1, ctx).terms_used == 1


#: name: (call, route, scale), where call(N, ctx) sums scale times route(N, ctx)'s series
SAME_SERIES = {
    **{
        k.value: (
            lambda N, ctx, k=k: zs.euler_sum_partial(k, N, ctx),
            lambda N, ctx, q=q: zs.euler_hurwitz(q, 1, N, ctx),
            math.factorial(q),
        )
        for k, q in ((EulerSumKind.E41, 3), (EulerSumKind.E43, 4), (EulerSumKind.E43_2, 5))
    },
    **{
        f"ALT{s}": (
            lambda N, ctx, s=s: zs.euler_sum_partial(EulerSumKind(f"ALT{s}"), N, ctx),
            lambda N, ctx, s=s: zs.sondow_alt(s, N, ctx),
            1,
        )
        for s in (2, 3, 4, 5)
    },
    **{
        k.value: (
            lambda N, ctx, k=k: zs.euler_sum_partial(k, N, ctx),
            lambda N, ctx, m=m: mixed_series(m, 1, N, ctx),
            scale,
        )
        for k, m, scale in ((EulerSumKind.E45_8, 3, 2), (EulerSumKind.E45_10, 4, 6))
    },
    "zeta3-half": (
        lambda N, ctx: zs.catalan_series(CatalanKind.ZETA3_HALF_45_6, N, ctx),
        lambda N, ctx: mixed_series(1, F(1, 2), N, ctx),
        1,
    ),
    **{
        f"shen {p}": (
            lambda N, ctx, p=p: zs.shen_series(p, N, ctx),
            lambda N, ctx, p=p: zs.stirling_route(p, 1, N, ctx),
            1,
        )
        for p in (1, 3, 5)
    },
    **{
        f"hasse {s} {x}": (
            lambda N, ctx, s=s, x=x: zs.hasse_hurwitz(s, x, N, ctx),
            lambda N, ctx, s=s, x=x: zs.euler_hurwitz(int(s) - 1, x, N, ctx),
            1,
        )
        for s, x in ((2, F(1, 4)), (3.0, F(1)), (5, F(7, 4)))
    },
}


@pytest.mark.parametrize("ctx", ROUTE_CTX, ids=ROUTE_CTX_IDS)
@pytest.mark.parametrize("name", list(SAME_SERIES))
def test_series_is_its_route_scaled_bit_for_bit(name, ctx):
    call, route, scale = SAME_SERIES[name]
    for N in (1, 7, 300):
        got, base = call(N, ctx), route(N, ctx)
        with ctx.scope():
            value = ctx.real(scale) * base.value
        assert (got.value, got.tail_estimate) == (value, scale * base.tail_estimate), N


@pytest.mark.parametrize("ctx", [FAST, HIGH], ids=["fast", "high"])
@pytest.mark.parametrize("x", [F(1, 3), F(7, 4)], ids=str)
def test_tail_when_every_term_vanishes(x, ctx):
    # stirling-route at N < q and mixed at N = 1 sum only zero terms; their
    # tails start from R_N / N, times x^(1-m) for "mixed"
    for kind, m, N, evaluator in (
        ("stirling-route", 4, 2, zs.stirling_route),
        ("mixed", 2, 1, mixed_series),
    ):
        res = evaluator(m, x, N, ctx)
        total, term, h, R = zs._gamma_ratio_series(kind, m, x, N, ctx)
        assert total == 0 and term == 0.0
        start, order = (R / N, m - 1) if kind == "stirling-route" else (R * float(x) ** (1 - m) / N, m)
        tail = zs._tail_from_last(start, N, float(x), order, h - math.log(N))
        assert res.value == 0 and 0 < res.tail_estimate == tail


@pytest.mark.parametrize("s", [2, 3, 7])
def test_eta_inner_row_overflow_is_reported(s):
    # at x = 2^-1022, h_j (j >= 2) of 1/(i+x) overflows a double
    with pytest.raises(nu.NumericError, match="an inner row overflowed a double"):
        zs.alt_hurwitz(s, F(1, 2**1022), 10, FAST)


class TestConvergenceTable:
    def test_euler_hurwitz_unit_exponent(self):
        req = EvalRequest(formula=Formula.EULER_HURWITZ, s_or_q=1, x=F(1), N=1, ctx=FAST)
        rows = zs.convergence_table(req, [100, 1000, 10000])
        expo = zs.fit_convergence_exponent(rows)
        assert abs(expo - (-1.0)) < 0.05
        for row in rows:
            assert row.abs_error == abs(float(row.partial) - float(row.reference))

    def test_half_shift_exponent(self):
        req = EvalRequest(formula=Formula.EULER_HURWITZ, s_or_q=1, x=F(1, 2), N=1, ctx=FAST)
        rows = zs.convergence_table(req, [100, 1000, 10000])
        expo = zs.fit_convergence_exponent(rows)
        assert abs(expo - (-0.5)) < 0.05

    def test_geometric_halves_per_term(self):
        req = EvalRequest(formula=Formula.SONDOW_ALT, s_or_q=2, x=None, N=1, ctx=FAST)
        rows = zs.convergence_table(req, [10, 20, 40])
        errs = [float(r.abs_error) for r in rows]
        assert errs[1] < errs[0] * 2.0**-9
        assert errs[2] == 0 or errs[2] < errs[1] * 2.0**-9

    def test_requires_increasing(self):
        req = EvalRequest(formula=Formula.SHEN, s_or_q=2, x=None, N=1, ctx=FAST)
        with pytest.raises(nu.DomainError):
            zs.convergence_table(req, [100, 100])


class TestDeterminism:
    def test_fast_bit_identical(self):
        a = zs.euler_hurwitz(3, F(1, 2), 5000, FAST)
        b = zs.euler_hurwitz(3, F(1, 2), 5000, FAST)
        assert repr(a.value) == repr(b.value)
        assert repr(float(a.tail_estimate)) == repr(float(b.tail_estimate))

    def test_high_bit_identical(self):
        a = zs.stirling_route(2, F(1, 3), 400, HIGH)
        b = zs.stirling_route(2, F(1, 3), 400, HIGH)
        assert str(a.value) == str(b.value)


class TestFastHighAgreement:
    @pytest.mark.parametrize(
        "make",
        [
            lambda ctx: zs.euler_hurwitz(3, F(1, 2), 2000, ctx),
            lambda ctx: zs.mixed_q(5, F(1), 2000, ctx),
            lambda ctx: zs.catalan_series(CatalanKind.CENTRAL_38_1, 2000, ctx),
            lambda ctx: zs.euler_sum_partial(EulerSumKind.E41, 2000, ctx),
            lambda ctx: zs.shen_series(2, 2000, ctx),
            lambda ctx: zs.digamma_half_sum(2, 500, ctx),
        ],
    )
    def test_modes_agree_to_thirteen_digits(self, make):
        a = make(FAST)
        b = make(HIGH)
        assert abs(float(a.value) - float(b.value)) < 1e-13 * max(1.0, abs(float(b.value)))


class TestTailHonesty:
    def test_acceptance_style_matrix(self):
        cases = [
            zs.euler_hurwitz(1, F(1, 4), 2000, FAST),
            zs.euler_hurwitz(2, F(1), 2000, FAST),
            zs.stirling_route(3, F(3, 2), 2000, FAST),
            zs.shen_series(2, 2000, FAST),
            zs.catalan_series(CatalanKind.CENTRAL_38_1, 2000, FAST),
            zs.mixed_q(6, F(1), 2000, FAST),
        ]
        refs = [
            nu.hurwitz_zeta_em(2, F(1, 4), FAST),
            nu.hurwitz_zeta_em(3, F(1), FAST),
            nu.hurwitz_zeta_em(4, F(3, 2), FAST),
            nu.const_zeta(3, FAST),
            nu.const_catalan(FAST),
            nu.const_zeta(6, FAST),
        ]
        for res, ref in zip(cases, refs):
            assert abs(float(res.value) - float(ref)) <= 3 * float(res.tail_estimate)
