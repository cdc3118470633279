import math
import random
import sys
import threading
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    NeumaierSum,
    bernoulli_even_mpmath,
    hurwitz_zeta_mpf,
    mp_abs_diff,
    mp_literal,
    polylog_series_mpf,
)
from ehz import numerics as nu
from ehz.numerics import Mode, PrecisionContext

F = Fraction
HIGH = PrecisionContext(30, Mode.HIGH)
FAST = PrecisionContext(30, Mode.FAST)


class TestPrecisionContext:
    def test_rejects_low_digits(self):
        with pytest.raises(ValueError):
            PrecisionContext(10, Mode.HIGH)

    def test_immutable(self):
        ctx = PrecisionContext(20, Mode.FAST)
        with pytest.raises(Exception):
            ctx.digits = 40

    def test_real_conversion(self):
        assert FAST.real(Fraction(1, 2)) == 0.5
        v = HIGH.real(Fraction(1, 3))
        assert mp_abs_diff(v, mp_literal("0.333333333333333333333333333333333333333")) < 1e-38


    def test_real_rounds_a_fraction_once(self):
        # numerators wider than the working precision must not be rounded
        # before the division
        rng = random.Random(7)
        for _ in range(40):
            f = Fraction(rng.getrandbits(300) | 1, rng.getrandbits(200) | 1)
            with nu.working_precision(HIGH.dps):
                assert HIGH.real(f) == mpmath.fdiv(f.numerator, f.denominator), f


class TestNeumaierSum:
    """The ORACLE streaming sum of conftest, which the summing loops are held to."""

    def test_float_path_is_compensated(self):
        acc = NeumaierSum(0.0)
        for t in (1e16, 1.0, -1e16, 1e-3):
            acc.add(t)
        assert acc.total == 1.001

    def test_high_path_is_the_exact_sum_rounded_once(self):
        with nu.working_precision(HIGH.dps):
            terms = [
                (-1) ** k * (k + mpmath.mpf(1) / 3) ** -1.5 * mpmath.mpf(10) ** (k % 7 - 3)
                for k in range(300)
            ]
            acc = NeumaierSum(HIGH.real(0))
            for t in terms:
                acc.add(t)
            # man_exp is (|mantissa|, exponent)
            exact = sum(
                int(mpmath.sign(t)) * t.man_exp[0] * Fraction(2) ** t.man_exp[1] for t in terms
            )
            # fdiv of two exact integers rounds once, to nearest
            assert acc.total == mpmath.fdiv(exact.numerator, exact.denominator)

    def test_high_path_rounds_past_a_tie(self):
        # At 136 bits, 1 + 2^-136 + 2^-272 rounds up to 1 + 2^-135.  A
        # compensated sum holds 2^-136 + 2^-272 in 136 bits as 2^-136 and
        # then rounds the tie 1 + 2^-136 to even, down to 1.
        with nu.working_precision(HIGH.dps):
            assert mpmath.mp.prec == 136
            acc = NeumaierSum(HIGH.real(0))
            for t in (1, mpmath.ldexp(1, -137), mpmath.ldexp(1, -137) + mpmath.ldexp(1, -272)):
                acc.add(mpmath.mpf(t))
            assert acc.total == 1 + mpmath.ldexp(1, -135)


class TestBernoulli:
    def test_tangent_numbers(self):
        assert nu.tangent_numbers()[:5] == (1, 2, 16, 272, 7936)

    def test_even_bernoulli_values(self):
        got = nu.bernoulli_even()[:5]
        assert got == (
            Fraction(1, 6),
            Fraction(-1, 30),
            Fraction(1, 42),
            Fraction(-1, 30),
            Fraction(5, 66),
        )


    def test_table_matches_mpmath(self):
        # mpmath's bernfrac is independent; the table holds every B_2j that
        # hurwitz_zeta_em may add, j <= _EM_JMAX
        nu.clear_caches()
        assert list(nu.bernoulli_even()) == bernoulli_even_mpmath(nu._EM_JMAX)

    def test_threads_building_the_table_agree(self):
        # eight cold, concurrent builds: the cache keeps one of the equal tables
        nu.clear_caches()
        results = {}
        threads = [
            threading.Thread(target=lambda n=n: results.__setitem__(n, nu.bernoulli_even()))
            for n in range(8)
        ]
        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(saved)
        assert not any(t.is_alive() for t in threads)
        want = tuple(bernoulli_even_mpmath(nu._EM_JMAX))
        assert [results.get(n) for n in range(8)] == [want] * 8


class TestConstants:
    @pytest.mark.parametrize("digits", [30, 50])
    def test_literal_cross_checks(self, digits):
        ctx = PrecisionContext(digits, Mode.HIGH)
        tol = 10.0 ** (-(min(digits, 50) - 2))
        pairs = [
            (nu.const_gamma(ctx), "gamma"),
            (nu.const_pi(ctx), "pi"),
            (nu.const_catalan(ctx), "catalan"),
            (nu.const_log2(ctx), "log2"),
        ]
        pairs += [(nu.const_zeta(m, ctx), f"zeta{m}") for m in range(2, 11)]
        for value, name in pairs:
            assert mp_abs_diff(value, mp_literal(nu.CONSTANT_LITERALS[name])) < tol, name

    def test_zeta2_equals_pi_squared_over_six(self):
        with nu.working_precision(45):
            diff = abs(nu.const_zeta(2, HIGH) - nu.const_pi(HIGH) ** 2 / 6)
            assert diff < mpmath.mpf(10) ** -28

    def test_fast_high_agreement(self):
        for name, fast_v in [
            ("gamma", nu.const_gamma(FAST)),
            ("pi", nu.const_pi(FAST)),
            ("catalan", nu.const_catalan(FAST)),
            ("zeta5", nu.const_zeta(5, FAST)),
        ]:
            assert isinstance(fast_v, float)
            assert mp_abs_diff(fast_v, mp_literal(nu.CONSTANT_LITERALS[name])) < 1e-13

    def test_zeta_domain(self):
        with pytest.raises(nu.DomainError):
            nu.const_zeta(1, HIGH)

    def test_determinism_across_cache_clear(self):
        a = str(nu.const_gamma(HIGH))
        b = str(nu.const_zeta(3, HIGH))
        nu.clear_caches()
        assert str(nu.const_gamma(HIGH)) == a
        assert str(nu.const_zeta(3, HIGH)) == b


POLYLOG_Y = [F(-1, 3), F(1, 3), F(1, 2)]


class TestPolylog:
    @pytest.mark.parametrize("digits", [30, 60, 300])
    @pytest.mark.parametrize("y", POLYLOG_Y, ids=str)
    @pytest.mark.parametrize("s", [1, 2, 4])
    def test_within_half_an_ulp_of_the_series(self, s, y, digits):
        # mpmath's Li_s(y) at dps + 5 digits, rounded once at dps: half an
        # ulp of the rounding, and the 5 digits keep mpmath's own error
        # under 10^-3 of an ulp
        ctx = PrecisionContext(digits, Mode.HIGH)
        got = nu.polylog(s, y, ctx)
        want = polylog_series_mpf(s, y, ctx.dps + 20)
        with nu.working_precision(ctx.dps):
            ulp = mpmath.ldexp(1, mpmath.mag(got) - mpmath.mp.prec)
        with nu.working_precision(ctx.dps + 20):
            assert abs(got - want) <= ulp * 501 / 1000, (got, want)

    @pytest.mark.parametrize("y", POLYLOG_Y, ids=str)
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_fast_is_the_double_nearest_the_series(self, s, y):
        got = nu.polylog(s, y, FAST)
        assert isinstance(got, float)
        assert got == float(polylog_series_mpf(s, y, 40))  # float() rounds to nearest

    def test_fast_ignores_the_digits(self):
        values = {nu.polylog(2, F(1, 3), PrecisionContext(d, Mode.FAST)) for d in (15, 30, 100)}
        assert len(values) == 1


class TestHurwitzEulerMaclaurin:
    @pytest.mark.parametrize(
        "s,x",
        [(2, 1), (3, 1), (2, 0.25), (2.5, 1.0), (4, 1.5), (1.5, 0.75), (6, 0.5)],
    )
    def test_against_mpmath_oracle(self, s, x):
        got = nu.hurwitz_zeta_em(s, x, HIGH)
        with nu.working_precision(50):
            want = mpmath.zeta(mpmath.mpf(s), mpmath.mpf(x))
            assert abs(got - want) < mpmath.mpf(10) ** -28

    def test_zeta10_direct_sum_bracket_oracle(self):
        # at s = 10 a direct sum to N = 100 with an integral tail bracket
        # already pins 20 digits
        N = 100
        partial = Fraction(0)
        for k in range(1, N + 1):
            partial += Fraction(1, k**10)
        with nu.working_precision(45):
            base = mpmath.mpf(partial.numerator) / partial.denominator
            lo = base + mpmath.mpf(N + 1) ** -9 / 9
            hi = base + mpmath.mpf(N) ** -9 / 9
            got = nu.const_zeta(10, HIGH)
            assert lo < got < hi
            assert float(hi - lo) < 2e-20

    @pytest.mark.parametrize("digits", [15, 30, 100, 300])
    @pytest.mark.parametrize(
        "s,x", [(2, F(1)), (3, F(1, 4)), (7, F(7, 4)), (12, F(1, 3)), (2.5, F(1, 2)), (101, F(3, 2))]
    )
    def test_against_the_mpf_engine(self, s, x, digits):
        # ORACLE: the mpf sum it replaced, at the same M and stopping rule; it
        # rounds each power and correction at ctx.dps + 5 digits
        ctx = PrecisionContext(digits, Mode.HIGH)
        got, want = nu.hurwitz_zeta_em(s, x, ctx), hurwitz_zeta_mpf(s, x, ctx)
        with nu.working_precision(ctx.dps + 20):
            assert abs(got - want) <= mpmath.mpf(10) ** -(ctx.dps + 2) * want, (got, want)

    def test_domain_errors(self):
        with pytest.raises(nu.DomainError):
            nu.hurwitz_zeta_em(0.5, 1, HIGH)
        with pytest.raises(nu.DomainError):
            nu.hurwitz_zeta_em(2, -1, HIGH)


class TestInvPowers:
    @pytest.mark.parametrize("x", [F(1, 4), F(1), F(7, 4), F(1, 10**6)], ids=str)
    @pytest.mark.parametrize(
        "s", [F(1, 2), F(3, 2), F(5, 2), F(-1, 2), F(-3, 2), F(2.3), F(-7, 3)], ids=str
    )
    def test_floors_against_wide_mpmath_powers(self, s, x):
        # half-integer s: the exact floor; other s: within one unit of it
        P, ks = 200, range(40)
        got = nu._inv_powers(s, x, ks, P)
        with mpmath.workprec(1000):
            xv, sv = (mpmath.mpf(v.numerator) / v.denominator for v in (x, s))
            want = [int(mpmath.floor(mpmath.ldexp((k + xv) ** -sv, P))) for k in ks]
        if s.denominator == 2:
            assert got == want
        else:
            assert all(abs(g - w) <= 1 for g, w in zip(got, want))

    @pytest.mark.parametrize("x", [F(1, 4), F(3, 2), F(7, 4)], ids=str)
    def test_integer_floors_skip_only_zeros(self, x):
        P, ks, d, p = 64, range(40), x.denominator, x.numerator
        for a in range(1, 80):
            want = [(d**a << P) // (d * k + p) ** a for k in ks]
            assert nu._inv_powers(F(a), x, ks, P) == want, a

    def test_large_integer_s_costs_one_power(self):
        # at s = 10^5 and x = 3/2 only k = 0 has a non-zero floor; the value
        # is the one that forming every power gave (0.48 s on a 2-vCPU host)
        ctx = PrecisionContext(30, Mode.HIGH)
        nu.bernoulli_even()  # the Bernoulli table is not timed
        t0 = time.perf_counter()
        got = nu.hurwitz_zeta_em(10**5, F(3, 2), ctx)
        assert time.perf_counter() - t0 < 0.05
        assert got.man_exp == (9600859820151140202075907854498304637251643049, -58649)


@pytest.mark.parametrize("s", list(range(2, 13)) + [2.5])
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(
    p=st.integers(1, 10**4),
    d=st.integers(1, 10**4),
    digits=st.integers(15, 300),
)
@example(p=10**4, d=1, digits=30)  # at s = 12, mpmath is off by 1.3e-29 at digits + 30
@example(p=9999, d=1, digits=100)
@example(p=5000, d=1, digits=30)
def test_hurwitz_zeta_em_within_its_bound(s, p, d, digits):
    # the stopping correction is below 10^-(digits+4) of the sum and the
    # remainder is a small multiple of it; the integer rounding adds under
    # 2^-12 of the last bit of ctx.dps + 5 digits.  The oracle's own
    # working loses about s log10(x) digits at large x, so it gets them back
    ctx, x = PrecisionContext(digits, Mode.HIGH), F(p, d)
    got = nu.hurwitz_zeta_em(s, x, ctx)
    with nu.working_precision(digits + 30 + math.ceil(s * math.log10(max(1, p / d)))):
        want = mpmath.zeta(mpmath.mpf(s), mpmath.mpf(p) / d)
        assert abs(got - want) <= mpmath.mpf(10) ** -(digits + 3) * want, (got, want)
