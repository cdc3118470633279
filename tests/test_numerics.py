import math
import random
from fractions import Fraction

import mpmath
import pytest

from conftest import mp_abs_diff, mp_literal
from ehz import numerics as nu
from ehz.numerics import Mode, PrecisionContext

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
    def test_float_path_is_compensated(self):
        acc = nu.NeumaierSum(0.0)
        for t in (1e16, 1.0, -1e16, 1e-3):
            acc.add(t)
        assert acc.total == 1.001

    def test_high_path_is_the_exact_sum_rounded_once(self):
        with nu.working_precision(HIGH.dps):
            terms = [
                (-1) ** k * (k + mpmath.mpf(1) / 3) ** -1.5 * mpmath.mpf(10) ** (k % 7 - 3)
                for k in range(300)
            ]
            acc = nu.NeumaierSum(HIGH.zero())
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
            acc = nu.NeumaierSum(HIGH.zero())
            for t in (1, mpmath.ldexp(1, -137), mpmath.ldexp(1, -137) + mpmath.ldexp(1, -272)):
                acc.add(mpmath.mpf(t))
            assert acc.total == 1 + mpmath.ldexp(1, -135)


class TestBernoulli:
    def test_tangent_numbers(self):
        assert nu.tangent_numbers(5) == [1, 2, 16, 272, 7936]

    def test_even_bernoulli_values(self):
        got = nu.bernoulli_even(5)
        assert got == [
            Fraction(1, 6),
            Fraction(-1, 30),
            Fraction(1, 42),
            Fraction(-1, 30),
            Fraction(5, 66),
        ]


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

    def test_domain_errors(self):
        with pytest.raises(nu.DomainError):
            nu.hurwitz_zeta_em(0.5, 1, HIGH)
        with pytest.raises(nu.DomainError):
            nu.hurwitz_zeta_em(2, -1, HIGH)
