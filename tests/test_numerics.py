import math
import random
import struct
from fractions import Fraction

import mpmath
import pytest

from conftest import NeumaierSum, mp_abs_diff, mp_literal
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
            acc = NeumaierSum(HIGH.zero())
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
            acc = NeumaierSum(HIGH.zero())
            for t in (1, mpmath.ldexp(1, -137), mpmath.ldexp(1, -137) + mpmath.ldexp(1, -272)):
                acc.add(mpmath.mpf(t))
            assert acc.total == 1 + mpmath.ldexp(1, -135)


def _bits(v):
    return struct.pack("<d", v)


def _streaming(terms):
    """The streaming reference: the ORACLE NeumaierSum's adds, one per term."""
    acc = NeumaierSum(0.0)
    for t in terms:
        acc.add(t)
    return acc.total


INF, NAN = math.inf, math.nan

#: float term sequences: empty, one term, mixed signs, inf, nan, signed
#: zeros, and sums whose compensation term carries the result
EDGE_SEQUENCES = {
    "empty": [],
    "one": [0.1],
    "one_negative": [-2.5e-300],
    "mixed_signs": [(-1) ** k * 10.0 ** (k % 23 - 11) / (k + 1) for k in range(200)],
    "cancelling": [1e16, 1.0, -1e16, 1e-3],
    "inf": [1.0, INF, 2.0],
    "inf_minus_inf": [INF, -INF],
    "overflow": [1e308, 1e308],
    "nan": [1.0, NAN, 3.0],
    "negative_zero": [-0.0],
    "negative_zeros": [-0.0, -0.0],
    "signed_zeros": [0.0, -0.0, -0.0],
    "small_after_large": [1.0] + [1e-16] * 1000,
    "large_after_small": [1e-16] * 1000 + [1.0],
}


class TestCompensatedSum:
    def test_float_path_is_compensated(self):
        assert nu.compensated_sum([1e16, 1.0, -1e16, 1e-3]) == (1.001, 1e-3)

    @pytest.mark.parametrize("name", list(EDGE_SEQUENCES))
    def test_float_path_matches_streaming_adds_bit_for_bit(self, name):
        terms = EDGE_SEQUENCES[name]
        total, last = nu.compensated_sum(iter(terms))
        assert _bits(total) == _bits(_streaming(terms))
        assert _bits(last) == _bits(terms[-1] if terms else 0.0)

    def test_compensation_carries_what_plain_adds_lose(self):
        terms = EDGE_SEQUENCES["small_after_large"]
        naive = 0.0
        for t in terms:
            naive += t
        assert naive == 1.0
        assert nu.compensated_sum(terms)[0] == math.fsum(terms) > 1.0

    def test_empty_sums_are_the_zero(self):
        assert nu.compensated_sum([]) == (0.0, 0.0)
        with nu.working_precision(HIGH.dps):
            total, last = nu.compensated_sum([], HIGH.zero())
        assert isinstance(total, mpmath.mpf) and isinstance(last, mpmath.mpf)
        assert total == last == 0

    def test_high_path_is_the_exact_sum_rounded_once(self):
        with nu.working_precision(HIGH.dps):
            terms = [
                (-1) ** k * (k + mpmath.mpf(1) / 3) ** -1.5 * mpmath.mpf(10) ** (k % 7 - 3)
                for k in range(300)
            ]
            total, last = nu.compensated_sum(iter(terms), HIGH.zero())
            exact = sum(
                int(mpmath.sign(t)) * t.man_exp[0] * Fraction(2) ** t.man_exp[1] for t in terms
            )
            assert total == mpmath.fdiv(exact.numerator, exact.denominator)
        assert last is terms[-1]

    def test_high_path_rounds_past_a_tie(self):
        # as TestNeumaierSum: one rounding of the exact 1 + 2^-136 + 2^-272
        with nu.working_precision(HIGH.dps):
            assert mpmath.mp.prec == 136
            terms = [1, mpmath.ldexp(1, -137), mpmath.ldexp(1, -137) + mpmath.ldexp(1, -272)]
            total, _ = nu.compensated_sum((mpmath.mpf(t) for t in terms), HIGH.zero())
            assert total == 1 + mpmath.ldexp(1, -135)


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
