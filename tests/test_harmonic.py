import itertools
import math
import random
from fractions import Fraction

import pytest

from ehz import harmonic as ha
from ehz.numerics import DomainError

F = Fraction


class TestH:
    def test_empty(self):
        assert ha.H(0, 1) == 0
        assert ha.H(0, 5) == 0

    def test_values(self):
        assert ha.H(4, 1) == F(25, 12)
        assert ha.H(2, 2) == F(5, 4)

    def test_domain(self):
        with pytest.raises(DomainError):
            ha.H(3, 0)


class TestHx:
    def test_reduces_to_plain_harmonic(self):
        for n in range(0, 51, 7):
            for m in range(1, 7):
                assert ha.Hx(n, m, F(1)) == ha.H(n, m)

    def test_half_shift(self):
        assert ha.Hx(1, 1, F(1, 2)) == 2
        assert ha.Hx(0, 3, F(7, 4)) == 0

    def test_pole_names_offender(self):
        with pytest.raises(DomainError, match="k = 2"):
            ha.Hx(5, 1, F(-2))

    def test_telescoping(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(0, 30)
            m = rng.randint(1, 5)
            x = F(rng.randint(1, 9), rng.randint(1, 9))
            assert ha.Hx(n + 1, m, x) - ha.Hx(n, m, x) == F(1) / (n + x) ** m


class TestAltBinomSum:
    def test_single_term(self):
        for m in range(1, 6):
            assert ha.alt_binom_sum(1, m) == -1

    def test_known_values(self):
        assert ha.alt_binom_sum(3, 1) == -ha.H(3, 1) == F(-11, 6)
        assert ha.alt_binom_sum(2, 2) == F(-7, 4)
        assert ha.alt_binom_sum(3, 2) == F(-85, 36)

    def test_bell_route_examples(self):
        for n in (1, 4, 9):
            assert ha.alt_binom_sum_bell(n, 1) == -ha.H(n, 1)
        h1, h2, h3 = ha.H(5, 1), ha.H(5, 2), ha.H(5, 3)
        assert ha.alt_binom_sum_bell(5, 3) == -(h1**3 / 6 + h1 * h2 / 2 + h3 / 3)

    def test_dual_route(self):
        for n in range(1, 31):
            for m in range(1, 7):
                assert ha.alt_binom_sum(n, m) == ha.alt_binom_sum_bell(n, m)


class TestCoppo:
    def test_lhs_simple(self):
        assert ha.coppo_lhs(1, 1, F(1)) == F(1, 2)

    def test_q1_closed_form(self):
        for n in range(0, 12):
            for x in (F(1), F(1, 2), F(7, 4)):
                prod = F(1)
                for k in range(n + 1):
                    prod *= x + k
                assert ha.coppo_lhs(n, 1, x) == math.factorial(n) / prod

    def test_q2_unit_shift(self):
        for n in range(0, 20):
            assert ha.coppo_lhs(n, 2, F(1)) == ha.H(n + 1, 1) / (n + 1)

    def test_rhs_equals_lhs(self):
        for x in (F(1), F(1, 2), F(2), F(-1, 2)):
            for n, row in zip(range(16), ha.coppo_rhs_rows(4, x)):
                for q in range(1, 5):
                    assert ha.coppo_lhs(n, q, x) == row[q - 1]

    def test_rhs_q3_shape(self):
        from ehz.gamma_tools import RatioForm, gamma_ratio

        n, x = 6, F(1, 3)
        ratio = gamma_ratio(n, x, RatioForm.N_PLUS_1)
        h1, h2 = ha.Hx(n + 1, 1, x), ha.Hx(n + 1, 2, x)
        row = next(itertools.islice(ha.coppo_rhs_rows(3, x), n, None))
        assert row[2] == ratio * (h1 * h1 + h2) / 2

    def test_pole_errors(self):
        with pytest.raises(DomainError):
            ha.coppo_lhs(4, 2, F(-3))
        with pytest.raises(DomainError):
            list(ha.coppo_sweep(4, 2, F(0)))

    def test_sweep_matches_pointwise(self):
        rows = list(ha.coppo_sweep(10, 4, F(1, 2)))
        assert len(rows) == 11 * 4
        for n, q, lhs, rhs in rows:
            assert lhs == rhs == ha.coppo_lhs(n, q, F(1, 2))


class TestLarcombe:
    def test_variant1_always_one(self):
        for m in (1, 3, 7):
            for n in (0, 2, 5):
                lhs, rhs = ha.larcombe_check(1, m, n)
                assert lhs == rhs == 1

    def test_variant2_example(self):
        lhs, rhs = ha.larcombe_check(2, 1, 2)
        assert lhs == rhs == F(11, 6)

    @pytest.mark.parametrize("variant", [1, 2, 3, 4])
    def test_sweep(self, variant):
        for m in range(1, 7):
            for n in range(0, 12):
                lhs, rhs = ha.larcombe_check(variant, m, n)
                assert lhs == rhs

    def test_m_zero_excluded(self):
        with pytest.raises(DomainError):
            ha.larcombe_check(2, 0, 3)

    def test_shifted_sums_from_the_h_column(self):
        # larcombe_check reads Hx(n + 1, j, m) as H(m + n, j) - H(m - 1, j)
        for m in range(1, 11):
            for n in range(0, 51):
                for j in (1, 2, 3):
                    assert ha.Hx(n + 1, j, F(m)) == ha.H(m + n, j) - ha.H(m - 1, j)


class TestSpiess:
    @pytest.mark.parametrize("variant", ["a", "b", "c"])
    def test_sweep(self, variant):
        for n in range(0, 40):
            lhs, rhs = ha.spiess_check(variant, n)
            assert lhs == rhs


class TestAdamchik:
    @pytest.mark.parametrize("variant", [1, 2, 3])
    def test_sweep(self, variant):
        for n in range(1, 40):
            lhs, rhs = ha.adamchik_check(variant, n)
            assert lhs == rhs

    def test_third_equals_minus_two_s3(self):
        for n in range(1, 25):
            lhs, _ = ha.adamchik_check(3, n)
            assert lhs == -2 * ha.alt_binom_sum(n, 3)
