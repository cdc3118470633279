import math
import random
from fractions import Fraction

import pytest

from ehz import combinatorics as co
from ehz import harmonic as ha
from ehz.numerics import DomainError
from oracles import coppo_rhs_rows

F = Fraction

#: shifts of the coppo_30 sweeps; the negative ones flip the sign of x_q k + x_p
COPPO_SHIFTS = [F(1), F(1, 2), F(1, 3), F(2), F(7, 4), F(-1, 2), F(-7, 3)]


def spiess_literal(variant: str, n: int) -> Fraction:
    """The left side of spiess_check as a literal Fraction sum."""
    if variant == "a":
        terms = (F(1, k * (n - k + 1)) for k in range(1, n + 1))
    elif variant == "b":
        terms = (F(2, k * (n - k + 1)) * ha.H(k - 1, 1) for k in range(2, n + 1))
    else:
        terms = (
            F(4, k * (n - k + 1)) * ha.H(k - 1, 1) * ha.H(n - k, 1) for k in range(2, n + 1)
        )
    return sum(terms, F(0))


def adamchik_literal(variant: int, n: int) -> Fraction:
    """The left side of adamchik_check as a literal Fraction sum."""
    if variant == 1:
        terms = (ha.H(k, 1) / k for k in range(1, n + 1))
    elif variant == 2:
        terms = (ha.H(k, 2) / k + ha.H(k, 1) / k**2 for k in range(1, n + 1))
    else:
        terms = ((ha.H(k, 1) ** 2 + ha.H(k, 2)) / k for k in range(1, n + 1))
    return sum(terms, F(0))


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

    def test_is_a_coppo_sum_at_unit_shift(self):
        # C(n-1, k) / (k+1) = C(n, k+1) / n, so S_n(m) = -n coppo_lhs(n-1, m+1, 1):
        # the shared loop from k = 1 at x = 0 against the one from k = 0 at x = 1
        for n in range(1, 41):
            for m in range(1, 7):
                assert ha.alt_binom_sum(n, m) == -n * ha.coppo_lhs(n - 1, m + 1, F(1)), (n, m)

    def test_dual_route(self):
        for n in range(1, 31):
            for m in range(1, 7):
                assert ha.alt_binom_sum(n, m) == ha.alt_binom_sum_bell(n, m)

    def test_bell_route_matches_fraction_bell(self):
        # -(1/m!) Y_m(0! H_n, 1! H_n^(2), ..., (m-1)! H_n^(m)) on Fractions
        for n in range(1, 61):
            for m in range(1, 11):
                args = [math.factorial(j - 1) * ha.H(n, j) for j in range(1, m + 1)]
                want = -F(co.bell_eval(args), math.factorial(m))
                assert ha.alt_binom_sum_bell(n, m) == want, (n, m)


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
            for n, row in enumerate(coppo_rhs_rows(4, x, 15)):
                for q in range(1, 5):
                    assert ha.coppo_lhs(n, q, x) == row[q - 1]

    def test_rhs_q3_shape(self):
        from ehz.gamma_tools import gamma_ratio

        n, x = 6, F(1, 3)
        ratio = gamma_ratio(n, x)
        h1, h2 = ha.Hx(n + 1, 1, x), ha.Hx(n + 1, 2, x)
        row = list(coppo_rhs_rows(3, x, n))[n]
        assert row[2] == ratio * (h1 * h1 + h2) / 2

    def test_pole_errors(self):
        with pytest.raises(DomainError):
            ha.coppo_lhs(4, 2, F(-3))
        with pytest.raises(DomainError):
            list(ha.coppo_sweep(4, 2, F(0)))

    def test_sweep_matches_pointwise(self):
        # the difference-table side against the literal binomial sum
        for x in COPPO_SHIFTS:
            rows = list(ha.coppo_sweep(40, 8, x))
            assert len(rows) == 41 * 8
            for n, q, lhs, rhs in rows:
                assert lhs == rhs == ha.coppo_lhs(n, q, x), (n, q, x)


class TestScaledHarmonics:
    @pytest.mark.parametrize("x", COPPO_SHIFTS, ids=str)
    def test_rows_are_scaled_shifted_harmonics(self, x):
        D, rows = ha.scaled_harmonics(12, 4, x)
        for i, row in enumerate(rows):
            assert all(isinstance(a, int) for a in row)
            assert [F(a, D**j) for j, a in enumerate(row, 1)] == [
                ha.Hx(i, j, x) for j in range(1, 5)
            ]
        assert i == 12

    def test_common_denominator(self):
        assert ha.scaled_harmonics(10, 1, F(1))[0] == math.lcm(*range(1, 11))
        assert ha.scaled_harmonics(3, 1, F(-7, 3))[0] == 7 * 4 * 1

    def test_pole(self):
        with pytest.raises(DomainError, match="pole at k = 2"):
            ha.scaled_harmonics(4, 2, F(-2))


class TestSignedBellRow:
    @pytest.mark.parametrize("u", ["1", "1/2", "3", "-7/3", "1/1000000"])
    def test_matches_fraction_route(self, u):
        u = F(u)
        for n in range(0, 13):
            args = [
                (-1) ** (j - 1) * math.factorial(j - 1) * ha.Hx(n, j, u)
                for j in range(1, n + 1)
            ]
            D, ys = ha.signed_bell_row(n, u)
            assert all(isinstance(y, int) for y in ys)
            assert [F(y, D**r) for r, y in enumerate(ys)] == co.bell_eval_all(args)


class TestCheckPole:
    def test_names_k_inside_the_range(self):
        for n, x in ((1, 0), (3, -2), (8, -7)):
            with pytest.raises(DomainError, match=f"pole at k = {-x}: x = {x} "):
                ha.check_pole(n, F(x))

    def test_points_off_the_range_pass(self):
        for n, x in ((0, F(0)), (3, F(-3)), (3, F(1)), (3, F(-1, 2)), (5, F(-7, 3))):
            ha.check_pole(n, x)


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
        for n in range(0, 61):
            lhs, rhs = ha.spiess_check(variant, n)
            assert lhs == rhs == spiess_literal(variant, n)


class TestAdamchik:
    @pytest.mark.parametrize("variant", [1, 2, 3])
    def test_sweep(self, variant):
        for n in range(1, 61):
            lhs, rhs = ha.adamchik_check(variant, n)
            assert lhs == rhs == adamchik_literal(variant, n)

    @pytest.mark.parametrize("variant", [1, 2, 3])
    def test_prefix_cache_out_of_order(self, monkeypatch, variant):
        monkeypatch.setattr(ha, "_ADAMCHIK_SUMS", {})
        late = ha.adamchik_check(variant, 50)
        early = ha.adamchik_check(variant, 10)
        assert late[0] == adamchik_literal(variant, 50)
        assert early[0] == adamchik_literal(variant, 10)
        assert ha.adamchik_check(variant, 50) == late
        assert len(ha._ADAMCHIK_SUMS[variant]) == 51

    def test_third_equals_minus_two_s3(self):
        for n in range(1, 25):
            lhs, _ = ha.adamchik_check(3, n)
            assert lhs == -2 * ha.alt_binom_sum(n, 3)
