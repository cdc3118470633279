import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest

from conftest import mp_abs_diff
from ehz import combinatorics as co
from ehz import numerics as nu
from ehz.numerics import Mode, PrecisionContext
from oracles import (
    _BELL_MONOMIALS,
    bell_coefficients,
    bell_from_partitions,
    det_bracket,
    enumerate_partitions,
    log_power_coeffs,
    partition_count,
    series_pow_alpha,
    stirling1_closed,
)

HIGH = PrecisionContext(30, Mode.HIGH)


def rand_fractions(rng: random.Random, n: int) -> list:
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]


class TestPartitions:
    def test_zero(self):
        assert enumerate_partitions(0) == [()]

    def test_four_matches_reference_array(self):
        assert enumerate_partitions(4) == [
            (4, 0, 0, 0),
            (2, 1, 0, 0),
            (1, 0, 1, 0),
            (0, 2, 0, 0),
            (0, 0, 0, 1),
        ]

    def test_count_22(self):
        parts = enumerate_partitions(22)
        assert len(parts) == 1002
        assert len(parts) == partition_count(22)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_weight_uniqueness_and_order(self, n):
        parts = enumerate_partitions(n)
        assert len(parts) == partition_count(n)
        assert len(set(parts)) == len(parts)
        for p in parts:
            assert sum(j * k for j, k in enumerate(p, start=1)) == n
        assert parts == sorted(parts, reverse=True)


class TestBellCoefficients:
    def test_small_polynomials(self):
        assert bell_coefficients(2) == {(2, 0): 1, (0, 1): 1}
        assert bell_coefficients(3) == {(3, 0, 0): 1, (1, 1, 0): 3, (0, 0, 1): 1}
        assert bell_coefficients(4) == {
            (4, 0, 0, 0): 1,
            (2, 1, 0, 0): 6,
            (1, 0, 1, 0): 4,
            (0, 2, 0, 0): 3,
            (0, 0, 0, 1): 1,
        }

    def test_all_positive_integers(self):
        for n in range(0, 15):
            for c in bell_coefficients(n).values():
                assert isinstance(c, int) and c > 0

    def test_degree_six_ground_truth(self):
        # the partition sum is the ground truth for the degree-6 polynomial
        got = bell_coefficients(6)
        want = {
            (6, 0, 0, 0, 0, 0): 1,
            (4, 1, 0, 0, 0, 0): 15,
            (3, 0, 1, 0, 0, 0): 20,
            (2, 2, 0, 0, 0, 0): 45,
            (2, 0, 0, 1, 0, 0): 15,
            (1, 1, 1, 0, 0, 0): 60,
            (0, 3, 0, 0, 0, 0): 15,
            (1, 0, 0, 0, 1, 0): 6,
            (0, 1, 0, 1, 0, 0): 15,
            (0, 0, 2, 0, 0, 0): 10,
            (0, 0, 0, 0, 0, 1): 1,
        }
        assert got == want
        assert sum(got.values()) == 203  # the sixth Bell number


class TestBellEval:
    def test_base_cases(self):
        assert co.bell_eval([]) == 1
        x = Fraction(7, 3)
        assert co.bell_eval([x]) == x

    def test_bell_number_via_partition_oracle(self):
        ones = [1, 1, 1, 1]
        assert bell_from_partitions(ones) == 15
        assert co.bell_eval(ones) == 15

    def test_dual_route_random_rationals(self):
        rng = random.Random(20240817)
        for n in range(1, 13):
            for _ in range(8):
                xs = rand_fractions(rng, n)
                assert co.bell_eval(xs) == bell_from_partitions(xs)

    def test_mixed_kinds_rejected(self):
        with pytest.raises(nu.DomainError):
            co.bell_eval([Fraction(1), 0.5])

    def test_partition_oracle_builds_each_table_once(self):
        # the monomial table of Y_n is read from bell_coefficients once and
        # kept as a tuple; floats take the same table
        xs = [Fraction(k, 3) for k in range(1, 8)]
        first = bell_from_partitions(xs)
        table = _BELL_MONOMIALS[7]
        assert isinstance(table, tuple) and len(table) == partition_count(7)
        assert bell_from_partitions(xs) == first == co.bell_eval(xs)
        assert _BELL_MONOMIALS[7] is table
        assert bell_from_partitions([float(v) for v in xs]) == pytest.approx(float(first))

    def test_derivative_shift_property(self):
        # W_m(x) = Y_m(f', ..., f^(m)) satisfies
        # W_{m+1} = f' W_m + W_m' for polynomial f, via exact Lagrange
        # differentiation of W_m at rational nodes.
        rng = random.Random(7)
        for _ in range(4):
            f = rand_fractions(rng, 5)  # coefficients of degree-4 polynomial

            def deriv(c):
                return [i * c[i] for i in range(1, len(c))]

            def evaluate(c, t):
                acc = Fraction(0)
                for coef in reversed(c):
                    acc = acc * t + coef
                return acc

            derivs = []
            cur = f
            for _ in range(7):
                cur = deriv(cur)
                derivs.append(cur)

            def w(m, t):
                return co.bell_eval([evaluate(derivs[j], t) for j in range(m)])

            for m in range(1, 6):
                # W_m is a polynomial of degree <= m*3; differentiate it
                # exactly through deg+1 Lagrange nodes
                deg = 3 * m
                nodes = [Fraction(i, 2) for i in range(deg + 1)]
                x0 = Fraction(1, 3)
                dw = _lagrange_derivative(nodes, [w(m, t) for t in nodes], x0)
                lhs = w(m + 1, x0)
                rhs = evaluate(derivs[0], x0) * w(m, x0) + dw
                assert lhs == rhs


def _lagrange_derivative(nodes, values, x0):
    """Exact derivative at x0 of the interpolating polynomial."""
    total = Fraction(0)
    k = len(nodes)
    for i in range(k):
        # derivative of the i-th Lagrange basis at x0
        dbasis = Fraction(0)
        for j in range(k):
            if j == i:
                continue
            prod = Fraction(1, 1)
            for l in range(k):
                if l in (i, j):
                    continue
                prod *= (x0 - nodes[l]) / (nodes[i] - nodes[l])
            dbasis += prod / (nodes[i] - nodes[j])
        total += values[i] * dbasis
    return total


class TestStirling:
    def test_base_values(self):
        assert co.stirling1(0, 0) == 1
        assert co.stirling1(4, 1) == -6
        assert co.stirling1(5, 3) == 35
        assert co.stirling1(3, 5) == 0
        assert co.stirling1(3, 0) == 0

    def test_s32_from_polynomial_expansion(self):
        # x(x-1)(x-2) = x^3 - 3x^2 + 2x
        assert co.stirling1_row(3) == (0, 2, -3, 1)
        assert co.stirling1(3, 2) == -3

    def test_closed_forms_examples(self):
        assert stirling1_closed(4, 2) == 11
        assert stirling1_closed(5, 1) == 24
        assert stirling1_closed(4, 3) == -6
        with pytest.raises(nu.DomainError):
            stirling1_closed(4, 5)

    def test_bell_route_examples(self):
        assert co.stirling1_bell(0, 0) == 1
        assert co.stirling1_bell(3, 1) == 11
        assert co.stirling1_bell(2, 2) == 1
        assert co.stirling1_bell(2, 5) == 0

    def test_triple_route_and_row_sums(self):
        for n in range(0, 51):
            row = co.stirling1_row(n)
            if n >= 2:
                assert sum(row) == 0
            assert sum(abs(v) for v in row) == math.factorial(n)
            for k in range(1, min(n, 4) + 1):
                assert stirling1_closed(n, k) == row[k]
            for r in range(0, n):
                assert co.stirling1_bell(n - 1, r) == co.stirling1(n, r + 1)

    def test_bell_row_matches_single_entries(self):
        for n in range(0, 81):
            row = co.stirling1_bell_row(n)
            assert row == list(co.stirling1_row(n + 1)[1:])
            for r in range(0, n + 1):
                assert row[r] == co.stirling1_bell(n, r) == co.stirling1(n + 1, r + 1)

    def test_bell_row_cache_hands_out_copies(self):
        row = co.stirling1_bell_row(6)
        want = list(row)
        row[2] = 0
        assert co.stirling1_bell_row(6) == want


class TestStirlingRowAsFactorialPolynomial:
    def test_edges(self):
        assert co.stirling1_row(0) == (1,)
        assert co.stirling1_row(1) == (0, 1)

    @pytest.mark.parametrize("n", range(1, 31))
    def test_telescoping_value_at_n(self, n):
        # sum_k s(n,k) x^k = x (x-1) ... (x-n+1), which is n! at x = n
        coeffs = co.stirling1_row(n)
        value = sum(c * Fraction(n) ** k for k, c in enumerate(coeffs))
        assert value == math.factorial(n)

    @pytest.mark.parametrize("x", ["1", "1/2", "-7/3", "5/11"])
    def test_unsigned_row_is_rising_factorial(self, x):
        # sum_k |s(n+1,k)| x^k = x (x+1) ... (x+n)
        x = Fraction(x)
        for n in range(0, 15):
            prod = Fraction(1)
            for k in range(n + 1):
                prod *= x + k
            row = co.stirling1_row(n + 1)
            assert sum(abs(c) * x**k for k, c in enumerate(row)) == prod


class TestLogPowerCoeffs:
    def test_log_series(self):
        assert log_power_coeffs(1, 3) == (
            Fraction(0),
            Fraction(1),
            Fraction(-1, 2),
            Fraction(1, 3),
        )

    def test_k2_x3_coefficient(self):
        assert log_power_coeffs(2, 3)[3] == Fraction(-1)

    def test_k3_leading(self):
        assert log_power_coeffs(3, 3)[3] == Fraction(1)

    def test_stirling_identity(self):
        for k in range(1, 7):
            series = log_power_coeffs(k, 40)
            for n in range(k, 41):
                want = Fraction(
                    math.factorial(k) * co.stirling1(n, k), math.factorial(n)
                )
                assert series[n] == want


class TestExpSeries:
    def test_exponential(self):
        b = [Fraction(1)] + [Fraction(0)] * 9
        a = co.log_to_exp_series(Fraction(0), b, 10)
        for n in range(11):
            assert a[n] == Fraction(1, math.factorial(n))

    def test_pochhammer_coefficient_shapes(self):
        from ehz.harmonic import H

        n = 8
        b = [Fraction((-1) ** (m + 1)) * H(n - 1, m) for m in range(1, 4)]
        a = co.log_to_exp_series(Fraction(0), b, 3)
        h1, h2 = H(n - 1, 1), H(n - 1, 2)
        assert a[1] == h1
        assert a[2] == (h1 * h1 - h2) / 2
        neg = co.log_to_exp_series(Fraction(0), [-v for v in b], 3)
        assert neg[2] == (h1 * h1 + h2) / 2

    def test_pow_alpha_one_matches(self):
        b = [Fraction(1), Fraction(-2), Fraction(3)]
        assert (
            series_pow_alpha(Fraction(0), b, Fraction(1), 3)
            == co.log_to_exp_series(Fraction(0), b, 3)
        )

    def test_pow_alpha_square_of_one_plus_x(self):
        # log(1+x) under the b_n/n convention has b_m = (-1)^(m+1)
        b = [Fraction((-1) ** (m + 1)) for m in range(1, 6)]
        sq = series_pow_alpha(Fraction(0), b, Fraction(2), 5)
        assert sq == (1, 2, 1, 0, 0, 0)

    def test_pow_alpha_reciprocal_gamma_first_coefficient(self):
        ctx = HIGH
        with nu.working_precision(ctx.dps):
            g = nu.const_gamma(ctx)
            b = [-g] + [
                (-1) ** m * nu.const_zeta(m, ctx) for m in range(2, 7)
            ]
            a = series_pow_alpha(0.0 * g, b, -1, 6)
            assert abs(a[1] - g) < mpmath.mpf(10) ** -25


def leibniz_det(m) -> Fraction:
    """ORACLE: the determinant as the signed sum over all permutations."""
    n = len(m)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1) ** inversions
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def bracket_matrix(a) -> list:
    """The banded matrix of [a_1, ..., a_n]: a_(j-i+1) on and above the
    diagonal, n - i on the subdiagonal of row i (0-based), zero below."""
    n = len(a)
    return [
        [a[j - i] if j >= i else (n - i if j == i - 1 else 0) for j in range(n)]
        for i in range(n)
    ]


class TestDetBracket:
    @pytest.mark.parametrize("kind", ["int", "fraction"])
    def test_exact_matches_leibniz_expansion(self, kind):
        rng = random.Random(17)
        for n in range(1, 7):
            for _ in range(4):
                if kind == "int":
                    a = [rng.randint(-9, 9) for _ in range(n)]
                else:
                    a = rand_fractions(rng, n)
                got = det_bracket(a)
                assert got == leibniz_det(bracket_matrix(a))
                assert isinstance(got, (int, Fraction))

    def test_zero_leading_pivot_swaps_rows(self):
        # a_1 = 0 puts 0 at (0, 0); the subdiagonal entry 2 below it is the pivot
        for a in ([0, 1, 1], [0, Fraction(1, 2), Fraction(-3, 4)], [0, 0, 5, 7]):
            assert det_bracket(a) == leibniz_det(bracket_matrix(a)) != 0

    def test_singular_bracket_is_zero(self):
        # [a_1, a_2] = a_1^2 - a_2, so [1, 1] and [2, 4] vanish; so does [0, 0, 0]
        for a in ([1, 1], [2, 4], [Fraction(1, 2), Fraction(1, 4)], [0, 0, 0]):
            assert leibniz_det(bracket_matrix(a)) == 0
            assert det_bracket(a) == 0

    def test_trivial(self):
        assert det_bracket([]) == 1
        assert det_bracket([Fraction(5, 7)]) == Fraction(5, 7)

    def test_gamma_second_derivative_value(self):
        ctx = HIGH
        with nu.working_precision(ctx.dps):
            g = nu.const_gamma(ctx)
            z2 = nu.const_zeta(2, ctx)
            got = det_bracket([-g, -z2])
            assert abs(got - (g * g + z2)) < mpmath.mpf(10) ** -27

    def test_series_duality_random(self):
        rng = random.Random(99)
        for n in range(1, 13):
            b = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(n)]
            a = co.log_to_exp_series(Fraction(0), b, n)
            bracket = det_bracket(
                [b[k] if k % 2 == 0 else -b[k] for k in range(n)]
            )
            assert math.factorial(n) * a[n] == bracket


#: run with and without -O: a wrong closed form comes back as its Fraction,
#: a weight that is not a partition raises, and neither rests on an assert
_CORRUPTED_CHECKS = """
from fractions import Fraction
import oracles
real_H = oracles.H
oracles.H = lambda n, m: real_H(n, m) + Fraction(1, 7)
print(repr(oracles.stirling1_closed(6, 3)))
oracles.H = real_H
oracles.enumerate_partitions = lambda n: [(3, 0)]
try:
    print(oracles.bell_coefficients(2))
except ArithmeticError as exc:
    print(type(exc).__name__, exc)
"""


class TestChecksSurviveOptimize:
    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
    def test_corrupted_inputs(self, flags):
        tests = os.path.dirname(os.path.abspath(__file__))
        src = os.path.join(os.path.dirname(tests), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, *flags, "-c", _CORRUPTED_CHECKS],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        closed, bell = proc.stdout.splitlines()
        # s(6, 3) = -((H_5 + 1/7)^2 - (H_5^(2) + 1/7)) 5!/2 with H_5 = 137/60, H_5^(2) = 5269/3600
        h1, h2 = Fraction(137, 60) + Fraction(1, 7), Fraction(5269, 3600) + Fraction(1, 7)
        expect = -60 * (h1 * h1 - h2)
        assert expect.denominator != 1 and co.stirling1(6, 3) == -225
        assert closed == repr(expect)
        assert bell.startswith("ArithmeticError (3, 0) is not a partition of 2")
