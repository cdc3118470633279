import math
from fractions import Fraction

import mpmath
import pytest

from ehz import combinatorics as co
from ehz import gamma_tools as gt
from ehz import harmonic as ha
from ehz import numerics as nu
from ehz.numerics import Mode, PrecisionContext

F = Fraction
HIGH = PrecisionContext(30, Mode.HIGH)
FAST = PrecisionContext(30, Mode.FAST)


class TestGammaRatio:
    def test_unit_shift_telescopes(self):
        for n in range(0, 20):
            assert gt.gamma_ratio(n, F(1)) == F(1, n + 1)

    def test_half_shift_closed_form(self):
        for n in range(0, 31):
            want = F(2 ** (2 * n + 1) * math.factorial(n) ** 2, math.factorial(2 * n + 1))
            assert gt.gamma_ratio(n, F(1, 2)) == want

    def test_recurrence(self):
        x = F(3, 7)
        for n in range(0, 12):
            assert gt.gamma_ratio(n + 1, x) == gt.gamma_ratio(n, x) * (n + 1) / (x + n + 1)

    def test_pole(self):
        with pytest.raises(nu.DomainError):
            gt.gamma_ratio(3, F(-2))

    def test_derivative_identity(self):
        for n in (0, 1, 4, 9):
            for x in (F(1), F(1, 2), F(7, 4), F(-1, 2)):
                lhs, rhs = gt.gamma_ratio_derivative_sides(n, x)
                assert lhs == rhs


class TestGammaDerivativesAtOne:
    def test_first_three_closed_forms(self):
        with nu.working_precision(40):
            g = nu.const_gamma(HIGH)
            z2, z3 = nu.const_zeta(2, HIGH), nu.const_zeta(3, HIGH)
            want = [-g, z2 + g * g, -2 * z3 - 3 * g * z2 - g**3]
            for m in (1, 2, 3):
                for route in (gt.gamma_deriv_at_1, gt.gamma_deriv_at_1_det):
                    assert abs(route(m, HIGH) - want[m - 1]) < mpmath.mpf(10) ** -25

    def test_routes_agree_to_ten(self):
        with nu.working_precision(40):
            for m in range(1, 11):
                a = gt.gamma_deriv_at_1(m, HIGH)
                b = gt.gamma_deriv_at_1_det(m, HIGH)
                assert abs(a - b) < mpmath.mpf(10) ** -25

    def test_against_mpmath_derivative_oracle(self):
        with nu.working_precision(40):
            for m in (1, 2, 4, 6):
                want = mpmath.diff(mpmath.gamma, 1, m)
                assert abs(gt.gamma_deriv_at_1(m, HIGH) - want) < mpmath.mpf(10) ** -20


class TestGammaDerivativesAtHalf:
    def test_closed_forms(self):
        with nu.working_precision(40):
            g = nu.const_gamma(HIGH)
            l2 = nu.const_log2(HIGH)
            z2 = nu.const_zeta(2, HIGH)
            rp = mpmath.sqrt(nu.const_pi(HIGH))
            m1 = gt.gamma_deriv_at_half(1, HIGH)
            assert abs(m1 - (-rp * (g + 2 * l2))) < mpmath.mpf(10) ** -25
            m2 = gt.gamma_deriv_at_half(2, HIGH)
            assert abs(m2 - rp * ((g + 2 * l2) ** 2 + 3 * z2)) < mpmath.mpf(10) ** -25

    def test_against_numeric_differentiation(self):
        # independent oracle: arbitrary-precision numerical differentiation
        # of mpmath's gamma at 1/2
        with nu.working_precision(40):
            for m in range(1, 7):
                want = mpmath.diff(mpmath.gamma, mpmath.mpf(1) / 2, m)
                got = gt.gamma_deriv_at_half(m, HIGH)
                assert abs(got - want) < abs(want) * mpmath.mpf(10) ** -10


class TestReciprocalGammaLambda:
    def test_closed_forms_lambda_1_to_4(self):
        with nu.working_precision(40):
            lam = gt.recip_gamma_lambda(5, HIGH)
            g = nu.const_gamma(HIGH)
            p = nu.const_pi(HIGH)
            z3 = nu.const_zeta(3, HIGH)
            tol = mpmath.mpf(10) ** -25
            assert abs(lam[0] - 1) < tol
            assert abs(lam[1] - g) < tol
            assert abs(lam[2] - (6 * g**2 - p**2) / 12) < tol
            assert abs(lam[3] - (2 * g**3 - g * p**2 + 4 * z3) / 12) < tol

    def test_lambda5_matches_reciprocal_series_oracle(self):
        # independent oracle: coefficient a_4 of 1/Gamma(1+x) from the
        # alpha = -1 power of the log-gamma series; lambda_5 = a_4
        with nu.working_precision(40):
            lam = gt.recip_gamma_lambda(5, HIGH)
            g = nu.const_gamma(HIGH)
            b = [-g] + [(-1) ** m * nu.const_zeta(m, HIGH) for m in range(2, 6)]
            a = co.series_pow_alpha(g * 0, b, -1, 5)
            assert abs(lam[4] - a[4]) < mpmath.mpf(10) ** -25

    def test_lambda5_gamma_form_not_plain_form(self):
        # the recurrence output carries the extra Euler-gamma factor on the
        # zeta(3) term; the gamma-free variant differs in the 2nd digit
        with nu.working_precision(40):
            lam5 = gt.recip_gamma_lambda(5, HIGH)[4]
            g = nu.const_gamma(HIGH)
            p = nu.const_pi(HIGH)
            z3 = nu.const_zeta(3, HIGH)
            with_gamma = (60 * g**4 - 60 * g**2 * p**2 + p**4 + 480 * g * z3) / 1440
            without = (60 * g**4 - 60 * g**2 * p**2 + p**4 + 480 * z3) / 1440
            assert abs(lam5 - with_gamma) < mpmath.mpf(10) ** -25
            assert abs(lam5 - without) > mpmath.mpf("0.1")

    def test_series_reproduces_reciprocal_gamma(self):
        with nu.working_precision(40):
            lam = gt.recip_gamma_lambda(40, HIGH)
            for xv in (mpmath.mpf(1) / 2, mpmath.mpf(1) / 3):
                total = sum(lam[j] * xv ** (j + 1) for j in range(len(lam)))
                want = 1 / mpmath.gamma(xv)
                assert abs(total - want) < mpmath.mpf(10) ** -20


class TestWilfAsymptotic:
    def test_k2_is_log_plus_gamma(self):
        got = gt.wilf_asymptotic(1000, 2, FAST)
        assert abs(got - (math.log(1000) + 0.5772156649015329)) < 1e-12

    def test_relative_error_small_and_shrinking(self):
        for k in (2, 3):
            errs = []
            for n in (1000, 4000):
                h1 = float(ha.H(n - 1, 1))
                h2 = float(ha.H(n - 1, 2))
                exact = h1 if k == 2 else (h1 * h1 - h2) / 2
                est = gt.wilf_asymptotic(n, k, FAST)
                errs.append(abs(est - exact) / exact)
            assert errs[0] < 5e-2
            assert errs[1] < errs[0]

    def test_k4_error_decreases_when_n_doubles(self):
        errs = []
        for n in (2000, 4000):
            h1 = float(ha.H(n - 1, 1))
            h2 = float(ha.H(n - 1, 2))
            h3 = float(ha.H(n - 1, 3))
            exact = (h1**3 - 3 * h1 * h2 + 2 * h3) / 6
            est = gt.wilf_asymptotic(n, 4, FAST)
            errs.append(abs(est - exact) / exact)
        assert errs[1] < errs[0]


class TestPochhammerRatio:
    def test_degree_one(self):
        assert gt.pochhammer_ratio_coeffs(1, F(1), 1) == (1, 1)

    def test_matches_harmonic_closed_forms(self):
        for n in range(2, 12):
            coeffs = gt.pochhammer_ratio_coeffs(n, F(1), 3)
            h1, h2, h3 = ha.H(n, 1), ha.H(n, 2), ha.H(n, 3)
            assert coeffs[1] == h1
            assert coeffs[2] == (h1 * h1 - h2) / 2
            assert coeffs[3] == (h1**3 - 3 * h1 * h2 + 2 * h3) / 6

    def test_polynomial_identity_at_integers(self):
        for n in (1, 3, 6):
            for u in (F(1), F(1, 2), F(3)):
                coeffs = gt.pochhammer_ratio_coeffs(n, u, n)
                for t in range(0, 5):
                    value = sum(c * F(t) ** k for k, c in enumerate(coeffs))
                    want = _poch(u + t, n) / _poch(u, n)
                    assert value == want

    def test_weighted_stirling_cross_check(self):
        # r! sum_k (-1)^(n+k) s(n,k) C(k,r) u^(k-r)
        #   = (u)_n Y_r(H_n(u), -1! H_n^(2)(u), ...)
        for u in (F(1), F(1, 2), F(3)):
            for n in range(1, 13):
                row = co.stirling1_row(n)
                for r in range(0, n + 1):
                    lhs = math.factorial(r) * sum(
                        (
                            F((-1) ** (n + k) * row[k] * math.comb(k, r)) * u ** (k - r)
                            for k in range(r, n + 1)
                        ),
                        F(0),
                    )
                    args = [
                        (-1) ** (j - 1) * math.factorial(j - 1) * ha.Hx(n, j, u)
                        for j in range(1, r + 1)
                    ]
                    rhs = _poch(u, n) * (co.bell_eval(args) if args else 1)
                    assert lhs == rhs


def _poch(u: Fraction, n: int) -> Fraction:
    acc = F(1)
    for j in range(n):
        acc *= u + j
    return acc


class TestLogGammaTaylor:
    def test_linear_coefficient(self):
        with nu.working_precision(40):
            series = gt.loggamma_taylor(5, HIGH)
            assert abs(series[1] + nu.const_gamma(HIGH)) < mpmath.mpf(10) ** -30

    def test_partial_sum_at_half(self):
        with nu.working_precision(45):
            series = gt.loggamma_taylor(60, HIGH)
            x = mpmath.mpf(1) / 2
            total = sum(series[m] * x**m for m in range(1, 61))
            want = mpmath.ln(mpmath.sqrt(nu.const_pi(HIGH)) / 2)
            assert abs(total - want) < mpmath.mpf(10) ** -12

    def test_sign_convention_at_quarter(self):
        # the numeric check that fixes the sign alternation: against
        # log Gamma(1 +- 1/4) from an independent implementation
        with nu.working_precision(45):
            series = gt.loggamma_taylor(80, HIGH)
            for x in (mpmath.mpf(1) / 4, -mpmath.mpf(1) / 4):
                total = sum(series[m] * x**m for m in range(1, 81))
                want = mpmath.ln(mpmath.gamma(1 + x))
                assert abs(total - want) < mpmath.mpf(10) ** -20

    def test_exponentiated_series_matches_bracket_route(self):
        # Gamma(1+x) coefficients: n! a_n = [-gamma, -zeta(2), ..., -zeta(n)]
        with nu.working_precision(40):
            g = nu.const_gamma(HIGH)
            b = [-g] + [(-1) ** m * nu.const_zeta(m, HIGH) for m in range(2, 7)]
            a = co.log_to_exp_series(g * 0, b, 6)
            for n in range(1, 7):
                bracket = gt.gamma_deriv_at_1_det(n, HIGH)
                assert abs(math.factorial(n) * a[n] - bracket) < mpmath.mpf(10) ** -24


class TestLogGammaRatioSeries:
    def test_partial_sums_against_exact_products(self):
        # sum_{m} ((-1)^m / m) H_{n-1}^(m) t^m at t = 1/3 reproduces
        # log[Gamma(n) Gamma(1+t) / Gamma(n+t)] to 12+ digits for n <= 10
        with nu.working_precision(45):
            t = mpmath.mpf(1) / 3
            lg = gt.loggamma_taylor(80, HIGH)
            lgamma_1pt = sum(lg[m] * t**m for m in range(1, 81))
            for n in range(2, 11):
                total = sum(
                    (-1) ** m * mpmath.mpf(ha.H(n - 1, m).numerator)
                    / ha.H(n - 1, m).denominator
                    * t**m
                    / m
                    for m in range(1, 81)
                )
                lgamma_n = mpmath.mpf(math.factorial(n - 1))
                lgamma_npt = lgamma_1pt + sum(
                    mpmath.ln(j + t) for j in range(1, n)
                )
                want = mpmath.ln(lgamma_n) + lgamma_1pt - lgamma_npt
                assert abs(total - want) < mpmath.mpf(10) ** -12
