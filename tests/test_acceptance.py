"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 6 has two checks on the Euler sums at N = 1e5: each error lies
within 3x the program's tail estimate, and each signed error matches the
analytic truncation error T (computed from mpmath alone) to within T/N.
"""

import math
import random
import time
from fractions import Fraction

import mpmath
import pytest

from ehz import cli
from ehz import combinatorics as co
from ehz import gamma_tools as gt
from ehz import harmonic as ha
from ehz import numerics as nu
from ehz import verify
from ehz import zeta_series as zs
from ehz.numerics import Mode, PrecisionContext
from ehz.zeta_series import CatalanKind, EulerSumKind, EvalRequest, Formula

F = Fraction
FAST = PrecisionContext(30, Mode.FAST)
HIGH = PrecisionContext(30, Mode.HIGH)


def report(num, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:>3} {name}: {status}{suffix}")


def test_criterion_01_coppo_exactness():
    t0 = time.time()
    checked = 0
    bad = []
    for x in (F(1), F(1, 2), F(1, 3), F(2), F(7, 4)):
        for n, q, lhs, rhs in ha.coppo_sweep(200, 8, x):
            checked += 1
            if lhs != rhs:
                bad.append((n, q, x))
    elapsed = time.time() - t0
    ok = not bad and elapsed < 60.0
    report(1, "coppo exactness n<=200 q<=8", ok, f"{checked} checks, {elapsed:.1f}s")
    assert not bad
    assert elapsed < 60.0


def test_criterion_02_stirling_triple_route():
    t0 = time.time()
    for n in range(0, 51):
        row = co.stirling1_row(n)
        if n >= 2:
            assert sum(row) == 0
        assert sum(abs(v) for v in row) == math.factorial(n)
        for k in range(1, min(n, 4) + 1):
            assert co.stirling1_closed(n, k) == row[k]
        for r in range(0, n):
            assert co.stirling1_bell(n - 1, r) == co.stirling1(n, r + 1)
    elapsed = time.time() - t0
    ok = elapsed < 10.0
    report(2, "stirling triple route + row sums n<=50", ok, f"{elapsed:.1f}s")
    assert ok


def test_criterion_03_bell_dual_route():
    t0 = time.time()
    rng = random.Random(1234567)
    for _ in range(50):
        xs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(20)]
        all_y = co.bell_eval_all(xs)
        for n in range(0, 21):
            assert all_y[n] == co.bell_from_partitions(xs[:n])
    elapsed = time.time() - t0
    ok = elapsed < 10.0
    report(3, "bell dual route n<=20, 50 random vectors", ok, f"{elapsed:.1f}s")
    assert ok


def test_criterion_04_gamma_derivatives():
    with nu.working_precision(45):
        g = nu.const_gamma(HIGH)
        z2, z3 = nu.const_zeta(2, HIGH), nu.const_zeta(3, HIGH)
        closed = [-g, z2 + g * g, -2 * z3 - 3 * g * z2 - g**3]
        worst = mpmath.mpf(0)
        for m in range(1, 11):
            a = gt.gamma_deriv_at_1(m, HIGH)
            b = gt.gamma_deriv_at_1_det(m, HIGH)
            rel = abs(a - b) / max(1, abs(a))
            worst = max(worst, rel)
            if m <= 3:
                assert abs(a - closed[m - 1]) / max(1, abs(a)) < mpmath.mpf(10) ** -25
                assert abs(b - closed[m - 1]) / max(1, abs(b)) < mpmath.mpf(10) ** -25
        ok = worst < mpmath.mpf(10) ** -25
    report(4, "gamma derivative routes m<=10 agree to 25 digits", ok, f"worst rel {float(worst):.1e}")
    assert ok


def test_criterion_05_lambda_coefficients():
    with nu.working_precision(45):
        lam = gt.recip_gamma_lambda(5, HIGH)
        g = nu.const_gamma(HIGH)
        p = nu.const_pi(HIGH)
        z3 = nu.const_zeta(3, HIGH)
        tol = mpmath.mpf(10) ** -25
        closed = [
            mpmath.mpf(1),
            g,
            (6 * g**2 - p**2) / 12,
            (2 * g**3 - g * p**2 + 4 * z3) / 12,
        ]
        for j in range(4):
            assert abs(lam[j] - closed[j]) < tol
        # independent reciprocal-series oracle for lambda_5
        b = [-g] + [(-1) ** m * nu.const_zeta(m, HIGH) for m in range(2, 6)]
        a = co.series_pow_alpha(g * 0, b, -1, 5)
        assert abs(lam[4] - a[4]) < tol
        # the recurrence output carries gamma on the zeta(3) term
        with_gamma = (60 * g**4 - 60 * g**2 * p**2 + p**4 + 480 * g * z3) / 1440
        assert abs(lam[4] - with_gamma) < tol
    report(5, "lambda coefficients (recurrence vs closed forms and 1/Gamma oracle)", True)


_EULER_CASES = (
    (EulerSumKind.E41, "3!zeta(4)"),
    (EulerSumKind.E43, "4!zeta(5)"),
    (EulerSumKind.E45_8, "12zeta(5)"),
    (EulerSumKind.E45_10, "(1/2)5!zeta(6)"),
)


def _euler_sum_errors():
    out = []
    for kind, label in _EULER_CASES:
        res = zs.euler_sum_partial(kind, 10**5, FAST)
        target = zs.euler_sum_target(kind, FAST)
        err = abs(float(res.value) - float(target))
        out.append((kind, label, err, float(res.tail_estimate), abs(float(target))))
    return out


def test_criterion_06_euler_sums_tail_bounds():
    t0 = time.time()
    rows = _euler_sum_errors()
    elapsed = time.time() - t0
    ok = all(err <= 3 * tail for _, _, err, tail, _ in rows) and elapsed < 30.0
    report(6, "euler sums at N=1e5 within 3x analytic tails", ok, f"{elapsed:.1f}s")
    for kind, label, err, tail, _ in rows:
        assert err <= 3 * tail, f"{kind.value} vs {label}: err {err:.3e} > 3x{tail:.3e}"
    assert elapsed < 30.0


def _euler_truncation(N):
    """Limit and leading truncation error T at N of each _EULER_CASES series.

    Built from mpmath constants only, so the oracle shares nothing with ehz.
    Each series sums c(n)/n^2, c a polynomial in H_n, H_n^(2), H_n^(3)
    (E45_8 and E45_10 also subtract a c'(n)/n^3 part).  With
    H_n ~ log n + gamma, H_n^(2) ~ zeta(2) and H_n^(3) ~ zeta(3), the tail
    past N is to leading order a combination of
        I_k = int_N^oo (log t + gamma)^k / t^2 dt
            = (1/N) sum_{j=0..k} k!/(k-j)! h^(k-j),   h = log N + gamma.
    """
    with mpmath.workdps(30):
        h = mpmath.log(N) + mpmath.euler
        f = mpmath.factorial
        I = [sum(f(k) / f(k - j) * h ** (k - j) for j in range(k + 1)) / N for k in range(5)]
        z2, z3 = mpmath.zeta(2), mpmath.zeta(3)
        cases = {
            EulerSumKind.E41: (6 * mpmath.zeta(4), I[2] + z2 * I[0]),
            EulerSumKind.E43: (24 * mpmath.zeta(5), I[3] + 3 * z2 * I[1] + 2 * z3 * I[0]),
            EulerSumKind.E45_8: (12 * mpmath.zeta(5), I[3] + z2 * I[1]),
            EulerSumKind.E45_10: (60 * mpmath.zeta(6), I[4] + 3 * z2 * I[2] + 2 * z3 * I[1]),
        }
        return {kind: (float(target), float(T)) for kind, (target, T) in cases.items()}


def test_criterion_06_euler_sums_relative_error():
    # A flat 5e-3 relative error is unattainable for E45_10 at N = 1e5: its
    # truncation error T is 0.31385, 5.14e-3 of the target 61.0406, whatever
    # the implementation.  Instead, each signed error must match T to
    # within T/N.  What T leaves out is O(h^k / N^2), i.e. O(T/N): the
    # largest part is the sum-versus-integral correction -c(N)/(2N^2), at
    # most T/(2N); the c'(n)/n^3 parts and the O(1/n) corrections to H_n,
    # H_n^(2) and H_n^(3) are smaller again by a factor of order k/h.
    # Measured (err - T)/T is -3e-5..-4e-5 at N = 1e4 and -3e-6..-4e-6 at
    # N = 1e5, about 0.35/N.
    N = 10**5
    truncation = _euler_truncation(N)
    rows = []
    for kind, label in _EULER_CASES:
        target, T = truncation[kind]
        err = target - float(zs.euler_sum_partial(kind, N, FAST).value)
        rows.append((kind, label, target, err, T))
    ok = all(abs(err - T) <= T / N for _, _, _, err, T in rows)
    detail = ", ".join(
        f"{kind.value} rel={err / target:.2e} err-T={err - T:.1e}"
        for kind, _, target, err, T in rows
    )
    report(6, "euler sums at N=1e5 within T/N of analytic truncation error T", ok, detail)
    for kind, label, _, err, T in rows:
        assert abs(err - T) <= T / N, (
            f"{kind.value} vs {label}: err {err:.6e} differs from the analytic "
            f"truncation error T {T:.6e} by {err - T:.3e}, beyond the bound "
            f"T/N = {T / N:.3e}"
        )


def test_criterion_07_alternating_family():
    t0 = time.time()
    results = [zs.sondow_alt(1, 80, FAST)]
    targets = [float(nu.const_log2(FAST))]
    for kind, s in (
        (EulerSumKind.ALT2, 2),
        (EulerSumKind.ALT3, 3),
        (EulerSumKind.ALT4, 4),
        (EulerSumKind.ALT5, 5),
    ):
        results.append(zs.euler_sum_partial(kind, 80, FAST))
        targets.append((1 - 2.0 ** (1 - s)) * float(nu.const_zeta(s, FAST)))
    elapsed = time.time() - t0
    worst = max(
        abs(float(r.value) - t) / abs(t) for r, t in zip(results, targets)
    )
    ok = worst < 1e-12 and elapsed < 1.0
    report(7, "alternating family 12 digits by N=80", ok, f"worst rel {worst:.1e}, {elapsed:.2f}s")
    assert worst < 1e-12
    assert elapsed < 1.0


def test_criterion_08_hurwitz_targets():
    a = zs.euler_hurwitz(1, F(1, 2), 10**4, FAST)
    assert abs(float(a.value) - 3 * float(nu.const_zeta(2, FAST))) <= 3 * float(a.tail_estimate)
    b = zs.stirling_route(2, F(1, 2), 10**4, FAST)
    assert abs(float(b.value) - 7 * float(nu.const_zeta(3, FAST))) <= 3 * float(b.tail_estimate)
    req = EvalRequest(formula=Formula.EULER_HURWITZ, s_or_q=1, x=F(1, 4), N=1, ctx=FAST)
    rows = zs.convergence_table(req, [10**3, 10**4, 10**5])
    expo = zs.fit_convergence_exponent(rows)
    ok = abs(expo - (-0.25)) <= 0.05
    report(8, "hurwitz targets 3zeta(2), 7zeta(3), zeta(2,1/4) exponent", ok, f"exponent {expo:.4f}")
    assert ok


def test_criterion_09_catalan():
    g = float(nu.const_catalan(FAST))
    a = zs.catalan_series(CatalanKind.RAMANUJAN_38, 10**5, FAST)
    b = zs.catalan_series(CatalanKind.CENTRAL_38_1, 10**5, FAST)
    within_a = abs(float(a.value) - g) <= 3 * float(a.tail_estimate)
    within_b = abs(float(b.value) - g) <= 3 * float(b.tail_estimate)
    corrected = abs(
        (float(a.value) + float(a.tail_estimate))
        - (float(b.value) + float(b.tail_estimate))
    )
    ok = within_a and within_b and corrected < 1e-3
    report(9, "catalan series pair at N=1e5", ok, f"cross-diff {corrected:.2e}")
    assert within_a and within_b
    assert corrected < 1e-3


def test_criterion_10_digamma_sums():
    r1 = zs.digamma_half_sum(2, 10**5, FAST)
    t1 = float(zs.digamma_half_target(2, FAST))
    r2 = zs.digamma_half_sum(4, 10**3, FAST)
    t2 = float(zs.digamma_half_target(4, FAST))
    e1 = abs(float(r1.value) - t1)
    e2 = abs(float(r2.value) - t2)
    ok = e1 < 1e-3 and e2 < 1e-4
    report(10, "digamma-weighted sums", ok, f"errors {e1:.1e}, {e2:.1e}")
    assert e1 < 1e-3
    assert e2 < 1e-4


def test_criterion_11_wilf_asymptotic():
    details = []
    ok = True
    for k in (2, 3):
        errs = []
        for n in (1000, 4000):
            h1 = float(ha.H(n - 1, 1))
            h2 = float(ha.H(n - 1, 2))
            exact = h1 if k == 2 else (h1 * h1 - h2) / 2
            est = gt.wilf_asymptotic(n, k, FAST)
            errs.append(abs(est - exact) / exact)
        ok = ok and errs[0] < 5e-2 and errs[1] < errs[0]
        details.append(f"k={k}: {errs[0]:.2e}->{errs[1]:.2e}")
    report(11, "wilf asymptotic error small and shrinking", ok, "; ".join(details))
    assert ok


def test_criterion_12_cli_determinism(capsys):
    eval_args = [
        "eval", "--formula", "euler-hurwitz", "--q", "2", "--x", "1/2",
        "--terms", "3000",
    ]
    conv_args = [
        "converge", "--formula", "shen", "--q", "2", "--terms", "100,1000",
    ]
    outs = []
    for args in (eval_args, eval_args, conv_args, conv_args):
        assert cli.main(list(args)) == 0
        outs.append(capsys.readouterr().out)
    conv = [
        "\n".join(line.rsplit(",", 1)[0] for line in o.splitlines()) for o in outs[2:]
    ]
    ok = outs[0] == outs[1] and conv[0] == conv[1]
    report(12, "cli byte determinism (seconds excluded)", ok)
    assert ok


def test_criterion_13_verify_full():
    t0 = time.time()
    reports = verify.run_all(verify.Profile.FULL)
    elapsed = time.time() - t0
    stats = verify.summarize(reports)
    ok = stats["fail"] == stats["skip"] == 0 and elapsed < 600.0
    report(13, "verify --all --profile full", ok, f"{stats['reports']} reports, {elapsed:.0f}s")
    assert stats["fail"] == 0, [r for r in reports if r.status == "FAIL"][:5]
    assert stats["skip"] == 0, [r for r in reports if r.status == "SKIP"][:5]
    assert elapsed < 600.0
