"""Registry of executable identities with parameter sweeps.

EXACT identities compare BigRationals for strict equality; NUMERIC
identities compare a partial sum against its target within a declared
tolerance, normally three times the evaluator's tail estimate (plus a
12-significant-digit floor for geometrically convergent series, whose
analytic tails drop below double rounding noise).

Each identity checker returns both sides rather than a boolean: FAIL
reports carry the sides verbatim, PASS reports carry them abbreviated.
Pole-hitting parameter combinations yield SKIP reports rather than being
silently omitted.  Reports come back in registry order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional

from . import combinatorics, gamma_tools, harmonic, zeta_series
from .numerics import DomainError, Mode, PrecisionContext, const_catalan, const_log2, const_zeta
from .zeta_series import CatalanKind, EulerSumKind

__all__ = ["Kind", "Profile", "Identity", "Report", "identity_ids", "run_identity", "run_all", "summarize"]


class Kind(enum.Enum):
    EXACT = "EXACT"
    NUMERIC = "NUMERIC"


class Profile(enum.Enum):
    QUICK = "quick"
    FULL = "full"


@dataclass(frozen=True)
class Report:
    identity: str
    params: Dict[str, str]
    lhs: str
    rhs: str
    status: str  # PASS | FAIL | SKIP
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "params": dict(self.params),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "status": self.status,
            "detail": self.detail,
        }

    @staticmethod
    def from_dict(d: dict) -> "Report":
        return Report(
            identity=d["identity"],
            params=dict(d["params"]),
            lhs=d["lhs"],
            rhs=d["rhs"],
            status=d["status"],
            detail=d.get("detail", ""),
        )


@dataclass(frozen=True)
class Identity:
    id: str
    kind: Kind
    description: str
    quick: Dict[str, object]
    full: Dict[str, object]
    runner: Callable[[Dict[str, object]], Iterator[Report]]


def _short(v, limit: int = 48) -> str:
    s = str(v)
    if len(s) <= limit:
        return s
    return s[: limit - 10] + f"...[{len(s)} chars]"


def _exact_report(ident: str, params: Dict[str, str], lhs, rhs) -> Report:
    if lhs == rhs:
        return Report(ident, params, _short(lhs), _short(rhs), "PASS")
    return Report(ident, params, str(lhs), str(rhs), "FAIL", "exact mismatch")


def _numeric_report(
    ident: str, params: Dict[str, str], value, target, tol: float, detail: str = ""
) -> Report:
    err = abs(float(value) - float(target))
    status = "PASS" if err <= tol else "FAIL"
    info = f"abs_error={err:.3e} tolerance={tol:.3e}"
    if detail:
        info = f"{detail} {info}"
    return Report(ident, params, repr(float(value)), repr(float(target)), status, info)


def _tol(result, target: float, factor: float = 3.0, floor_rel: float = 1e-12) -> float:
    return max(factor * float(result.tail_estimate), floor_rel * abs(target))


_FAST = PrecisionContext(30, Mode.FAST)
_ALT_KINDS = {2: EulerSumKind.ALT2, 3: EulerSumKind.ALT3, 4: EulerSumKind.ALT4, 5: EulerSumKind.ALT5}


# ----------------------------------------------------------------------
# Exact identity runners.
# ----------------------------------------------------------------------


def _run_fs_closed(m: int):
    def run(p):
        for n in range(1, p["n_max"] + 1):
            lhs = -harmonic.alt_binom_sum(n, m)
            h1, h2, h3 = harmonic.H(n, 1), harmonic.H(n, 2), harmonic.H(n, 3)
            if m == 1:
                rhs = h1
            elif m == 2:
                rhs = (h1 * h1 + h2) / 2
            else:
                rhs = h1**3 / 6 + h1 * h2 / 2 + h3 / 3
            yield _exact_report(f"fs_6_{m}", {"n": str(n)}, lhs, rhs)

    return run


def _run_fs_4_general(p):
    for n in range(1, p["n_max"] + 1):
        for m in range(1, p["m_max"] + 1):
            lhs = harmonic.alt_binom_sum(n, m)
            rhs = harmonic.alt_binom_sum_bell(n, m)
            yield _exact_report("fs_4_general", {"n": str(n), "m": str(m)}, lhs, rhs)


def _run_adamchik(variant: int):
    def run(p):
        ident = f"adamchik_7_{variant}"
        inner = Fraction(0)  # sum_{j<=n} H_j / j
        dbl = Fraction(0)  # sum_{k<=n} (1/k) sum_{j<=k} H_j / j
        for n in range(1, p["n_max"] + 1):
            lhs, rhs = harmonic.adamchik_check(variant, n)
            if variant == 3:
                inner += harmonic.H(n, 1) / n
                dbl += inner / n
                # the same quantity equals -2 S_n(3) and twice the nested double sum
                alt = -2 * harmonic.alt_binom_sum(n, 3)
                if lhs == rhs and not (lhs == alt == 2 * dbl):
                    yield Report(
                        ident,
                        {"n": str(n)},
                        str(lhs),
                        f"-2S_n(3)={alt}, double={2 * dbl}",
                        "FAIL",
                        "cross-forms disagree",
                    )
                    continue
            yield _exact_report(ident, {"n": str(n)}, lhs, rhs)

    return run


def _run_spiess(variant: str):
    def run(p):
        for n in range(1, p["n_max"] + 1):
            lhs, rhs = harmonic.spiess_check(variant, n)
            yield _exact_report(f"spiess_15{variant}", {"n": str(n)}, lhs, rhs)

    return run


def _run_larcombe(variant: int):
    def run(p):
        for m in range(1, p["m_max"] + 1):
            for n in range(0, p["n_max"] + 1):
                lhs, rhs = harmonic.larcombe_check(variant, m, n)
                yield _exact_report(
                    f"larcombe_16_{variant}", {"m": str(m), "n": str(n)}, lhs, rhs
                )

    return run


def _run_coppo(p):
    xs = [Fraction(v) for v in p["xs"]]
    for x in xs:
        try:
            sweep = harmonic.coppo_sweep(p["n_max"], p["q_max"], x)
            for n, q, lhs, rhs in sweep:
                yield _exact_report(
                    "coppo_30", {"n": str(n), "q": str(q), "x": str(x)}, lhs, rhs
                )
        except DomainError as exc:
            yield Report("coppo_30", {"x": str(x)}, "", "", "SKIP", f"pole: {exc}")


def _run_g_derivative(p):
    for x in [Fraction(v) for v in p["xs"]]:
        for n in range(0, p["n_max"] + 1, max(1, p["n_max"] // 10)):
            try:
                lhs, rhs = gamma_tools.gamma_ratio_derivative_sides(n, x)
            except DomainError as exc:
                yield Report(
                    "g_derivative", {"n": str(n), "x": str(x)}, "", "", "SKIP", str(exc)
                )
                continue
            yield _exact_report("g_derivative", {"n": str(n), "x": str(x)}, lhs, rhs)


def _run_e44_3(p):
    for n in range(2, p["n_max"] + 1):
        coeffs = gamma_tools.pochhammer_ratio_coeffs(n - 1, Fraction(1), 3)
        h1, h2, h3 = harmonic.H(n - 1, 1), harmonic.H(n - 1, 2), harmonic.H(n - 1, 3)
        expect = (
            Fraction(1),
            h1,
            (h1 * h1 - h2) / 2,
            (h1**3 - 3 * h1 * h2 + 2 * h3) / 6,
        )
        yield _exact_report("e44_3", {"n": str(n)}, tuple(coeffs), expect)


def _run_e44_4(p):
    for n in range(2, p["n_max"] + 1):
        b = [(-1) ** m * harmonic.H(n - 1, m) for m in range(1, 4)]
        coeffs = combinatorics.log_to_exp_series(Fraction(0), b, 3)
        h1, h2, h3 = harmonic.H(n - 1, 1), harmonic.H(n - 1, 2), harmonic.H(n - 1, 3)
        expect = (
            Fraction(1),
            -h1,
            (h1 * h1 + h2) / 2,
            -(h1**3 + 3 * h1 * h2 + 2 * h3) / 6,
        )
        yield _exact_report("e44_4", {"n": str(n)}, tuple(coeffs), expect)


def _pochhammer(u: Fraction, n: int) -> Fraction:
    acc = Fraction(1)
    for j in range(n):
        acc *= u + j
    return acc


def _bell_signed_harmonic_row(n: int, u: Fraction) -> List[Fraction]:
    """Y_r(H_n(u), -1! H_n^(2)(u), ..., (-1)^(r-1) (r-1)! H_n^(r)(u)) for r = 0..n."""
    args = [
        (-1) ** (j - 1) * math.factorial(j - 1) * harmonic.Hx(n, j, u)
        for j in range(1, n + 1)
    ]
    return combinatorics.bell_eval_all(args)


def _run_e44_7(p):
    for u in [Fraction(v) for v in p["us"]]:
        for n in range(1, p["n_max"] + 1):
            row = combinatorics.stirling1_row(n)
            bell = _bell_signed_harmonic_row(n, u)
            for r in range(0, n + 1):
                lhs = math.factorial(r) * sum(
                    (
                        Fraction((-1) ** (n + k) * row[k] * math.comb(k, r)) * u ** (k - r)
                        for k in range(r, n + 1)
                    ),
                    Fraction(0),
                )
                rhs = _pochhammer(u, n) * bell[r]
                yield _exact_report(
                    "e44_7", {"n": str(n), "r": str(r), "u": str(u)}, lhs, rhs
                )


def _run_e44_8(p):
    for n in range(1, p["n_max"] + 1):
        row = combinatorics.stirling1_row(n)
        bell = _bell_signed_harmonic_row(n, Fraction(1))
        for r in range(0, n + 1):
            lhs = sum(
                Fraction((-1) ** (n + k) * row[k] * math.comb(k, r))
                for k in range(r, n + 1)
            )
            rhs = Fraction(math.factorial(n), math.factorial(r)) * bell[r]
            yield _exact_report("e44_8", {"n": str(n), "r": str(r)}, lhs, rhs)


def _run_e44_9(p):
    for n in range(1, p["n_max"] + 1):
        row = combinatorics.stirling1_row(n)
        nxt = combinatorics.stirling1_row(n + 1)
        for r in range(0, n + 1):
            lhs = (-1) ** (n + r) * nxt[r + 1]
            rhs = sum((-1) ** (n + k) * row[k] * math.comb(k, r) for k in range(r, n + 1))
            yield _exact_report("e44_9", {"n": str(n), "r": str(r)}, lhs, rhs)


def _run_e44_10(p):
    for n in range(0, p["n_max"] + 1):
        row = combinatorics.stirling1_bell_row(n)
        for r in range(0, n + 1):
            rhs = combinatorics.stirling1(n + 1, r + 1)
            yield _exact_report("e44_10", {"n": str(n), "r": str(r)}, row[r], rhs)


def _run_nh_identity(p):
    running = Fraction(0)  # sum_{k=1}^{n-1} H_k
    for n in range(1, p["n_max"] + 1):
        lhs = n * harmonic.H(n, 1)
        rhs = n + running
        yield _exact_report("nH_identity", {"n": str(n)}, lhs, rhs)
        running += harmonic.H(n, 1)


# ----------------------------------------------------------------------
# Numeric identity runners.
# ----------------------------------------------------------------------


def _run_shen(p):
    for q in (1, 2, 3):
        N = p["terms"] if q < 3 else min(p["terms"], 1000)
        res = zeta_series.shen_series(q, N, _FAST)
        target = const_zeta(q + 1, _FAST)
        yield _numeric_report(
            "shen_45_2",
            {"p": str(q), "N": str(N)},
            res.value,
            target,
            _tol(res, target),
        )


def _run_zeta_display(q: int):
    def run(p):
        res = zeta_series.euler_hurwitz(q, Fraction(1), p["terms"], _FAST)
        target = const_zeta(q + 1, _FAST)
        yield _numeric_report(
            f"zeta_{q + 1}", {"N": str(p["terms"])}, res.value, target, _tol(res, target)
        )

    return run


def _run_e14_1(p):
    # (1/(s+1)) sum (1/n^2) [-S_n(s)] -> zeta(s+2), via the Bell brackets
    for s in (1, 2, 3):
        N = p["terms"]
        H = H2 = H3 = 0.0
        total = 0.0
        for n in range(1, N + 1):
            H += 1.0 / n
            H2 += 1.0 / n**2
            H3 += 1.0 / n**3
            if s == 1:
                br = H
            elif s == 2:
                br = (H * H + H2) / 2
            else:
                br = (H * (H * H + 3 * H2) + 2 * H3) / 6
            total += br / n**2
        value = total / (s + 1)
        target = float(const_zeta(s + 2, _FAST))
        tail = zeta_series._spec_euler_tail(N, s) / (s + 1)
        yield _numeric_report(
            "e14_1",
            {"s": str(s), "N": str(N)},
            value,
            target,
            max(3 * tail, 1e-12 * target),
        )


def _run_e14_2(p):
    for s in (1, 2, 3):
        N = p["terms"]
        if s == 1:
            total = sum(1.0 / (n * 2.0**n) for n in range(1, N + 1))
            target = float(const_log2(_FAST))
            tol = max(6.0 / (N * 2.0**N), 1e-12 * target)
            yield _numeric_report("e14_2", {"s": "1", "N": str(N)}, total, target, tol)
            continue
        kind = _ALT_KINDS[s]
        res = zeta_series.euler_sum_partial(kind, N, _FAST)
        target = zeta_series.euler_sum_target(kind, _FAST)
        yield _numeric_report(
            "e14_2", {"s": str(s), "N": str(N)}, res.value, target, _tol(res, target)
        )


def _run_euler_sum(ident: str, kind: EulerSumKind):
    def run(p):
        res = zeta_series.euler_sum_partial(kind, p["terms"], _FAST)
        target = zeta_series.euler_sum_target(kind, _FAST)
        yield _numeric_report(
            ident, {"N": str(p["terms"])}, res.value, target, _tol(res, target)
        )

    return run


def _run_catalan_equiv(p):
    N = p["terms"]
    g = float(const_catalan(_FAST))
    a = zeta_series.catalan_series(CatalanKind.RAMANUJAN_38, N, _FAST)
    b = zeta_series.catalan_series(CatalanKind.CENTRAL_38_1, N, _FAST)
    yield _numeric_report("catalan_equiv", {"series": "ramanujan", "N": str(N)}, a.value, g, _tol(a, g))
    yield _numeric_report("catalan_equiv", {"series": "central", "N": str(N)}, b.value, g, _tol(b, g))
    corrected_a = float(a.value) + float(a.tail_estimate)
    corrected_b = float(b.value) + float(b.tail_estimate)
    yield _numeric_report(
        "catalan_equiv",
        {"series": "cross", "N": str(N)},
        corrected_a,
        corrected_b,
        1e-3,
        detail="tail-corrected partial sums",
    )


def _run_zeta_multiple(ident: str, kind: CatalanKind, scale: int, m: int):
    """A central-binomial series against scale * zeta(m)."""

    def run(p):
        res = zeta_series.catalan_series(kind, p["terms"], _FAST)
        target = scale * const_zeta(m, _FAST)
        yield _numeric_report(ident, {"N": str(p["terms"])}, res.value, target, _tol(res, target))

    return run


def _run_digamma(power: int):
    def run(p):
        res = zeta_series.digamma_half_sum(power, p["terms"], _FAST)
        target = zeta_series.digamma_half_target(power, _FAST)
        yield _numeric_report(
            f"digamma_48_{1 if power == 2 else 3}",
            {"N": str(p["terms"])},
            res.value,
            target,
            _tol(res, target),
        )

    return run


# ----------------------------------------------------------------------
# Registry.
# ----------------------------------------------------------------------


def _registry() -> List[Identity]:
    ids: List[Identity] = []

    def add(id_, kind, desc, quick, full, runner):
        ids.append(Identity(id_, kind, desc, quick, full, runner))

    for m in (1, 2, 3):
        add(
            f"fs_6_{m}",
            Kind.EXACT,
            f"alternating binomial sum of order {m} vs harmonic closed form",
            {"n_max": 50},
            {"n_max": 200},
            _run_fs_closed(m),
        )
    add(
        "fs_4_general",
        Kind.EXACT,
        "alternating binomial sums vs Bell polynomials of harmonic numbers",
        {"n_max": 30, "m_max": 6},
        {"n_max": 100, "m_max": 8},
        _run_fs_4_general,
    )
    for v in (1, 2, 3):
        add(
            f"adamchik_7_{v}",
            Kind.EXACT,
            "finite Euler-sum identity",
            {"n_max": 50},
            {"n_max": 200},
            _run_adamchik(v),
        )
    for v in "abc":
        add(
            f"spiess_15{v}",
            Kind.EXACT,
            "harmonic convolution identity",
            {"n_max": 50},
            {"n_max": 200},
            _run_spiess(v),
        )
    for v in (1, 2, 3, 4):
        add(
            f"larcombe_16_{v}",
            Kind.EXACT,
            "scaled alternating binomial identity",
            {"m_max": 5, "n_max": 20},
            {"m_max": 10, "n_max": 50},
            _run_larcombe(v),
        )
    add(
        "coppo_30",
        Kind.EXACT,
        "binomial sum vs gamma-ratio times Bell polynomial",
        {"n_max": 50, "q_max": 5, "xs": ["1", "1/2"]},
        {"n_max": 200, "q_max": 8, "xs": ["1", "1/2", "1/3", "2", "7/4", "-1/2"]},
        _run_coppo,
    )
    add(
        "g_derivative",
        Kind.EXACT,
        "derivative of the rational gamma ratio vs -g H_{n+1}(x)",
        {"n_max": 20, "xs": ["1", "1/2", "7/4"]},
        {"n_max": 50, "xs": ["1", "1/2", "1/3", "2", "7/4", "-1/2"]},
        _run_g_derivative,
    )
    add(
        "e44_3",
        Kind.EXACT,
        "rising-factorial ratio series coefficients (direct orientation)",
        {"n_max": 20},
        {"n_max": 40},
        _run_e44_3,
    )
    add(
        "e44_4",
        Kind.EXACT,
        "rising-factorial ratio series coefficients (reciprocal orientation)",
        {"n_max": 20},
        {"n_max": 40},
        _run_e44_4,
    )
    add(
        "e44_7",
        Kind.EXACT,
        "weighted Stirling sums vs Pochhammer times Bell polynomial",
        {"n_max": 12, "us": ["1", "1/2", "3"]},
        {"n_max": 20, "us": ["1", "1/2", "3"]},
        _run_e44_7,
    )
    add(
        "e44_8",
        Kind.EXACT,
        "binomial-weighted Stirling sums at unit shift",
        {"n_max": 20},
        {"n_max": 30},
        _run_e44_8,
    )
    add(
        "e44_9",
        Kind.EXACT,
        "Stirling recurrence under binomial convolution",
        {"n_max": 20},
        {"n_max": 30},
        _run_e44_9,
    )
    add(
        "e44_10",
        Kind.EXACT,
        "Stirling numbers from Bell polynomials of harmonic numbers",
        {"n_max": 30},
        {"n_max": 50},
        _run_e44_10,
    )
    add(
        "nH_identity",
        Kind.EXACT,
        "n H_n = n + sum of lower harmonic numbers",
        {"n_max": 50},
        {"n_max": 200},
        _run_nh_identity,
    )
    add(
        "shen_45_2",
        Kind.NUMERIC,
        "Stirling-number series for zeta(p+1)",
        {"terms": 1000},
        {"terms": 10000},
        _run_shen,
    )
    for s in (2, 3, 4, 5):
        add(
            f"alt_{s}",
            Kind.NUMERIC,
            "alternating zeta from harmonic Bell brackets with 1/(n 2^n) weights",
            {"terms": 80},
            {"terms": 80},
            _run_euler_sum(f"alt_{s}", _ALT_KINDS[s]),
        )
    for q in (2, 3, 4):
        add(
            f"zeta_{q + 1}",
            Kind.NUMERIC,
            "zeta display from the shifted-harmonic Bell series at x = 1",
            {"terms": 2000},
            {"terms": 10000},
            _run_zeta_display(q),
        )
    add(
        "e14_1",
        Kind.NUMERIC,
        "inner alternating sums summed against 1/n^2",
        {"terms": 2000},
        {"terms": 10000},
        _run_e14_1,
    )
    add(
        "e14_2",
        Kind.NUMERIC,
        "inner alternating sums summed against 1/(n 2^n)",
        {"terms": 60},
        {"terms": 60},
        _run_e14_2,
    )
    add("e41", Kind.NUMERIC, "quadratic Euler sum vs 3! zeta(4)", {"terms": 10000}, {"terms": 100000}, _run_euler_sum("e41", EulerSumKind.E41))
    add("e43", Kind.NUMERIC, "cubic Euler sum vs 4! zeta(5)", {"terms": 10000}, {"terms": 100000}, _run_euler_sum("e43", EulerSumKind.E43))
    add("e43_2", Kind.NUMERIC, "quartic Euler sum vs 5! zeta(6)", {"terms": 10000}, {"terms": 100000}, _run_euler_sum("e43_2", EulerSumKind.E43_2))
    add("e45_8", Kind.NUMERIC, "four-sum combination vs 12 zeta(5)", {"terms": 10000}, {"terms": 100000}, _run_euler_sum("e45_8", EulerSumKind.E45_8))
    add("e45_10", Kind.NUMERIC, "two-sum combination vs (1/2) 5! zeta(6)", {"terms": 10000}, {"terms": 100000}, _run_euler_sum("e45_10", EulerSumKind.E45_10))
    add(
        "catalan_equiv",
        Kind.NUMERIC,
        "the two central-binomial series for Catalan's constant",
        {"terms": 10000},
        {"terms": 100000},
        _run_catalan_equiv,
    )
    add(
        "zeta2_37",
        Kind.NUMERIC,
        "duplication-formula central-binomial series for zeta(2)",
        {"terms": 10000},
        {"terms": 1000000},
        _run_zeta_multiple("zeta2_37", CatalanKind.ZETA2_37, 1, 2),
    )
    add(
        "zeta3_half_45_6",
        Kind.NUMERIC,
        "central-binomial series for zeta(3, 1/2) = 7 zeta(3)",
        {"terms": 10000},
        {"terms": 10000},
        _run_zeta_multiple("zeta3_half_45_6", CatalanKind.ZETA3_HALF_45_6, 7, 3),
    )
    add(
        "digamma_48_1",
        Kind.NUMERIC,
        "digamma-weighted sum over odd squares",
        {"terms": 10000},
        {"terms": 100000},
        _run_digamma(2),
    )
    add(
        "digamma_48_3",
        Kind.NUMERIC,
        "digamma-weighted sum over odd fourth powers",
        {"terms": 1000},
        {"terms": 1000},
        _run_digamma(4),
    )
    return ids


_REGISTRY: List[Identity] = _registry()
_BY_ID: Dict[str, Identity] = {i.id: i for i in _REGISTRY}


def identity_ids() -> List[str]:
    return [i.id for i in _REGISTRY]


def _merge_overrides(
    ident: str, base: Dict[str, object], overrides: Optional[Dict[str, object]]
) -> Dict[str, object]:
    """The sweep parameters with the given overrides applied.

    Keys are n_max, q_max, m_max, terms and x (which replaces the list of
    shifts xs); None values are ignored.  An override the identity has no
    sweep parameter for raises ValueError.
    """
    p = dict(base)
    unknown = []
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        param = "xs" if key == "x" else key
        if param not in p:
            unknown.append("--" + key.replace("_", "-"))
        else:
            p[param] = [str(value)] if key == "x" else int(value)
    if unknown:
        raise ValueError(f"{ident} takes no {', '.join(unknown)}")
    return p


def run_identity(
    ident: str,
    overrides: Optional[Dict[str, object]] = None,
    profile: Profile = Profile.FULL,
) -> List[Report]:
    """Run one registered identity over its sweep; deterministic order."""
    if ident not in _BY_ID:
        raise KeyError(f"unknown identity: {ident}")
    identity = _BY_ID[ident]
    base = identity.full if profile is Profile.FULL else identity.quick
    params = _merge_overrides(ident, base, overrides)
    return list(identity.runner(params))


def run_all(profile: Profile = Profile.QUICK) -> List[Report]:
    """Run every registered identity; QUICK caps the sweeps for speed."""
    out: List[Report] = []
    for identity in _REGISTRY:
        params = identity.quick if profile is Profile.QUICK else identity.full
        out.extend(identity.runner(dict(params)))
    return out


def summarize(reports: List[Report]) -> Dict[str, int]:
    return {
        "identities": len({r.identity for r in reports}),
        "reports": len(reports),
        "pass": sum(r.status == "PASS" for r in reports),
        "fail": sum(r.status == "FAIL" for r in reports),
        "skip": sum(r.status == "SKIP" for r in reports),
    }
