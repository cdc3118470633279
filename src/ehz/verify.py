"""Registry of executable identities with parameter sweeps.

EXACT identities compare BigRationals for strict equality.  Where both
sides are integers over known scales (``coppo_30``, ``e44_7``), they are
compared by integer cross-multiplication, and only the printed sides are
reduced to Fractions: one per PASS report, both sides of a FAIL.  A
stateless EXACT identity is a grid of points and a function of a point
that returns both sides (:func:`_exact`); a row that several points read
is memoised where it is built (``combinatorics.stirling1_row``,
``stirling1_bell_row``, ``harmonic.H``).  Four EXACT identities keep a
loop, because their points share work that no memo holds: ``coppo_30``
reads one difference table per shift, ``adamchik_7_3`` carries its nested
double sum across n, ``e44_7`` builds one Bell row and one set of scales
per (n, u), and ``nH_identity`` carries its running sum of H_k.

A NUMERIC identity is a list of rows (params, formula, parameter, x,
scale) over :data:`ehz.zeta_series.FORMULAS`: each row is evaluated in FAST
mode through :func:`~ehz.zeta_series.evaluate_against_reference`, and
scale times the partial sum must lie within max(3 scale tail, 1e-12 |scale
reference|) of scale times the reference -- three tail estimates, with a
12-significant-digit floor for geometrically convergent series, whose tails
drop below double rounding noise.  The term budget is the row's params["N"].  The one
exception is catalan_equiv's last "cross" report, which compares the two
Catalan series' tail-corrected partial sums with each other within 1e-3.

Each identity checker returns both sides rather than a boolean: FAIL
reports carry the sides verbatim, PASS reports carry them abbreviated.
Pole-hitting parameter combinations yield SKIP reports rather than being
silently omitted.  :func:`run_identity` and :func:`run_all` are generators:
reports are yielded one at a time, in registry order, so a caller holds
only what it keeps of them.
"""

from __future__ import annotations

import decimal
import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from . import combinatorics, gamma_tools, harmonic, zeta_series
from .numerics import DomainError, Mode, NumericError, PrecisionContext
from .zeta_series import EvalRequest, Formula

__all__ = ["Kind", "Profile", "Identity", "Report", "identity_ids", "run_identity", "run_all"]


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


@dataclass(frozen=True)
class Identity:
    id: str
    kind: Kind
    description: str
    quick: Dict[str, object]
    full: Dict[str, object]
    runner: Callable[[Dict[str, object]], Iterator[Report]]
    caps: Dict[str, int]  # the largest override of each integer sweep parameter


def _text(v) -> str:
    """str(v); decimal writes an int or Fraction with more digits than str() takes."""
    try:
        return str(v)
    except ValueError:
        if not isinstance(v, (int, Fraction)):
            raise
        if v.denominator != 1:
            return f"{_text(v.numerator)}/{_text(v.denominator)}"
        return str(decimal.Decimal(v.numerator))


#: the longest side a PASS report prints in full
_SHORT_LIMIT = 48


def _short(v) -> str:
    s = _text(v)
    if len(s) <= _SHORT_LIMIT:
        return s
    return s[: _SHORT_LIMIT - 10] + f"...[{len(s)} chars]"


def _exact_report(ident: str, params: Dict[str, str], lhs, rhs) -> Report:
    if lhs == rhs:
        text = _short(lhs)  # the sides are equal: format once
        return Report(ident, params, text, text, "PASS")
    return Report(ident, params, _text(lhs), _text(rhs), "FAIL", "exact mismatch")


def _numeric_report(
    ident: str, params: Dict[str, str], value, target, err: float, tol: float, detail: str = ""
) -> Report:
    status = "PASS" if err <= tol else "FAIL"
    info = f"abs_error={err:.3e} tolerance={tol:.3e}"
    if detail:
        info = f"{detail} {info}"
    return Report(ident, params, repr(float(value)), repr(float(target)), status, info)


_FAST = PrecisionContext(30, Mode.FAST)


# ----------------------------------------------------------------------
# Exact identity runners.
# ----------------------------------------------------------------------


def _exact(ident: str, grid: Callable[[Dict[str, object]], Iterator[dict]], sides: Callable):
    """Runner of a stateless EXACT identity: one report per grid point.

    ``grid(p)`` yields the points of the sweep p, each a dict of keyword
    arguments of ``sides``, which returns (lhs, rhs); the report params are
    the point's values as strings, in its key order.  A DomainError gives a
    SKIP report.
    """

    def run(p):
        for point in grid(p):
            params = {k: str(v) for k, v in point.items()}
            try:
                lhs, rhs = sides(**point)
            except DomainError as exc:
                yield Report(ident, params, "", "", "SKIP", str(exc))
                continue
            yield _exact_report(ident, params, lhs, rhs)

    return run


def _grid(**starts: int):
    """Grid over the product of the axes name = start..p[name + "_max"],
    the first axis outermost."""

    def grid(p):
        axes = [range(start, p[f"{name}_max"] + 1) for name, start in starts.items()]
        for values in itertools.product(*axes):
            yield dict(zip(starts, values))

    return grid


def _fs_6(m: int, n: int):
    """-S_n(m) and its closed form in H_n, H_n^(2), H_n^(3), for m = 1, 2, 3."""
    lhs = -harmonic.alt_binom_sum(n, m)
    h1, h2, h3 = harmonic.H(n, 1), harmonic.H(n, 2), harmonic.H(n, 3)
    if m == 1:
        rhs = h1
    elif m == 2:
        rhs = (h1 * h1 + h2) / 2
    else:
        rhs = h1**3 / 6 + h1 * h2 / 2 + h3 / 3
    return lhs, rhs


def _run_adamchik_7_3(p):
    inner = Fraction(0)  # sum_{j<=n} H_j / j
    dbl = Fraction(0)  # sum_{k<=n} (1/k) sum_{j<=k} H_j / j
    for n in range(1, p["n_max"] + 1):
        lhs, rhs = harmonic.adamchik_check(3, n)
        inner += harmonic.H(n, 1) / n
        dbl += inner / n
        # the same quantity equals -2 S_n(3) and twice the nested double sum
        alt = -2 * harmonic.alt_binom_sum(n, 3)
        if lhs == rhs and not (lhs == alt == 2 * dbl):
            yield Report(
                "adamchik_7_3",
                {"n": str(n)},
                _text(lhs),
                f"-2S_n(3)={_text(alt)}, double={_text(2 * dbl)}",
                "FAIL",
                "cross-forms disagree",
            )
            continue
        yield _exact_report("adamchik_7_3", {"n": str(n)}, lhs, rhs)


def _run_coppo(p):
    xs = [Fraction(v) for v in p["xs"]]
    for x in xs:
        try:
            sweep = harmonic.coppo_sweep(p["n_max"], p["q_max"], x)
            xtext = str(x)
            for n, q, lhs, rhs in sweep:
                yield _exact_report("coppo_30", {"n": str(n), "q": str(q), "x": xtext}, lhs, rhs)
        except DomainError as exc:
            yield Report("coppo_30", {"x": str(x)}, "", "", "SKIP", str(exc))


def _g_derivative_grid(p):
    for x in p["xs"]:
        for n in range(0, p["n_max"] + 1, max(1, p["n_max"] // 10)):
            yield {"n": n, "x": Fraction(x)}


def _e44_3(n: int):
    coeffs = gamma_tools.pochhammer_ratio_coeffs(n - 1, Fraction(1), 3)
    h1, h2, h3 = harmonic.H(n - 1, 1), harmonic.H(n - 1, 2), harmonic.H(n - 1, 3)
    expect = (
        Fraction(1),
        h1,
        (h1 * h1 - h2) / 2,
        (h1**3 - 3 * h1 * h2 + 2 * h3) / 6,
    )
    return coeffs, expect


def _e44_4(n: int):
    b = [(-1) ** m * harmonic.H(n - 1, m) for m in range(1, 4)]
    coeffs = combinatorics.log_to_exp_series(Fraction(0), b, 3)
    h1, h2, h3 = harmonic.H(n - 1, 1), harmonic.H(n - 1, 2), harmonic.H(n - 1, 3)
    expect = (
        Fraction(1),
        -h1,
        (h1 * h1 + h2) / 2,
        -(h1**3 + 3 * h1 * h2 + 2 * h3) / 6,
    )
    return coeffs, expect


def _run_e44_7(p):
    # With u = a/b both sides are integers over known scales: the left side
    # is r! S / b^(n-r) with S = sum_k |s(n,k)| C(k,r) a^(k-r) b^(n-k), the
    # right side (u)_n Y_r = P bell[r] / (b^n D^r) with P = prod (a + j b).
    # They are equal iff r! S (b D)^r == P bell[r]; only the printed sides
    # are reduced.
    for u in [Fraction(v) for v in p["us"]]:
        a, b = u.numerator, u.denominator
        for n in range(1, p["n_max"] + 1):
            row = combinatorics.stirling1_row(n)
            D, bell = harmonic.signed_bell_row(n, u)
            poch = math.prod(a + j * b for j in range(n))
            apow = [a**i for i in range(n + 1)]
            bpow = [b**i for i in range(n + 1)]
            for r in range(0, n + 1):
                s = sum(
                    (-1) ** (n + k) * row[k] * math.comb(k, r) * apow[k - r] * bpow[n - k]
                    for k in range(r, n + 1)
                )
                left = math.factorial(r) * s
                lhs = Fraction(left, bpow[n - r])
                if left * (b * D) ** r == poch * bell[r]:
                    rhs = lhs
                else:
                    rhs = Fraction(poch * bell[r], bpow[n] * D**r)
                yield _exact_report(
                    "e44_7", {"n": str(n), "r": str(r), "u": str(u)}, lhs, rhs
                )


def _triangle(n0: int):
    """Grid over the (n, r) triangle n = n0..p["n_max"], r = 0..n."""

    def grid(p):
        for n in range(n0, p["n_max"] + 1):
            for r in range(0, n + 1):
                yield {"n": n, "r": r}

    return grid


def _stirling_binomial(n: int, r: int) -> int:
    """sum_k (-1)^(n+k) s(n,k) C(k,r): the left side of (4.8), the right of (4.9)."""
    row = combinatorics.stirling1_row(n)
    return sum((-1) ** (n + k) * row[k] * math.comb(k, r) for k in range(r, n + 1))


def _e44_8(n: int, r: int):
    # (n!/r!) Y_r(H_n, -1! H_n^(2), ...) is (-1)^(n+r) s(n+1, r+1) in its Bell form
    return _stirling_binomial(n, r), (-1) ** (n + r) * combinatorics.stirling1_bell(n, r)


def _e44_9(n: int, r: int):
    lhs = (-1) ** (n + r) * combinatorics.stirling1(n + 1, r + 1)
    return lhs, _stirling_binomial(n, r)


def _run_nh_identity(p):
    running = Fraction(0)  # sum_{k=1}^{n-1} H_k
    for n in range(1, p["n_max"] + 1):
        lhs = n * harmonic.H(n, 1)
        rhs = n + running
        yield _exact_report("nH_identity", {"n": str(n)}, lhs, rhs)
        running += harmonic.H(n, 1)


# ----------------------------------------------------------------------
# Numeric identities: rows through the formula table.
# ----------------------------------------------------------------------

#: (report params, formula, its parameter, x, scale); the term budget is params["N"]
Row = Tuple[Dict[str, str], Formula, object, Optional[int], int]


def _run_rows(ident: str, rows: Callable[[int], List[Row]], cross: bool = False):
    """Runner of a NUMERIC identity whose rows(N) are evaluated at the swept N.

    Each row's partial sum times scale must lie within
    max(3 scale tail, 1e-12 |scale reference|) of its reference times
    scale.  With ``cross``, a last report compares the tail-corrected
    partial sums of the two rows with each other, within 1e-3.
    """

    def run(p):
        corrected = []
        for params, formula, param, x, scale in rows(p["terms"]):
            req = EvalRequest(formula, param, x, int(params["N"]), _FAST)
            ev = zeta_series.evaluate_against_reference(req)
            value, target = scale * ev.result.value, scale * ev.reference
            tail = scale * ev.result.tail_estimate
            tol = max(3 * tail, 1e-12 * abs(target))
            yield _numeric_report(ident, params, value, target, scale * ev.abs_error, tol)
            corrected.append(value + tail)
        if cross:
            params = {"series": "cross", "N": str(p["terms"])}
            detail = "tail-corrected partial sums"
            a, b = corrected
            yield _numeric_report(ident, params, a, b, abs(a - b), 1e-3, detail=detail)

    return run


def _one_row(formula: Formula, param=None, x=None, scale: int = 1):
    """Rows of an identity that is one formula at the swept N."""
    return lambda N: [({"N": str(N)}, formula, param, x, scale)]


def _s_rows(formula: Formula, shift: int, x=None):
    """Rows s = 1, 2, 3 of one formula at parameter s + shift."""
    return lambda N: [({"s": str(s), "N": str(N)}, formula, s + shift, x, 1) for s in (1, 2, 3)]


def _shen_rows(N: int) -> List[Row]:
    return [
        ({"p": str(q), "N": str(min(N, 1000) if q == 3 else N)}, Formula.SHEN, q, None, 1)
        for q in (1, 2, 3)
    ]


# ----------------------------------------------------------------------
# Registry.
# ----------------------------------------------------------------------


def _registry() -> List[Identity]:
    ids: List[Identity] = []

    def add(id_, kind, desc, quick, full, runner, caps=None):
        # an override may ask for up to 4 times the full sweep, unless caps says
        # less (the times quoted are single runs on a 2-vCPU host)
        caps = {k: 4 * v for k, v in full.items() if isinstance(v, int)} | (caps or {})
        ids.append(Identity(id_, kind, desc, quick, full, runner, caps))

    def exact(id_, desc, quick, full, grid, sides, caps=None):
        add(id_, Kind.EXACT, desc, quick, full, _exact(id_, grid, sides), caps)

    for m in (1, 2, 3):
        exact(
            f"fs_6_{m}",
            f"alternating binomial sum of order {m} vs harmonic closed form",
            {"n_max": 50},
            {"n_max": 200},
            _grid(n=1),
            lambda n, m=m: _fs_6(m, n),
        )
    exact(
        "fs_4_general",
        "alternating binomial sums vs Bell polynomials of harmonic numbers",
        {"n_max": 30, "m_max": 6},
        {"n_max": 100, "m_max": 8},
        _grid(n=1, m=1),
        lambda n, m: (harmonic.alt_binom_sum(n, m), harmonic.alt_binom_sum_bell(n, m)),
        {"m_max": 12},  # over 60 s at m_max 32 with n_max 400
    )
    for v in (1, 2):
        exact(
            f"adamchik_7_{v}",
            "finite Euler-sum identity",
            {"n_max": 50},
            {"n_max": 200},
            _grid(n=1),
            lambda n, v=v: harmonic.adamchik_check(v, n),
        )
    add(
        "adamchik_7_3",
        Kind.EXACT,
        "finite Euler-sum identity",
        {"n_max": 50},
        {"n_max": 200},
        _run_adamchik_7_3,
    )
    for v in "abc":
        exact(
            f"spiess_15{v}",
            "harmonic convolution identity",
            {"n_max": 50},
            {"n_max": 200},
            _grid(n=1),
            lambda n, v=v: harmonic.spiess_check(v, n),
        )
    for v in (1, 2, 3, 4):
        exact(
            f"larcombe_16_{v}",
            "scaled alternating binomial identity",
            {"m_max": 5, "n_max": 20},
            {"m_max": 10, "n_max": 50},
            _grid(m=1, n=0),
            lambda m, n, v=v: harmonic.larcombe_check(v, m, n),
        )
    add(
        "coppo_30",
        Kind.EXACT,
        "binomial sum vs gamma-ratio times Bell polynomial",
        {"n_max": 50, "q_max": 5, "xs": ["1", "1/2"]},
        {"n_max": 200, "q_max": 8, "xs": ["1", "1/2", "1/3", "2", "7/4", "-1/2"]},
        _run_coppo,
        {"n_max": 400, "q_max": 8},  # 5 s together, 5 s at (200, 16); 31 s at (400, 16)
    )
    exact(
        "g_derivative",
        "derivative of the rational gamma ratio vs -g H_{n+1}(x)",
        {"n_max": 20, "xs": ["1", "1/2", "7/4"]},
        {"n_max": 50, "xs": ["1", "1/2", "1/3", "2", "7/4", "-1/2"]},
        _g_derivative_grid,
        lambda n, x: gamma_tools.gamma_ratio_derivative_sides(n, x),
    )
    exact(
        "e44_3",
        "rising-factorial ratio series coefficients (direct orientation)",
        {"n_max": 20},
        {"n_max": 40},
        _grid(n=2),
        _e44_3,
    )
    exact(
        "e44_4",
        "rising-factorial ratio series coefficients (reciprocal orientation)",
        {"n_max": 20},
        {"n_max": 40},
        _grid(n=2),
        _e44_4,
    )
    add(
        "e44_7",
        Kind.EXACT,
        "weighted Stirling sums vs Pochhammer times Bell polynomial",
        {"n_max": 12, "us": ["1", "1/2", "3"]},
        {"n_max": 20, "us": ["1", "1/2", "3"]},
        _run_e44_7,
    )
    exact(
        "e44_8",
        "binomial-weighted Stirling sums at unit shift",
        {"n_max": 20},
        {"n_max": 30},
        _triangle(1),
        _e44_8,
        {"n_max": 80},  # 0.9 s; 6.5 s at 120
    )
    exact(
        "e44_9",
        "Stirling recurrence under binomial convolution",
        {"n_max": 20},
        {"n_max": 30},
        _triangle(1),
        _e44_9,
    )
    exact(
        "e44_10",
        "Stirling numbers from Bell polynomials of harmonic numbers",
        {"n_max": 30},
        {"n_max": 50},
        _triangle(0),
        lambda n, r: (combinatorics.stirling1_bell(n, r), combinatorics.stirling1(n + 1, r + 1)),
        {"n_max": 100},  # 2.3 s; over 40 s at 200
    )
    add(
        "nH_identity",
        Kind.EXACT,
        "n H_n = n + sum of lower harmonic numbers",
        {"n_max": 50},
        {"n_max": 200},
        _run_nh_identity,
    )

    def numeric(id_, desc, quick, full, rows, cross=False):
        add(id_, Kind.NUMERIC, desc, {"terms": quick}, {"terms": full}, _run_rows(id_, rows, cross))

    numeric("shen_45_2", "Stirling-number series for zeta(p+1)", 1000, 10000, _shen_rows)
    for s in (2, 3, 4, 5):
        desc = "alternating zeta from harmonic Bell brackets with 1/(n 2^n) weights"
        numeric(f"alt_{s}", desc, 80, 80, _one_row(Formula.SONDOW_ALT, s))
    for q in (2, 3, 4):
        desc = "zeta display from the shifted-harmonic Bell series at x = 1"
        numeric(f"zeta_{q + 1}", desc, 2000, 10000, _one_row(Formula.EULER_HURWITZ, q, 1))
    numeric(
        "e14_1",
        "inner alternating sums summed against 1/n^2 (an alias: it re-runs the"
        " euler-hurwitz series of zeta_3, zeta_4 and zeta_5)",
        2000, 10000,
        _s_rows(Formula.EULER_HURWITZ, 1, 1),
    )
    numeric(
        "e14_2",
        "inner alternating sums summed against 1/(n 2^n) (an alias: it re-runs"
        " sondow-alt, the series of alt_2 and alt_3)",
        60, 60,
        _s_rows(Formula.SONDOW_ALT, 0),
    )
    for id_, q, desc in (
        ("e41", 3, "quadratic Euler sum vs 3! zeta(4) (an alias: it re-runs the series of zeta_4)"),
        ("e43", 4, "cubic Euler sum vs 4! zeta(5) (an alias: it re-runs the series of zeta_5)"),
        ("e43_2", 5, "quartic Euler sum vs 5! zeta(6)"),
    ):
        numeric(id_, desc, 10000, 100000, _one_row(Formula.EULER_HURWITZ, q, 1, math.factorial(q)))
    numeric(
        "e45_8", "four-sum combination vs 12 zeta(5)", 10000, 100000,
        _one_row(Formula.EULER_SUM_45_8),
    )
    numeric(
        "e45_10", "two-sum combination vs (1/2) 5! zeta(6)", 10000, 100000,
        _one_row(Formula.EULER_SUM_45_10),
    )
    numeric(
        "catalan_equiv", "the two central-binomial series for Catalan's constant", 10000, 100000,
        lambda N: [
            ({"series": "ramanujan", "N": str(N)}, Formula.CATALAN_RAMANUJAN, None, None, 1),
            ({"series": "central", "N": str(N)}, Formula.CATALAN_CENTRAL, None, None, 1),
        ],
        cross=True,
    )
    numeric(
        "zeta2_37",
        "duplication-formula central-binomial series for zeta(2) (an alias: it"
        " re-runs euler-hurwitz at q = 1, x = 1/2)",
        10000, 1000000,
        _one_row(Formula.ZETA2_DUP),
    )
    numeric(
        "zeta3_half_45_6", "central-binomial series for zeta(3, 1/2) = 7 zeta(3)", 10000, 10000,
        _one_row(Formula.ZETA3_HALF),
    )
    numeric(
        "digamma_48_1", "digamma-weighted sum over odd squares", 10000, 100000,
        _one_row(Formula.DIGAMMA_HALF_SUM, 2),
    )
    numeric(
        "digamma_48_3", "digamma-weighted sum over odd fourth powers", 1000, 1000,
        _one_row(Formula.DIGAMMA_HALF_SUM, 4),
    )
    return ids


_REGISTRY: List[Identity] = _registry()
_BY_ID: Dict[str, Identity] = {i.id: i for i in _REGISTRY}


def identity_ids() -> List[str]:
    return [i.id for i in _REGISTRY]


def _merge_overrides(
    identity: Identity, base: Dict[str, object], overrides: Optional[Dict[str, object]]
) -> Dict[str, object]:
    """The sweep parameters with the given overrides applied.

    Keys are n_max, q_max, m_max, terms and x (which replaces the list of
    shifts xs); None values are ignored.  An override the identity has no
    sweep parameter for, or an integer override below 1 or above the
    identity's cap, raises ValueError.
    """
    ident, p = identity.id, dict(base)
    unknown = []
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        param = "xs" if key == "x" else key
        flag = "--" + key.replace("_", "-")
        if param not in p:
            unknown.append(flag)
        elif key == "x":
            p[param] = [str(value)]
        elif int(value) < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")
        elif int(value) > identity.caps[param]:
            raise ValueError(f"{flag} must be <= {identity.caps[param]} for {ident}, got {value}")
        else:
            p[param] = int(value)
    if unknown:
        raise ValueError(f"{ident} takes no {', '.join(unknown)}")
    return p


def run_identity(
    ident: str,
    overrides: Optional[Dict[str, object]] = None,
    profile: Profile = Profile.FULL,
) -> Iterator[Report]:
    """Yield the reports of one registered identity's sweep, in a
    deterministic order.

    The id and every override are checked when iteration starts, before the
    first report and before any work: a bad one raises KeyError or
    ValueError from the first ``next()``.  An error raised later by the
    runner is raised again, from the ``next()`` that hit it, as a
    NumericError naming the id; the reports yielded before it stand.
    """
    if ident not in _BY_ID:
        raise KeyError(f"unknown identity: {ident}")
    identity = _BY_ID[ident]
    base = identity.full if profile is Profile.FULL else identity.quick
    params = _merge_overrides(identity, base, overrides)
    try:
        yield from identity.runner(params)
    except (ArithmeticError, LookupError, ValueError) as exc:
        raise NumericError(f"{ident}: {exc}") from exc


def run_all(profile: Profile = Profile.QUICK) -> Iterator[Report]:
    """Yield the reports of every registered identity, in registry order,
    through :func:`run_identity`; QUICK caps the sweeps for speed."""
    for identity in _REGISTRY:
        yield from run_identity(identity.id, None, profile)
