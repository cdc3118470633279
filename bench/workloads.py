"""Seeded operation lists for the benchmark workloads.

Each operation is one ``ehz`` CLI invocation.  The formulas, orders and
term budgets of a workload are fixed; the seed only draws each request's
rational shift and the order of the requests, so every seed does
comparable work.  The shifts share the denominator 4 because the cost of
the exact-rational routes depends on it (Hasse at s = 2 and x = 1/2 takes
half the time it takes at x = 1/4).  The polylog identities need
y in (0, 1/2], so they draw from their own set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

SHIFTS: Tuple[str, ...] = ("1/4", "3/4", "5/4", "7/4")
POLYLOG_SHIFTS: Tuple[str, ...] = ("1/4", "1/3", "1/2")

#: identity ids of the verify registry, in registry order
VERIFY_IDS: Tuple[str, ...] = (
    "fs_6_1", "fs_6_2", "fs_6_3", "fs_4_general",
    "adamchik_7_1", "adamchik_7_2", "adamchik_7_3",
    "spiess_15a", "spiess_15b", "spiess_15c",
    "larcombe_16_1", "larcombe_16_2", "larcombe_16_3", "larcombe_16_4",
    "coppo_30", "g_derivative",
    "e44_3", "e44_4", "e44_7", "e44_8", "e44_9", "e44_10",
    "nH_identity", "shen_45_2", "alt_2", "alt_3", "alt_4", "alt_5",
    "zeta_3", "zeta_4", "zeta_5", "e14_1", "e14_2",
    "e41", "e43", "e43_2", "e45_8", "e45_10",
    "catalan_equiv", "zeta2_37", "zeta3_half_45_6", "digamma_48_1", "digamma_48_3",
)


@dataclass(frozen=True)
class Request:
    """One request of a workload before the seed fixes its shift."""

    command: str  # eval | converge | verify | constants
    formula: str = ""  # the formula, or the identity id of a verify request
    param: str = ""  # "s" or "q" for eval/converge
    value: str = ""
    terms: Tuple[int, ...] = ()
    mode: str = ""
    shifts: Optional[Tuple[str, ...]] = None  # None: the formula takes no --x
    extra: Tuple[str, ...] = ()

    @property
    def key(self) -> str:
        """Stable name of the request without its shift."""
        if self.command == "verify":
            return f"verify {self.formula}"
        if self.command == "constants":
            return f"constants {' '.join(self.extra)}"
        budget = ",".join(str(n) for n in self.terms)
        param = f" {self.param}={self.value}" if self.param else ""
        return f"{self.command} {self.formula}{param} N={budget} {self.mode}"


@dataclass(frozen=True)
class Op:
    request: Request
    x: Optional[str]
    argv: Tuple[str, ...]

    @property
    def name(self) -> str:
        return self.request.key if self.x is None else f"{self.request.key} x={self.x}"

    @property
    def terms(self) -> int:
        """Sum of the term budgets this operation evaluates."""
        return sum(self.request.terms)


def _eval(formula, param, value, n, mode, shifts=SHIFTS) -> Request:
    return Request("eval", formula, param, str(value), (n,), mode, shifts)


def _requests_eval() -> List[Request]:
    # FAST at the README and acceptance budgets: float per-term loops,
    # float bell_eval arguments at q = 7, double-precision references
    out: List[Request] = []
    for q in (1, 2, 4, 7):
        out.append(_eval("euler-hurwitz", "q", q, 100_000, "fast"))
        out.append(_eval("stirling-route", "q", q, 100_000, "fast"))
    for q in (4, 5, 6):
        out.append(_eval("mixed-q", "q", q, 100_000, "fast"))
    for q in (1, 2, 3):
        out.append(_eval("shen", "q", q, 10_000, "fast", None))
    out.append(_eval("catalan-ramanujan", "", "", 100_000, "fast", None))
    out.append(_eval("catalan-central", "", "", 100_000, "fast", None))
    out.append(_eval("zeta2-dup", "", "", 1_000_000, "fast", None))
    out.append(_eval("zeta3-half", "", "", 10_000, "fast", None))
    out.append(_eval("digamma-half-sum", "q", 2, 10_000, "fast", None))
    out.append(_eval("digamma-half-sum", "q", 4, 1_000, "fast", None))
    out.append(Request("converge", "euler-hurwitz", "q", "1", (1000, 10_000, 100_000), "fast", SHIFTS))
    # HIGH at 30 digits and N <= 1e4: mpmath precision scopes, the
    # exact-Fraction Hasse branch and the high-digit constants
    out.append(_eval("hasse", "s", 2, 10_000, "high"))
    for q in (1, 2, 4):
        out.append(_eval("euler-hurwitz", "q", q, 10_000, "high"))
    out.append(_eval("stirling-route", "q", 2, 10_000, "high"))
    out.append(_eval("hasse", "s", 2.5, 300, "high"))
    out.append(_eval("sondow-alt", "s", 1, 60, "high", None))
    out.append(_eval("alt-hurwitz", "s", 1.5, 200, "high"))
    out.append(_eval("polylog-14-3", "s", 2, 200, "high", POLYLOG_SHIFTS))
    out.append(_eval("polylog-14-4", "s", 2, 200, "high", POLYLOG_SHIFTS))
    out.append(Request("constants", extra=("--digits", "50")))
    out.append(Request("constants", extra=("--digits", "300")))
    return out


def _requests_verify_full() -> List[Request]:
    return [Request("verify", ident) for ident in VERIFY_IDS]


WORKLOADS = {
    "verify-full": _requests_verify_full,
    "eval": _requests_eval,
}


def _argv(req: Request, x: Optional[str]) -> Tuple[str, ...]:
    if req.command == "verify":
        # --id runs the identity's full-profile sweep, as --all --profile full does
        return ("verify", "--id", req.formula, "--format", "json")
    if req.command == "constants":
        return ("constants",) + req.extra
    argv = [req.command, "--formula", req.formula]
    if req.param:
        argv += [f"--{req.param}", req.value]
    if x is not None:
        argv += ["--x", x]
    argv += ["--terms", ",".join(str(n) for n in req.terms), "--mode", req.mode, "--format", "json"]
    return tuple(argv)


def generate(workload: str, seed: int) -> List[Op]:
    """The operation list of ``workload`` for ``seed``; same seed, same list."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for req in WORKLOADS[workload]():
        x = rng.choice(req.shifts) if req.shifts else None
        ops.append(Op(req, x, _argv(req, x)))
    rng.shuffle(ops)
    return ops

