"""Command-line front end: series evaluation, identity verification,
convergence benchmarking, and reference constants.

Exit codes: 0 success (all PASS for verify), 1 verification failure,
2 usage error, 3 numeric/domain error, 141 output pipe closed by the
reader.  Output is byte-deterministic for identical invocations except the
wall-clock ``seconds`` column of ``converge``.  The optional environment
variable ``EHZ_PRECISION`` overrides the default working precision (30
digits) when ``--precision`` is not given; either must lie in
15..``MAX_CONSTANT_DIGITS`` (300).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction
from typing import List, Optional

import mpmath

from . import __version__
from .numerics import (
    MAX_CONSTANT_DIGITS,
    DomainError,
    Mode,
    NumericError,
    PrecisionContext,
    const_catalan,
    const_gamma,
    const_pi,
    const_zeta,
    working_precision,
)
from .verify import Profile, run_all, run_identity, summarize
from .zeta_series import (
    FORMULAS,
    EvalRequest,
    Formula,
    convergence_table,
    evaluate,
    fit_convergence_exponent,
    reference_value,
)

USAGE_ERROR = 2
NUMERIC_ERROR = 3
BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a process the signal ends

_RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")

def _parse_rational(text: str) -> Fraction:
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a p/q rational: {text!r} (decimals are rejected)")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("x must be p/q with q ≠ 0") from None


def _parse_s(text: str):
    try:
        return int(text)
    except ValueError:
        s = float(text)
    if not math.isfinite(s):
        raise ValueError(f"s must be finite, got {text!r}")
    return s


def _fmt_real(v, digits: int) -> str:
    if isinstance(v, float):
        return repr(v)
    with working_precision(digits + 10):
        return mpmath.nstr(v, digits, strip_zeros=False)


def _auto_mode(digits: int, terms: int) -> Mode:
    return Mode.HIGH if digits > 15 and terms <= 10**4 else Mode.FAST


def _build_context(args, terms: int) -> PrecisionContext:
    digits, source = args.precision, "--precision"
    if digits is None:
        env, source = os.environ.get("EHZ_PRECISION") or "30", "EHZ_PRECISION"
        try:
            digits = int(env)
        except ValueError:
            raise ValueError(f"{source} must be an integer, got {env!r}") from None
    if not 15 <= digits <= MAX_CONSTANT_DIGITS:
        bound = ">= 15" if digits < 15 else f"<= {MAX_CONSTANT_DIGITS}"
        raise ValueError(f"{source} must be {bound}, got {digits}")
    mode_arg = getattr(args, "mode", "auto")
    if mode_arg == "fast":
        mode = Mode.FAST
    elif mode_arg == "high":
        mode = Mode.HIGH
    else:
        mode = _auto_mode(digits, terms)
    return PrecisionContext(digits=digits, mode=mode)


def _emit(text: str, out) -> None:
    out.write(text)
    if not text.endswith("\n"):
        out.write("\n")


def _json_dump(payload: dict, out) -> None:
    _emit(json.dumps(payload, separators=(", ", ": ")), out)


# ----------------------------------------------------------------------
# eval
# ----------------------------------------------------------------------


def _make_request(args) -> EvalRequest:
    try:
        formula = Formula(args.formula)
    except ValueError:
        raise ValueError(f"unknown formula {args.formula!r}; see --help for the list")
    spec = FORMULAS[formula]
    for flag, value, takes in (
        ("s", args.s, spec.param == "s"),
        ("q", args.q, spec.param == "q"),
        ("x", args.x, spec.takes_x),
    ):
        if value is not None and not takes:
            raise ValueError(f"{formula.value} takes no --{flag}")
    s_or_q = None
    if spec.param is not None:
        value = getattr(args, spec.param)
        if value is None:
            raise ValueError(f"{formula.value} requires --{spec.param}")
        s_or_q = _parse_s(value) if spec.param == "s" else value
    x = _parse_rational(args.x) if args.x is not None else None
    ctx = _build_context(args, args.terms)
    return EvalRequest(formula=formula, s_or_q=s_or_q, x=x, N=args.terms, ctx=ctx)


def cmd_eval(args, out) -> int:
    try:
        req = _make_request(args)
    except (ValueError, KeyError) as exc:
        _emit(f"error: {exc}", sys.stderr)
        return USAGE_ERROR
    try:
        res = evaluate(req)
        ref = reference_value(req)
    except (DomainError, NumericError) as exc:
        _emit(f"numeric error: {exc}", sys.stderr)
        return NUMERIC_ERROR
    d = req.ctx.digits
    param_key = FORMULAS[req.formula].param or "q"  # the key is printed even when empty
    fields = [
        ("formula", req.formula.value),
        (param_key, str(req.s_or_q) if req.s_or_q is not None else ""),
        ("x", str(req.x) if req.x is not None else ""),
        ("terms", str(res.terms_used)),
        ("digits", str(d)),
        ("mode", res.mode.value),
        ("value", _fmt_real(res.value, d)),
        ("tail_estimate", _fmt_real(float(res.tail_estimate), d)),
    ]
    if ref is not None:
        with req.ctx.scope():
            err = abs(res.value - ref)
        fields.append(("reference", _fmt_real(ref, d)))
        fields.append(("abs_error", _fmt_real(err, 8)))
    if args.format == "json":
        payload = {
            "command": "eval",
            "params": dict(fields[:6]),
            "result": dict(fields[6:]),
            "version": __version__,
        }
        _json_dump(payload, out)
    else:
        for k, v in fields:
            if k in ("x", "s", "q") and not v:
                continue
            _emit(f"{k}={v}", out)
    return 0


# ----------------------------------------------------------------------
# converge
# ----------------------------------------------------------------------

CSV_HEADER = "N,partial_sum,reference,abs_error,rel_error,seconds"


def cmd_converge(args, out) -> int:
    try:
        try:
            budgets = [int(t) for t in args.terms.split(",") if t]
        except ValueError:
            raise ValueError(f"--terms budgets must be integers, got {args.terms!r}") from None
        if not budgets:
            raise ValueError("--terms requires N1,N2,...")
        if min(budgets) < 1:
            raise ValueError(f"--terms budgets must be >= 1, got {args.terms}")
        if any(b <= a for a, b in zip(budgets, budgets[1:])):
            raise ValueError(f"--terms budgets must be strictly increasing, got {args.terms}")
        args.terms = max(budgets)  # context sizing uses the largest budget
        req = _make_request(args)
    except (ValueError, KeyError) as exc:
        _emit(f"error: {exc}", sys.stderr)
        return USAGE_ERROR
    try:
        rows = convergence_table(req, budgets)
    except (DomainError, NumericError) as exc:
        _emit(f"numeric error: {exc}", sys.stderr)
        return NUMERIC_ERROR
    exponent = fit_convergence_exponent(rows)
    d = req.ctx.digits
    exp_str = repr(exponent) if exponent is not None else "nan"
    cells = [  # the columns of CSV_HEADER, in its order
        {
            "N": r.N,
            "partial_sum": _fmt_real(r.partial, d),
            "reference": _fmt_real(r.reference, d),
            "abs_error": repr(float(r.abs_error)),
            "rel_error": repr(float(r.rel_error)),
            "seconds": f"{r.elapsed_seconds:.6f}",
        }
        for r in rows
    ]
    if args.format == "json":
        payload = {
            "command": "converge",
            "params": {
                "formula": req.formula.value,
                "s_or_q": str(req.s_or_q),
                "x": str(req.x) if req.x is not None else "",
                "terms": ",".join(str(b) for b in budgets),
                "digits": str(d),
                "mode": req.ctx.mode.value,
            },
            "rows": cells + [{"exponent": exp_str}],
            "version": __version__,
        }
        _json_dump(payload, out)
    else:
        _emit(CSV_HEADER, out)
        for row in cells:
            _emit(",".join(str(v) for v in row.values()), out)
        _emit(f"# exponent,{exp_str}", out)
    return 0


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


def cmd_verify(args, out) -> int:
    overrides = {
        "n_max": args.n_max,
        "q_max": args.q_max,
        "m_max": args.m_max,
        "x": args.x,
        "terms": args.terms,
    }
    try:
        if args.x is not None:
            _parse_rational(args.x)
        if args.id is not None and args.all:
            raise ValueError("verify takes --all or --id, not both")
        if args.id is not None:
            profile = Profile(args.profile or "full")
            reports = run_identity(args.id, overrides, profile)
        elif args.all:
            given = ["--" + k.replace("_", "-") for k, v in overrides.items() if v is not None]
            if given:
                raise ValueError(f"--all takes no {', '.join(given)}; sweep overrides need --id")
            profile = Profile(args.profile or "quick")
            reports = run_all(profile)
        else:
            _emit("error: verify requires --all or --id", sys.stderr)
            return USAGE_ERROR
    except (KeyError, ValueError) as exc:
        _emit(f"error: {exc}", sys.stderr)
        return USAGE_ERROR
    except NumericError as exc:  # raised while an identity ran, which it names
        _emit(f"numeric error: {exc}", sys.stderr)
        return NUMERIC_ERROR
    stats = summarize(reports)
    if args.format == "json":
        payload = {
            "command": "verify",
            "params": {
                "id": args.id or "",
                "all": bool(args.all),
                "profile": profile.value,
            },
            "reports": [r.to_dict() for r in reports],
            "version": __version__,
        }
        _json_dump(payload, out)
    else:
        for r in reports:
            ps = " ".join(f"{k}={v}" for k, v in r.params.items())
            line = f"{r.status} {r.identity} {ps}".rstrip()
            if r.status != "PASS" and r.detail:
                line += f"  [{r.detail}] lhs={r.lhs} rhs={r.rhs}"
            _emit(line, out)
        _emit(
            "identities={identities}, reports={reports}, pass={pass}, "
            "fail={fail}, skip={skip}".format(**stats),
            out,
        )
    return 1 if stats["fail"] else 0


# ----------------------------------------------------------------------
# constants
# ----------------------------------------------------------------------


def cmd_constants(args, out) -> int:
    d = args.digits
    if d < 1 or d > MAX_CONSTANT_DIGITS:
        _emit(
            f"error: --digits must be in 1..{MAX_CONSTANT_DIGITS}",
            sys.stderr,
        )
        return USAGE_ERROR
    ctx = PrecisionContext(digits=max(d + 2, 15), mode=Mode.HIGH)
    lines = [
        ("gamma", const_gamma(ctx)),
        ("pi", const_pi(ctx)),
        ("catalan", const_catalan(ctx)),
    ]
    lines += [(f"zeta{m}", const_zeta(m, ctx)) for m in range(2, 11)]
    for name, value in lines:
        _emit(f"{name}={_fmt_real(value, d)}", out)
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


def _formula_help() -> str:
    """Each formula with the flags it takes, read from the formula table."""
    items = []
    for formula, spec in FORMULAS.items():
        flags = [f"--{spec.param}"] if spec.param else []
        if spec.takes_x:
            flags.append("--x")
        items.append(f"{formula.value} ({' '.join(flags)})" if flags else formula.value)
    return ", ".join(items)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehz",
        description="Evaluate and cross-validate Bell-polynomial and "
        "harmonic-number series for the Riemann and Hurwitz zeta functions.",
    )
    sub = parser.add_subparsers(dest="command")

    pe = sub.add_parser("eval", help="evaluate one series")
    pe.add_argument("--formula", required=True, help=_formula_help())
    pe.add_argument("--s", help="real exponent (for the s-family formulas)")
    pe.add_argument("--q", type=int, help="integer order (for the q-family formulas)")
    pe.add_argument("--x", help="rational shift as p/q (decimals rejected)")
    pe.add_argument("--terms", type=int, required=True, help="term budget N")
    pe.add_argument("--precision", type=int, default=None, help="decimal digits (default 30)")
    pe.add_argument("--mode", choices=["auto", "fast", "high"], default="auto")
    pe.add_argument("--format", choices=["text", "json"], default="text")

    pc = sub.add_parser("converge", help="error table across term budgets")
    pc.add_argument("--formula", required=True)
    pc.add_argument("--s")
    pc.add_argument("--q", type=int)
    pc.add_argument("--x")
    pc.add_argument("--terms", required=True, help="comma-separated budgets N1,N2,...")
    pc.add_argument("--precision", type=int, default=None)
    pc.add_argument("--mode", choices=["auto", "fast", "high"], default="auto")
    pc.add_argument("--format", choices=["csv", "json"], default="csv")

    pv = sub.add_parser("verify", help="run identity checks")
    pv.add_argument("--all", action="store_true")
    pv.add_argument(
        "--profile",
        choices=["quick", "full"],
        help="sweep sizes (default: quick with --all, full with --id)",
    )
    pv.add_argument("--id", help="single identity id")
    pv.add_argument("--n-max", dest="n_max", type=int)
    pv.add_argument("--q-max", dest="q_max", type=int)
    pv.add_argument("--m-max", dest="m_max", type=int)
    pv.add_argument("--x")
    pv.add_argument("--terms", type=int)
    pv.add_argument("--format", choices=["text", "json"], default="text")

    pk = sub.add_parser("constants", help="print reference constants")
    pk.add_argument("--digits", type=int, required=True)

    return parser


_COMMANDS = {
    "eval": cmd_eval,
    "converge": cmd_converge,
    "verify": cmd_verify,
    "constants": cmd_constants,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command not in _COMMANDS:
        parser.print_help()
        return USAGE_ERROR
    try:
        code = _COMMANDS[args.command](args, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``| head``).  Point stdout at
        # devnull so that the flush at interpreter exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
