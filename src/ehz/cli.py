"""Command-line front end: series evaluation, identity verification,
convergence benchmarking, and reference constants.

Exit codes: 0 success (all PASS for verify), 1 verification failure,
2 usage error, 3 numeric/domain error, 141 output pipe closed by the
reader.  Each ``cmd_*`` command returns its exit code and its output text
or raises; :func:`main` alone writes stdout and stderr and maps a raised
error to exit code 2 or 3, so stdout stays empty on both.  Output is
byte-deterministic for identical invocations except the wall-clock
``seconds`` column of ``converge``.  The optional environment variable
``EHZ_PRECISION`` overrides the default working precision (30 digits)
when ``--precision`` is not given; either must lie in
15..``MAX_CONSTANT_DIGITS`` (300).
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import re
import sys
from collections import Counter
from fractions import Fraction
from typing import List, Optional, Tuple

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
)
# eager: bench/worker.py imports ehz.cli alone before bench/spans.py wraps ehz.verify
from .verify import Profile, run_all, run_identity
from .zeta_series import (
    FORMULAS,
    MAX_TERMS,
    EvalRequest,
    Formula,
    convergence_table,
    evaluate_against_reference,
    fit_convergence_exponent,
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
        pass
    try:
        s = float(text)
    except ValueError:
        raise ValueError(f"--s must be a number, got {text!r}") from None
    if not math.isfinite(s):
        raise ValueError(f"s must be finite, got {text!r}")
    return s


def _fmt_real(v, digits: int) -> str:
    if isinstance(v, float):
        return repr(v)
    return mpmath.nstr(v, digits, strip_zeros=False)  # rounds at digits, whatever mp.dps is


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
    mode = _auto_mode(digits, terms) if mode_arg == "auto" else Mode(mode_arg.upper())
    return PrecisionContext(digits=digits, mode=mode)


#: the one JSON encoder of every command's output
_JSON = json.JSONEncoder(separators=(", ", ": "))


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
    if args.terms < 1:
        raise ValueError(f"--terms must be >= 1, got {args.terms}")
    if args.terms > MAX_TERMS:
        raise ValueError(f"--terms must be <= {MAX_TERMS}, got {args.terms}")
    ctx = _build_context(args, args.terms)
    return EvalRequest(formula=formula, s_or_q=s_or_q, x=x, N=args.terms, ctx=ctx)


def _params(req: EvalRequest, param_key: str, terms: str) -> list:
    """The (key, text) params that eval and converge print; an absent
    parameter or shift prints ""."""
    return [
        ("formula", req.formula.value),
        (param_key, "" if req.s_or_q is None else str(req.s_or_q)),
        ("x", "" if req.x is None else str(req.x)),
        ("terms", terms),
        ("digits", str(req.ctx.digits)),
        ("mode", req.ctx.mode.value),
    ]


def cmd_eval(args) -> Tuple[int, str]:
    req = _make_request(args)
    ev = evaluate_against_reference(req)
    d = req.ctx.digits
    param_key = FORMULAS[req.formula].param or "q"  # the key is printed even when empty
    params = _params(req, param_key, str(req.N))
    result = [
        ("value", _fmt_real(ev.result.value, d)),
        ("tail_estimate", _fmt_real(float(ev.result.tail_estimate), d)),
    ]
    if ev.reference is not None:
        result.append(("reference", _fmt_real(ev.reference, d)))
        result.append(("abs_error", _fmt_real(ev.abs_error, 8)))
    if args.format == "json":
        payload = {
            "command": "eval",
            "params": dict(params),
            "result": dict(result),
            "version": __version__,
        }
        return 0, _JSON.encode(payload)
    return 0, "\n".join(f"{k}={v}" for k, v in params + result if v or k not in ("x", "s", "q"))


# ----------------------------------------------------------------------
# converge
# ----------------------------------------------------------------------

CSV_HEADER = "N,partial_sum,reference,abs_error,rel_error,seconds"


def cmd_converge(args) -> Tuple[int, str]:
    try:
        budgets = [int(t) for t in args.terms.split(",")] if args.terms else []
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
    rows = convergence_table(req, budgets)
    exponent = fit_convergence_exponent(rows)
    d = req.ctx.digits
    exp_str = repr(exponent) if exponent is not None else "nan"
    cells = [  # the columns of CSV_HEADER, in its order
        {
            "N": r.request.N,
            "partial_sum": _fmt_real(r.result.value, d),
            "reference": _fmt_real(r.reference, d),
            "abs_error": repr(float(r.abs_error)),
            "rel_error": repr(float(r.rel_error)),
            "seconds": f"{r.seconds:.6f}",
        }
        for r in rows
    ]
    if args.format == "json":
        payload = {
            "command": "converge",
            "params": dict(_params(req, "s_or_q", ",".join(str(b) for b in budgets))),
            "rows": cells + [{"exponent": exp_str}],
            "version": __version__,
        }
        return 0, _JSON.encode(payload)
    csv_rows = (",".join(str(v) for v in row.values()) for row in cells)
    return 0, "\n".join([CSV_HEADER, *csv_rows, f"# exponent,{exp_str}"])


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


def cmd_verify(args) -> Tuple[int, str]:
    """Run the identities, turning each report into output text as it comes;
    exit code 1 when any report is a FAIL."""
    overrides = {
        "n_max": args.n_max,
        "q_max": args.q_max,
        "m_max": args.m_max,
        "x": args.x,
        "terms": args.terms,
    }
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
        raise ValueError("verify requires --all or --id")
    text = io.StringIO()
    statuses: Counter = Counter()
    identities = set()
    if args.format == "json":
        params = {"id": args.id or "", "all": bool(args.all), "profile": profile.value}
        envelope = _JSON.encode({"command": "verify", "params": params})
        text.write(envelope[:-1] + ', "reports": [')
    # the id and overrides are checked at the first report, so a usage
    # error can still surface here
    for r in reports:
        if args.format == "json":
            if statuses:
                text.write(", ")
            text.write(_JSON.encode(r.to_dict()))
        else:
            ps = " ".join(f"{k}={v}" for k, v in r.params.items())
            line = f"{r.status} {r.identity} {ps}".rstrip()
            if r.status != "PASS" and r.detail:
                line += f"  [{r.detail}] lhs={r.lhs} rhs={r.rhs}"
            text.write(line)
            text.write("\n")
        statuses[r.status] += 1
        identities.add(r.identity)
    if args.format == "json":
        text.write(f'], "version": {_JSON.encode(__version__)}}}')
    else:
        text.write(
            f"identities={len(identities)}, reports={statuses.total()}, pass={statuses['PASS']}, "
            f"fail={statuses['FAIL']}, skip={statuses['SKIP']}"
        )
    return 1 if statuses["FAIL"] else 0, text.getvalue()


# ----------------------------------------------------------------------
# constants
# ----------------------------------------------------------------------


def cmd_constants(args) -> Tuple[int, str]:
    d = args.digits
    if d < 1 or d > MAX_CONSTANT_DIGITS:
        raise ValueError(f"--digits must be in 1..{MAX_CONSTANT_DIGITS}")
    ctx = PrecisionContext(digits=max(d + 2, 15), mode=Mode.HIGH)
    lines = [
        ("gamma", const_gamma(ctx)),
        ("pi", const_pi(ctx)),
        ("catalan", const_catalan(ctx)),
    ]
    lines += [(f"zeta{m}", const_zeta(m, ctx)) for m in range(2, 11)]
    return 0, "\n".join(f"{name}={_fmt_real(value, d)}" for name, value in lines)


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

    for name, help_, terms, formats in (
        ("eval", "evaluate one series", {"type": int, "help": "term budget N"}, ["text", "json"]),
        ("converge", "error table across term budgets",
         {"help": "comma-separated budgets N1,N2,..."}, ["csv", "json"]),
    ):
        p = sub.add_parser(name, help=help_)  # the flags eval and converge share
        p.add_argument("--formula", required=True, help=_formula_help())
        p.add_argument("--s", help="real exponent (for the s-family formulas)")
        p.add_argument("--q", type=int, help="integer order (for the q-family formulas)")
        p.add_argument("--x", help="rational shift as p/q (decimals rejected)")
        p.add_argument("--terms", required=True, **terms)
        p.add_argument("--precision", type=int, default=None, help="decimal digits (default 30)")
        p.add_argument("--mode", choices=["auto", "fast", "high"], default="auto")
        p.add_argument("--format", choices=formats, default=formats[0])

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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """:func:`build_parser`'s parser, built at the first :func:`main` call."""
    return build_parser()


def _join_negative_values(argv: List[str]) -> List[str]:
    """argv with ``--x -1/2`` written ``--x=-1/2``, and so for ``--s``: argparse
    reads a negative value other than -N and -N.N, such as -1/2, as an option."""
    out: List[str] = []
    for arg in argv:
        if out and out[-1] in ("--x", "--s") and re.match(r"-[\d.]", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command: the only code that writes stdout or stderr and that
    turns a raised error into an exit code.

    A command's text is built whole before any of it is written, so stdout
    stays empty when the command raises.
    """
    parser = _parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    if args.command not in _COMMANDS:
        parser.print_help()
        return USAGE_ERROR
    try:
        code, text = _COMMANDS[args.command](args)
        # A long write to a pipe whose reader has gone can come back short
        # without an error; the newline, written on its own, makes the flush
        # report the closed pipe.
        sys.stdout.write(text)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except (DomainError, NumericError) as exc:  # before ValueError, which DomainError is
        print(f"numeric error: {exc}", file=sys.stderr)
        return NUMERIC_ERROR
    except (KeyError, ValueError) as exc:  # str() of a KeyError quotes its message
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return USAGE_ERROR
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
