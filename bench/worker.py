"""One pass of a benchmark workload in a fresh interpreter.

Usage (from ``run.py``):

    python3 bench/worker.py --src SRC [--import-only]
    python3 bench/worker.py --src SRC --workload NAME --seed N --trace 0|1 [--spans PATH]

The worker imports ``ehz.cli`` first and prints ``ready``, so the parent can
time interpreter start-up plus import.  It then runs the workload's
operations in order, each an in-process ``ehz.cli.main([...])`` call whose
stdout and stderr are captured, checks every output outside the timed
region, and prints one JSON line with the per-operation results.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import sys
import time
import traceback

import mpmath


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", required=True)
    p.add_argument("--import-only", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", help="file for the traced run's spans")
    return p.parse_args(argv)


_TOL_RE = re.compile(r"abs_error=(\S+) tolerance=(\S+)")


def _finite(text) -> bool:
    try:
        return math.isfinite(float(text))
    except (TypeError, ValueError):
        return False


class Outcome:
    """What the checks found in one operation's output."""

    def __init__(self) -> None:
        self.checked = 1  # results checked (verify: one per report)
        self.failures: list = []
        self.reports = 1
        self.terms = 0
        self.err_over_tail = None

    def fail(self, why: str) -> None:
        self.failures.append(why)

    def ratio(self, err: float, tail: float) -> None:
        r = err / tail if tail > 0 else (0.0 if err == 0 else math.inf)
        self.err_over_tail = r if self.err_over_tail is None else max(self.err_over_tail, r)


def _check_eval(op, payload: dict, out: Outcome) -> None:
    res = payload["result"]
    out.terms = op.terms
    for key in ("value", "tail_estimate"):
        if not _finite(res.get(key)):
            out.fail(f"{key} is not finite: {res.get(key)!r}")
    if "reference" in res:
        err, tail = float(res["abs_error"]), float(res["tail_estimate"])
        out.ratio(err, tail)
        # the mode's own precision bounds the error once the tail is below it
        params = payload["params"]
        digits = int(params["digits"]) if params["mode"] == "HIGH" else 15
        floor = 10.0 ** -digits * max(1.0, abs(float(res["reference"])))
        if not err <= 3 * tail + floor:
            out.fail(f"abs_error {err:.3e} > 3 * tail_estimate {tail:.3e} + precision floor {floor:.0e}")


def _check_converge(op, payload: dict, out: Outcome) -> None:
    rows = payload["rows"][:-1]
    out.reports = len(rows)
    out.terms = sum(r["N"] for r in rows)
    if [r["N"] for r in rows] != list(op.request.terms):
        out.fail("converge rows do not match the requested budgets")
    for r in rows:
        for key in ("partial_sum", "reference", "abs_error"):
            if not _finite(r[key]):
                out.fail(f"N={r['N']}: {key} is not finite: {r[key]!r}")
    if not _finite(payload["rows"][-1]["exponent"]):
        out.fail("convergence exponent is not finite")


def _check_verify(op, payload: dict, out: Outcome) -> None:
    reports = payload["reports"]
    out.reports = out.checked = len(reports)
    if not reports:
        out.fail("no reports")
        out.checked = 1
    for r in reports:
        if r["status"] not in ("PASS", "SKIP"):
            out.fail(f"{r['status']} {r['params']} {r['detail']}")
        n = r["params"].get("N")
        if n is not None:
            out.terms += int(n)
        m = _TOL_RE.search(r["detail"])
        if m:
            out.ratio(float(m.group(1)), float(m.group(2)) / 3)


def _check_constants(op, text: str, out: Outcome) -> None:
    digits = int(op.request.extra[1])
    lines = [ln.split("=", 1) for ln in text.splitlines()]
    names = [name for name, _ in lines]
    expect = ["gamma", "pi", "catalan"] + [f"zeta{m}" for m in range(2, 11)]
    out.reports = len(lines)
    if names != expect:
        out.fail(f"constants lines {names} != {expect}")
        return
    with mpmath.workdps(digits + 20):
        refs = [mpmath.euler, mpmath.pi, mpmath.catalan] + [mpmath.zeta(m) for m in range(2, 11)]
        for (name, value), ref in zip(lines, refs):
            err = abs(mpmath.mpf(value) - ref)
            if err > mpmath.mpf(10) ** (2 - digits) * max(1, abs(ref)):
                out.fail(f"{name} differs from mpmath by {mpmath.nstr(err, 3)}")


def check(op, rc: int, stdout: str, stderr: str) -> Outcome:
    out = Outcome()
    if rc != 0:
        out.fail(f"exit code {rc}: {stderr.strip()[-300:]}")
        return out
    cmd = op.request.command
    try:
        if cmd == "constants":
            _check_constants(op, stdout, out)
        else:
            payload = json.loads(stdout)
            {"eval": _check_eval, "converge": _check_converge, "verify": _check_verify}[cmd](
                op, payload, out
            )
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        out.fail(f"unreadable output: {exc!r}")
    return out


def digest(op, stdout: str, rc: int) -> str:
    """Hash of the output, with converge's wall-clock seconds removed."""
    if op.request.command == "converge" and rc == 0:
        try:
            payload = json.loads(stdout)
            for row in payload["rows"]:
                row.pop("seconds", None)
            stdout = json.dumps(payload, sort_keys=True)
        except (ValueError, KeyError, TypeError):
            pass
    return hashlib.sha256(f"{rc}\n{stdout}".encode()).hexdigest()


def run_pass(cli, ops, log=None) -> dict:
    results = []
    for i, op in enumerate(ops):
        if log is not None:
            log.run_id = i
        out_buf, err_buf = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out_buf), contextlib.redirect_stderr(err_buf):
            try:
                rc = cli.main(list(op.argv))
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is a failed operation, not a dead benchmark
                rc = -1
                err_buf.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
        stdout, stderr = out_buf.getvalue(), err_buf.getvalue()
        outcome = check(op, rc, stdout, stderr)
        results.append(
            {
                "name": op.name,
                "seconds": seconds,
                "rc": rc,
                "digest": digest(op, stdout, rc),
                "checked": outcome.checked,
                "failed": min(len(outcome.failures), outcome.checked),
                "failures": outcome.failures[:5],
                "reports": outcome.reports,
                "terms": outcome.terms,
                "err_over_tail": outcome.err_over_tail,
            }
        )
    return {"ops": results, "wall_s": sum(r["seconds"] for r in results)}


def main(argv=None) -> int:
    args = _parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import ehz.cli as cli

    print("ready", flush=True)
    if args.import_only:
        return 0

    import spans  # the benchmark's own modules sit next to this script
    import workloads

    ops = workloads.generate(args.workload, args.seed)
    log = None
    if args.trace:
        log = spans.SpanLog()
        spans.install(log)
    result = run_pass(cli, ops, log)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
    }
    if log is not None:
        result["layers"] = spans.layer_metrics(log)
        result["spans"] = len(log)
        if args.spans:
            log.write(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
