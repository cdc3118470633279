"""Benchmark runner for ehz.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/ehz``.  Each pass of the
workload runs in a fresh interpreter (``worker.py``), so module caches start
cold as they do for a CLI invocation and stay warm across the operations of
one pass.  Passes are a closed loop with one client: the next starts after
the previous ends, while another pass still fits in ``--seconds`` (there is
always at least one).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, medians
over the passes; set-up time is the median of several interpreter starts.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics of BENCHMARK.json from the traced pass's spans, plus
``trace.overhead_ratio`` (traced wall time over untraced).  Both modes
check every output and compare the outputs of passes with the same seed
byte for byte.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKER = os.path.join(BENCH_DIR, "worker.py")

#: interpreter starts timed for setup_s, besides one per pass
SETUP_SAMPLES = 8
#: a run must end within this many seconds
DEADLINE_S = 175.0


class BenchError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("EHZ_PRECISION", None)  # the workloads fix their own precision
    return env


def spawn(args, deadline: float):
    """Run the worker; return (seconds from start to ``ready``, last stdout line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, "--src", SRC] + args,
        stdout=subprocess.PIPE,
        env=_worker_env(),
        text=True,
    )
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker {' '.join(args)} did not finish before the deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} failed with exit code {proc.returncode}")
    lines = rest.strip().splitlines()
    return ready, lines[-1] if lines else ""


def run_passes(workload: str, seed: int, seconds: float, trace: int, deadline: float):
    """Untraced passes while the next is expected to end within ``seconds``
    (at least one); with ``trace``, one untraced and one traced pass."""
    setup = [] if trace else [spawn(["--import-only"], deadline)[0] for _ in range(SETUP_SAMPLES)]
    passes = []
    start = time.monotonic()
    while True:
        traced = int(bool(trace) and len(passes) == 1)
        args = ["--workload", workload, "--seed", str(seed), "--trace", str(traced)]
        if traced:
            os.makedirs(OUT_DIR, exist_ok=True)
            args += ["--spans", os.path.join(OUT_DIR, f"spans-{workload}.bin")]
        t_pass = time.monotonic()
        ready, line = spawn(args, deadline)
        took = time.monotonic() - t_pass
        setup.append(ready)
        passes.append(json.loads(line))
        if traced or (not trace and time.monotonic() - start + took > seconds):
            return setup, passes


def summarize(passes):
    """Correctness over all passes: failed results plus cross-pass mismatches."""
    attempted = failed = 0
    failures = []
    for p in passes:
        for op in p["ops"]:
            attempted += op["checked"]
            failed += op["failed"]
            failures += [f"{op['name']}: {why}" for why in op["failures"]]
    first = passes[0]["ops"]
    for p in passes[1:]:
        for a, b in zip(first, p["ops"]):
            if a["digest"] != b["digest"]:
                failed += 1
                failures.append(f"{a['name']}: output differs between two passes with the same seed")
    ratios = [
        (op["err_over_tail"], op["name"])
        for p in passes for op in p["ops"] if op["err_over_tail"] is not None
    ]
    return attempted, failed, failures, max(ratios) if ratios else None


def end_to_end(setup, passes) -> dict:
    def med(f):
        return statistics.median(f(p) for p in passes)

    return {
        "setup_s": statistics.median(setup),
        "wall_s": med(lambda p: p["wall_s"]),
        "reports_per_s": med(lambda p: sum(op["reports"] for op in p["ops"]) / p["wall_s"]),
        "terms_per_s": med(lambda p: sum(op["terms"] for op in p["ops"]) / p["wall_s"]),
        "peak_rss_mb": med(lambda p: p["peak_rss_mb"]),
    }


def per_layer(passes) -> dict:
    plain, traced = passes
    out = dict(traced["layers"])
    out["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    return out


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="ehz benchmark runner")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ehz", "cli.py")):
        print(f"error: no ehz sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        setup, passes = run_passes(args.workload, args.seed, args.seconds, args.trace, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    attempted, failed, failures, worst = summarize(passes)
    env = passes[0]["env"]
    print(
        f"workload={args.workload} seed={args.seed} passes={len(passes)} "
        f"ops={len(passes[0]['ops'])} "
        + " ".join(f"{k}={v}" for k, v in env.items())
        + (f" spans={passes[1]['spans']}" if args.trace else "")
    )
    for line in failures[:20]:
        print(f"FAIL {line}")
    for op in sorted(passes[0]["ops"], key=lambda op: -op["seconds"])[:5]:
        print(f"slowest op: {op['seconds']:.4g} s {op['name']}")
    print(f"fail_ratio={failed / max(attempted, 1):.6g} 1 ({failed} of {attempted})")
    if worst is not None:
        print(f"max_err_over_tail={worst[0]:.6g} 1 ({worst[1]})")

    if args.trace:
        values = per_layer(passes)
        specs = spec["per_layer"]
    else:
        values = end_to_end(setup, passes)
        specs = spec["end_to_end"]
    metrics = {}
    for m in specs:
        v = float(values.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        print(f"{m['name']}={v:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
