"""Run the benchmark once per seed and report each metric's median and spread.

    python3 bench/spread.py --workload eval --seeds 1-10 [--seconds 60] [--trace 0] [--out FILE]

Spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  With
``--out`` every run's result is also written as JSON, so two commits can be
compared from the same command.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="range such as 1-10")
    p.add_argument("--seconds", default="60")
    p.add_argument("--trace", default="0")
    p.add_argument("--out")
    args = p.parse_args(argv)

    runs = []
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, RUN, "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        print(f"seed={seed} correct={result['correct']} failed={result['failed']}", flush=True)

    print(f"{'metric':<48} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:<48} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} {first['unit']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "runs": runs}, fh, indent=1)
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
