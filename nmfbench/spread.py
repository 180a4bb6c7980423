"""Run the benchmark over several seeds and summarize each metric.

    python3 nmfbench/spread.py --workload rank-sweep --seeds 1-10 --seconds 15

For every metric it prints the median and the quartile spread (Q3 - Q1
over the median, from statistics.quantiles(values, n=4)), which is how two
sets of runs are compared.  Runs go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    values, failures = {}, []
    for seed in args.seeds:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True, timeout=600)
        elapsed = time.perf_counter() - start
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not result.get("correct"):
            failures.append(seed)
            sys.stderr.write(proc.stderr[-2000:])
        print("seed %d: exit %d, %.1f s, attempted %s, failed %s"
              % (seed, proc.returncode, elapsed, result.get("attempted"),
                 result.get("failed")))
        print("  " + (proc.stderr.strip().splitlines() or [""])[-1])
        for name, metric in result.get("metrics", {}).items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        median = statistics.median(vals)
        if len(vals) >= 2 and median:
            q = statistics.quantiles(vals, n=4)
            spread = "%.4f" % ((q[2] - q[0]) / median)
        else:
            spread = "-"
        print("%-30s median %-14.6g spread %s" % (name, median, spread))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
