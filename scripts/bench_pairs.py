#!/usr/bin/env python3
"""Run the benchmark on another git revision and on this checkout in
alternating pairs, and write the end-to-end metrics of both as JSON.

    python3 scripts/bench_pairs.py REF --out BENCH_<n>.json

REF (for example HEAD~) is unpacked with `git archive` into a temporary
directory.  For every workload of BENCHMARK.json and pair i of ten, both
trees run

    python3 nmfbench/run.py --workload W --seed i --seconds S --trace 0

one after the other, S being BENCHMARK.json's run_seconds; odd pairs run
REF first, even pairs this checkout first, so a drift of the host's speed
over the runs hits both sides.  Runs go one at a time, never in parallel.
The JSON holds, per workload and end-to-end metric, the [Q1, median, Q3]
of REF ("parent") and of this checkout ("change") from
statistics.quantiles(n=4), the relative change of the median next to the
bound in BENCHMARK.json, and how many pairs the change won; then every
run's seed, exit code, `correct`, `failed` and metric values; and one host
line.  The exit code is 1 when any run exited non-zero, failed a check or
failed an operation.  Standard library only; not part of check.sh or CI,
since a full set of pairs takes about an hour.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="git revision to compare against")
    parser.add_argument("--out", required=True,
                        help="JSON file to write, e.g. BENCH_<n>.json")
    return parser.parse_args(argv)


def git(*argv):
    return subprocess.run(["git", *argv], cwd=ROOT, capture_output=True,
                          check=True).stdout


def unpack(ref, dest):
    """Write the files of git revision `ref` under `dest`."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", ref))) as tar:
        tar.extractall(dest, filter="data")
    return dest


def run_once(side, tree, workload, seed, seconds):
    """One benchmark run in `tree`: its exit code and last stdout line."""
    cmd = [sys.executable, "nmfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=10 * seconds + 600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        result = {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.stderr.write(proc.stderr[-2000:])
    record = {"seed": seed, "exit": proc.returncode,
              "correct": bool(result.get("correct")),
              "attempted": result.get("attempted"),
              "failed": result.get("failed"),
              "metrics": {name: m["value"] for name, m
                          in result.get("metrics", {}).items()}}
    print("  %s seed %d: exit %d, %.0f s, %s"
          % (side, seed, proc.returncode, time.perf_counter() - start,
             json.dumps(record["metrics"])), file=sys.stderr)
    return record


def ok(run):
    return run["exit"] == 0 and run["correct"] and run["failed"] == 0


def summarize(parent, change, bounds):
    """Per metric: quartiles of both sides, the relative median change and
    the number of pairs in which the change read better."""
    out = {}
    for name, spec in bounds.items():
        pv = [r["metrics"][name] for r in parent if name in r["metrics"]]
        cv = [r["metrics"][name] for r in change if name in r["metrics"]]
        if len(pv) < 2 or len(cv) < 2:
            continue
        sign = 1 if spec["better"] == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(pv, cv))
        med_p, med_c = statistics.median(pv), statistics.median(cv)
        out[name] = {
            "unit": spec["unit"],
            "parent": [round(q, 6) for q in statistics.quantiles(pv, n=4)],
            "change": [round(q, 6) for q in statistics.quantiles(cv, n=4)],
            "median_change": round((med_c - med_p) / med_p, 4),
            "bound": spec["bound"],
            "change_better_pairs": "%d of %d" % (wins, min(len(pv), len(cv))),
        }
    return out


def host_line():
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "absent"
    env = ", ".join("%s=%s" % (k, os.environ.get(k, "unset"))
                    for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    return ("Python %s, numpy %s, %s CPUs, %s"
            % (platform.python_version(), numpy, os.cpu_count(), env))


def main(argv=None):
    args = parse_args(argv)
    seconds = BENCH["run_seconds"]
    bounds = {m["name"]: m for m in BENCH["end_to_end"]}
    dirty = git("status", "--porcelain", "--untracked-files=no").strip()
    report = {"ref": args.ref,
              "ref_commit": git("rev-parse", args.ref).decode().strip(),
              "change": "the checkout at %s%s" % (
                  git("rev-parse", "HEAD").decode().strip(),
                  " with uncommitted changes" if dirty else ""),
              "seconds": seconds, "pairs": PAIRS,
              "host": host_line(), "workloads": {}}
    all_ok = True
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": unpack(args.ref, Path(tmp)), "change": ROOT}
        for workload in (w["name"] for w in BENCH["workloads"]):
            print("%s:" % workload, file=sys.stderr)
            runs = {"parent": [], "change": []}
            seeds = list(range(PAIRS))
            for seed in seeds:
                order = ("parent", "change") if seed % 2 else ("change",
                                                              "parent")
                for side in order:
                    runs[side].append(run_once(side, trees[side], workload,
                                               seed, seconds))
            all_ok &= all(ok(r) for side in runs.values() for r in side)
            report["workloads"][workload] = {
                "seeds": seeds,
                "metrics": summarize(runs["parent"], runs["change"],
                                     bounds),
                "runs": runs}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % args.out, file=sys.stderr)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
