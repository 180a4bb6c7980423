"""nmfkit benchmark: one workload, timed in-process, outputs checked.

    python3 nmfbench/run.py --workload cli-dense --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; nmfkit is imported from `src/`.
Set-up runs several times in fresh interpreters, some before and some
after the timed operations, and reports the median.
Whole rounds of the workload's operations then repeat, closed loop, until
`--seconds` have passed; the time metrics are medians over operations.
With `--trace 0` the last stdout line holds the end-to-end metrics.  With
`--trace 1` the first half of the time runs untraced and the second half
traced; it holds the per-layer metrics and the tracing overhead, and the
spans are written to `.nmfbench_out/<run>/spans.jsonl`.  The exit code is
0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-ups before and after the timed operations: one set-up takes well
# under a second, so spreading them over the run averages the host's
# speed over more of it
SETUP_BEFORE = 5
SETUP_AFTER = 4
MIN_ROUNDS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-dense", "sparse-kl", "rank-sweep",
                                 "method-suite"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def timed_setup(workload, seed, out, repeats):
    """Set-up times in `repeats` fresh interpreters, each writing to `out`."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(HERE / "prepare.py"), "--workload", workload,
             "--seed", str(seed), "--out", str(out)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError("set-up failed:\n" + proc.stderr[-2000:])
        last = proc.stdout.strip().splitlines()[-1]
        times.append(json.loads(last)["setup_s"])
    return times


def measure(wl, seconds, problems):
    """Repeat whole rounds for `seconds`; per-operation wall and CPU times."""
    walls, cpus, failed, rounds = [], [], 0, 0
    deadline = time.perf_counter() + seconds
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        for j in range(wl.ops_per_round):
            if wl.tracer is not None:
                wl.tracer.op = len(walls)
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                wl.operation(j)
            except Exception as exc:  # a failed operation is counted
                failed += 1
                print("operation failed: %r" % (exc,), file=sys.stderr)
            t1 = time.perf_counter()
            c1 = time.process_time()
            walls.append(t1 - t0)
            cpus.append(c1 - c0)
            problems += wl.after(j)
        rounds += 1
    return walls, cpus, failed


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "nmfkit" / "__init__.py").is_file():
        print("nmfbench: no nmfkit sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    run_name = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    outdir = ROOT / ".nmfbench_out" / run_name
    shutil.rmtree(outdir, ignore_errors=True)
    inputs_dir = outdir / "inputs"
    setup_times = timed_setup(args.workload, args.seed, inputs_dir,
                              SETUP_BEFORE)

    sys.path.insert(0, str(ROOT / "src"))
    import nmfkit
    if Path(nmfkit.__file__).resolve().parent != ROOT / "src" / "nmfkit":
        print("nmfbench: imported nmfkit from %s" % nmfkit.__file__,
              file=sys.stderr)
        return 2
    import prepare
    import tracing
    import workloads

    # the inputs the set-up wrote; generating them here again would count
    # the generator's memory in peak_rss_mb
    inputs = prepare.input_paths(args.workload, inputs_dir)
    wl = workloads.WORKLOADS[args.workload](inputs, outdir, args.seed)
    problems = []
    wl.warm_up()
    if args.trace:
        walls, _, failed = measure(wl, args.seconds / 2, problems)
        tracer = tracing.Tracer()
        wl.tracer = tracer
        tracer.install()
        try:
            traced, _, traced_failed = measure(wl, args.seconds / 2, problems)
        finally:
            tracer.uninstall()
            wl.tracer = None
        tracer.write(outdir / "spans.jsonl")
        overhead = statistics.median(traced) - statistics.median(walls)
        layer = tracing.layer_metrics(tracer.spans, len(traced), overhead)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layer.items()}
        attempted = len(walls) + len(traced)
        failed += traced_failed
    else:
        walls, cpus, failed = measure(wl, args.seconds, problems)
        setup_times += timed_setup(args.workload, args.seed,
                                   outdir / "inputs-again", SETUP_AFTER)
        setup_s = statistics.median(setup_times)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
        attempted = len(walls)

    found, info = wl.check()
    problems += found
    for problem in problems:
        print("check failed: %s" % problem, file=sys.stderr)
    print("nmfbench %s seed %d: %d operations, wall s %s, %s"
          % (args.workload, args.seed, attempted,
             " ".join("%.3f" % w for w in walls), json.dumps(info)),
          file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
