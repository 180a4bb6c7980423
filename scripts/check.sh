#!/usr/bin/env bash
# Run every check of the repository:
#   1. the test suite (tests/, with src/ on the import path);
#   2. the benchmark's own tests (nmfbench/tests), which also catch a
#      renamed function that the benchmark's tracer wraps;
#   3. a short traced benchmark run of each workload that BENCHMARK.json
#      declares, whose exit code is 0 only when every output check passed.
# Every step runs even when an earlier one fails; the script then names
# the steps that failed and exits non-zero.
#
#     scripts/check.sh
#
# Run from any directory; the benchmark writes under .nmfbench_out/.
set -uo pipefail
cd "$(dirname "$0")/.."

failed=()
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q \
    --continue-on-collection-errors || failed+=("1 (tests)")
python3 -m pytest -q nmfbench/tests || failed+=("2 (nmfbench/tests)")
workloads=$(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))') \
    || failed+=("3 (BENCHMARK.json)")
for workload in $workloads; do
    python3 nmfbench/run.py --workload "$workload" --seed 1 --seconds 1 \
        --trace 1 | tail -n 1 || failed+=("3 ($workload)")
done
if ((${#failed[@]})); then
    echo "check.sh: failed steps: ${failed[*]}" >&2
    exit 1
fi
