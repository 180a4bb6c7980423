#!/usr/bin/env bash
# Compare the output files of this checkout with those of another git
# revision, byte for byte, and exit non-zero on any difference.
#
#     scripts/compare_outputs.sh REF        # for example HEAD~
#
# REF is unpacked with `git archive` into a temporary directory.  Each tree
# then writes, with its own code and one BLAS thread:
#   - a dense 60x40 `synth` matrix (rank 4, noise 0.01, seed 3), and its
#     30%-density twin both as a dense array with zeros and in
#     MatrixMarket coordinate format;
#   - a copy of the coordinate file with a `%` comment line in its body,
#     which the reader's loadtxt path refuses, and that copy read by the
#     token path and written again by `convert --to mtx`;
#   - W.mtx, H.mtx and summary.json of `factorize` for the nine methods x
#     the six seedings the CLI takes (random_vcol, nndsvda, random,
#     random_c, nndsvd, nndsvdar), at --rank 4 --max-iter 60 --scale-unit
#     --track-error --master-seed 7, on all three inputs;
#   - consensus_report.json/.csv of `rank-estimate --method nmf-kl
#     --ranks 2..4 --runs 5 --master-seed 4` on all three inputs.
# That is 497 files: 493 outputs and the four inputs.  Each file that
# differs gets one line: the largest relative change over the numbers it
# holds (by key in JSON, by position elsewhere), and for summary.json any
# change of n_iter.  The script is not part of check.sh or CI, since some
# changes alter outputs on purpose.
set -euo pipefail
cd "$(dirname "$0")/.."
ref=${1:?usage: scripts/compare_outputs.sh REF}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/ref"
git archive "$ref" | tar -x -C "$tmp/ref"
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1

# write_outputs SRC OUT: run the command set with the nmfkit under SRC
write_outputs() {
    mkdir "$2"
    PYTHONPATH="$1" python3 - "$2" <<'EOF'
import contextlib
import io
import sys

import numpy as np

from nmfkit import DataMatrix, read_matrix, write_matrix
from nmfkit.cli import main

out = sys.argv[1]


def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(list(argv))
    if code != 0:
        sys.exit("nmfkit %s exited %d: %s"
                 % (" ".join(argv), code, err.getvalue().strip()))


synth = ["synth", "--rows", "60", "--cols", "40", "--rank", "4",
         "--noise", "0.01", "--seed", "3"]
run(*synth, "--output", out + "/dense.mtx")
run(*synth, "--density", "0.3", "--output", out + "/sparse_array.mtx")
d = read_matrix(out + "/sparse_array.mtx").to_dense()
r, c = np.nonzero(d)
write_matrix(DataMatrix.from_coo(r, c, d[r, c], d.shape), out + "/coord.mtx")
with open(out + "/coord.mtx") as fh:
    lines = fh.readlines()
with open(out + "/coord_comment.mtx", "w") as fh:
    fh.writelines(lines[:3] + ["% a comment line in the body\n"] + lines[3:])
run("convert", "--input", out + "/coord_comment.mtx", "--to", "mtx",
    "--output", out + "/coord_comment_converted.mtx")

for name in ("dense", "sparse_array", "coord"):
    data = "%s/%s.mtx" % (out, name)
    for method in ("nmf-eu", "nmf-kl", "lsnmf", "snmf-l", "snmf-r", "nsnmf",
                   "bmf", "bd", "icm"):
        for seed in ("random_vcol", "nndsvda", "random", "random_c",
                     "nndsvd", "nndsvdar"):
            run("factorize", "--input", data, "--method", method,
                "--seed", seed, "--rank", "4", "--max-iter", "60",
                "--scale-unit", "--track-error", "--master-seed", "7",
                "--output-dir", "%s/%s/%s-%s" % (out, name, method, seed))
    run("rank-estimate", "--input", data, "--method", "nmf-kl",
        "--ranks", "2..4", "--runs", "5", "--master-seed", "4",
        "--output-dir", "%s/%s/rank-estimate" % (out, name))
EOF
}

write_outputs "$tmp/ref/src" "$tmp/out-ref"
write_outputs "$PWD/src" "$tmp/out-new"

python3 - "$tmp/out-ref" "$tmp/out-new" "$ref" <<'EOF'
import json
import math
import re
import sys
from pathlib import Path

ref_dir, new_dir, ref = Path(sys.argv[1]), Path(sys.argv[2]), sys.argv[3]
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def numbers(name, data):
    """The numbers in a file, keyed by JSON path or else by position."""
    if name.suffix != ".json":
        return dict(enumerate(float(t) for t in NUMBER.findall(data)))
    found = {}

    def walk(x, path):
        items = x.items() if isinstance(x, dict) else (
            enumerate(x) if isinstance(x, list) else ())
        for key, y in items:
            walk(y, path + (key,))
        if isinstance(x, (int, float)) and not isinstance(x, bool):
            found[path] = float(x)

    walk(json.loads(data), ())
    return found


def rel_change(a, b):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


names = sorted({f.relative_to(d) for d in (ref_dir, new_dir)
                for f in d.rglob("*") if f.is_file()})
differ = 0
for name in names:
    old, new = ref_dir / name, new_dir / name
    if not (old.exists() and new.exists()):
        differ += 1
        print("%s: only in %s" % (name, ref if old.exists() else "this tree"))
        continue
    a, b = old.read_bytes(), new.read_bytes()
    if a == b:
        continue
    differ += 1
    x, y = numbers(name, a), numbers(name, b)
    shared = x.keys() & y.keys()
    line = "max rel change %.3g" % max(
        (rel_change(x[k], y[k]) for k in shared), default=0.0)
    if x.keys() != y.keys():
        line += " over %d shared of %d and %d numbers" % (
            len(shared), len(x), len(y))
    n_iter = ("n_iter",)
    if n_iter in shared and x[n_iter] != y[n_iter]:
        line += ", n_iter %d -> %d" % (x[n_iter], y[n_iter])
    print("%s: %s" % (name, line))
if differ:
    sys.exit("compare_outputs: %d of %d files differ from %s"
             % (differ, len(names), ref))
print("compare_outputs: all %d files byte-identical to %s" % (len(names), ref))
EOF
