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
#   - W.mtx, H.mtx and summary.json of `factorize` for the nine methods x
#     the six seedings the CLI takes (random_vcol, nndsvda, random,
#     random_c, nndsvd, nndsvdar), at --rank 4 --max-iter 60 --scale-unit
#     --track-error --master-seed 7, on all three inputs;
#   - consensus_report.json/.csv of `rank-estimate --method nmf-kl
#     --ranks 2..4 --runs 5 --master-seed 4` on all three inputs.
# That is 495 files: 492 outputs and the three inputs.  The script is not
# part of check.sh or CI, since some changes alter outputs on purpose.
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

count=$(find "$tmp/out-new" -type f | wc -l)
if diff -r "$tmp/out-ref" "$tmp/out-new"; then
    echo "compare_outputs: all $count files byte-identical to $ref"
else
    echo "compare_outputs: files differ from $ref (of $count)" >&2
    exit 1
fi
