"""Generate a workload's inputs from its seed and write its input files.

Run as a script it times itself from before `import nmfkit` to the last
file written, and prints {"setup_s": ...} as its last line:

    python3 nmfbench/prepare.py --workload sparse-kl --seed 3 --out DIR

Every input depends only on the workload, the seed and the sizes below.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Sizes:
    """Input and run sizes; the tests shrink them."""

    # cli-dense: the c09 reference run on `dense_inputs` matrices per round
    dense_shape: tuple = (200, 50)
    dense_true_rank: int = 5
    dense_inputs: int = 8
    dense_rank: int = 40
    dense_max_iter: int = 65
    # sparse-kl: Poisson counts with a planted rank-10 mean, ~2% nonzero
    sparse_shape: tuple = (2000, 1000)
    sparse_true_rank: int = 10
    sparse_scale: float = 0.1
    sparse_max_iter: int = 10
    # rank-sweep: the c05 sweep widened to 200 columns
    sweep_shape: tuple = (100, 200)
    sweep_true_rank: int = 3
    sweep_ranks: tuple = (2, 5)
    sweep_runs: int = 20
    # method-suite: every method for a fixed number of iterations
    suite_shape: tuple = (200, 50)
    suite_true_rank: int = 5
    suite_rank: int = 10
    suite_iters: int = 30


FULL = Sizes()


def input_seed(seed, index=0):
    """Seed of the index-th generated matrix of a run with `seed`."""
    return 1000 * seed + index


def sparse_counts(sizes, seed):
    """Poisson counts around a block-structured rank-k mean, as CSR."""
    import numpy as np
    from nmfkit import DataMatrix

    m, n = sizes.sparse_shape
    k = sizes.sparse_true_rank
    rng = np.random.default_rng(input_seed(seed))
    w = rng.uniform(0.0, 0.1, (m, k))
    w[np.arange(m), np.arange(m) * k // m] = rng.uniform(0.5, 1.5, m)
    h = rng.uniform(0.0, 0.1, (k, n))
    h[np.arange(n) * k // n, np.arange(n)] = rng.uniform(0.5, 1.5, n)
    counts = rng.poisson(sizes.sparse_scale * (w @ h))
    rows, cols = np.nonzero(counts)
    return DataMatrix.from_coo(rows, cols, counts[rows, cols].astype(float),
                               (m, n))


def suite_matrix(sizes, seed):
    """The method-suite input: a synth matrix divided by its maximum."""
    from nmfkit import synth

    m, n = sizes.suite_shape
    v, _, _ = synth(m, n, sizes.suite_true_rank, noise_sigma=0.01,
                    seed=input_seed(seed))
    dense = v.to_dense()
    return dense / dense.max()


def input_paths(workload, out, sizes=FULL):
    """The files `prepare` writes for the workload into `out`."""
    out = Path(out)
    if workload == "cli-dense":
        return [out / ("V%d.mtx" % i) for i in range(sizes.dense_inputs)]
    if workload == "sparse-kl":
        return [out / "counts.mtx"]
    if workload == "rank-sweep":
        return [out / "V.mtx"]
    if workload == "method-suite":
        return []
    raise ValueError("unknown workload %r" % (workload,))


def prepare(workload, seed, out, sizes=FULL):
    """Write the workload's input files into `out`; return their paths."""
    from nmfkit import synth, write_matrix

    paths = input_paths(workload, out, sizes)
    Path(out).mkdir(parents=True, exist_ok=True)
    if workload == "cli-dense":
        m, n = sizes.dense_shape
        for i, path in enumerate(paths):
            v, _, _ = synth(m, n, sizes.dense_true_rank, noise_sigma=0.01,
                            seed=input_seed(seed, i))
            write_matrix(v, path)
    elif workload == "sparse-kl":
        write_matrix(sparse_counts(sizes, seed), paths[0])
    elif workload == "rank-sweep":
        m, n = sizes.sweep_shape
        v, _, _ = synth(m, n, sizes.sweep_true_rank, noise_sigma=0.01,
                        seed=input_seed(seed))
        write_matrix(v, paths[0])
    else:
        suite_matrix(sizes, seed)
    return paths


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    prepare(args.workload, args.seed, args.out)
    print(json.dumps({"setup_s": time.perf_counter() - _START}))


if __name__ == "__main__":
    main()
