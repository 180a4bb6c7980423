"""Shared helpers for the test suite."""

from pathlib import Path

import numpy as np
import pytest

from nmfkit.matcore import DataMatrix

HERE = Path(__file__).parent


def pytest_collection_modifyitems(items):
    """Fail every test under tests/ on a warning it does not expect.

    The mark goes first, so a test's own `filterwarnings` marks override
    it; `pytest.warns` and `warnings.catch_warnings` still record.
    """
    for item in items:
        if HERE in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"),
                            append=False)


def make_rng(seed):
    return np.random.default_rng(seed)


def random_nonneg(rng, m, n, low=0.0, high=1.0):
    return rng.uniform(low, high, size=(m, n))


def to_csr(dense) -> DataMatrix:
    """Independent dense -> CSR conversion used as a test-side oracle."""
    dense = np.asarray(dense, dtype=np.float64)
    m, n = dense.shape
    rows, cols, vals = [], [], []
    for i in range(m):
        for j in range(n):
            if dense[i, j] != 0.0:
                rows.append(i)
                cols.append(j)
                vals.append(dense[i, j])
    indptr = np.zeros(m + 1, dtype=np.int64)
    for r in rows:
        indptr[r + 1] += 1
    indptr = np.cumsum(indptr)
    return DataMatrix.csr(indptr, cols, vals, (m, n))


def sparsify(rng, m, n, density=0.2, high=1.0):
    """Random nonnegative matrix with roughly `density` nonzero entries."""
    dense = rng.uniform(0.0, high, size=(m, n))
    mask = rng.random((m, n)) < density
    dense = np.where(mask, dense, 0.0)
    # keep at least one nonzero so the matrix is a valid model input
    if not dense.any():
        dense[0, 0] = high / 2
    return dense


def matmul_oracle(a, b):
    """Naive triple-loop matrix product."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, p = a.shape
    p2, n = b.shape
    assert p == p2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(p):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out
