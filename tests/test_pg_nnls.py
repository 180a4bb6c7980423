"""Projected-gradient NNLS against brute-force active-set enumeration."""

import itertools

import numpy as np
import pytest

from conftest import make_rng
from nmfkit.factor import _pg_nnls_gram


def pg_solve(a, b, x0, tol, max_iter, armijo_beta=0.1):
    """min_{X>=0} ||A X - B||_F^2 from X0 by the methods' projected-gradient
    solver, given A'A and A'B."""
    return _pg_nnls_gram(a.T @ a, a.T @ b, x0, tol, max_iter, armijo_beta,
                         0.01)[0]


def nnls_kkt_oracle(a, b):
    """Enumerate all 2^k active sets; return the feasible KKT point.

    Independent of the solver under test: each candidate solves the
    unconstrained least squares on its free set and is screened with the
    KKT sign conditions for min ||Ax - b||^2 s.t. x >= 0.
    """
    k = a.shape[1]
    best = None
    for mask in itertools.product([0, 1], repeat=k):
        free = [i for i in range(k) if mask[i]]
        x = np.zeros(k)
        if free:
            sol, *_ = np.linalg.lstsq(a[:, free], b, rcond=None)
            x[np.array(free)] = sol
        if x.min() < -1e-10:
            continue
        grad = 2.0 * a.T @ (a @ x - b)
        active = [i for i in range(k) if i not in free]
        if all(grad[i] >= -1e-8 for i in active) and \
                all(abs(grad[i]) <= 1e-8 for i in free):
            best = np.maximum(x, 0.0)
            break
    assert best is not None, "oracle found no KKT point"
    return best


def solve_tight(a, b, x0):
    scale = max(np.linalg.norm(2.0 * a.T @ b), 1.0)
    return pg_solve(a, b.reshape(-1, 1), x0.reshape(-1, 1),
                    tol=1e-12 * scale, max_iter=500_000,
                    armijo_beta=0.5).ravel()


def draw_problem(rng, max_cond=50.0):
    """Random (A, b) with bounded conditioning so the lstsq-based oracle
    itself stays trustworthy at the comparison tolerance."""
    while True:
        k = int(rng.integers(1, 4))
        p = int(rng.integers(k, 6))
        a = rng.normal(size=(p, k))
        if np.linalg.cond(a) <= max_cond:
            return a, rng.normal(size=p)


def test_negative_target_clamps_to_zero():
    a = np.eye(2)
    b = np.array([-1.0, 2.0])
    x = solve_tight(a, b, np.array([1.0, 1.0]))
    np.testing.assert_allclose(x, [0.0, 2.0], atol=1e-10)
    np.testing.assert_allclose(x, nnls_kkt_oracle(a, b), atol=1e-10)


def test_feasible_unconstrained_optimum():
    rng = make_rng(0)
    b = rng.uniform(0.1, 1.0, size=4)
    x = solve_tight(np.eye(4), b, np.zeros(4))
    np.testing.assert_allclose(x, b, atol=1e-10)


def test_projected_gradient_norm_meets_tolerance():
    rng = make_rng(1)
    a = rng.normal(size=(5, 3))
    b = rng.normal(size=(5, 2))
    tol = 1e-8
    x = pg_solve(a, b, np.abs(rng.normal(size=(3, 2))), tol=tol,
                 max_iter=50_000)
    assert x.min() >= 0
    grad = 2.0 * (a.T @ a @ x - a.T @ b)
    pg = np.where(x > 0, grad, np.minimum(grad, 0.0))
    assert np.linalg.norm(pg) <= tol


@pytest.mark.parametrize("case", range(40))
def test_matches_kkt_enumeration(case):
    rng = make_rng(1000 + case)
    a, b = draw_problem(rng)
    x0 = np.abs(rng.normal(size=a.shape[1]))
    got = solve_tight(a, b, x0)
    want = nnls_kkt_oracle(a, b)
    np.testing.assert_allclose(got, want, atol=1e-8)


def test_multiple_columns_match_per_column_solves():
    rng = make_rng(5)
    a = rng.normal(size=(6, 3))
    b = rng.normal(size=(6, 4))
    x0 = np.abs(rng.normal(size=(3, 4)))
    scale = max(np.linalg.norm(2.0 * a.T @ b), 1.0)
    block = pg_solve(a, b, x0, tol=1e-12 * scale, max_iter=20_000)
    for j in range(4):
        np.testing.assert_allclose(block[:, j], nnls_kkt_oracle(a, b[:, j]),
                                   atol=1e-7)
