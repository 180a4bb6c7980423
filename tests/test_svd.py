"""The in-repo Jacobi SVD is checked against numpy's LAPACK-backed SVD."""

import ast
import inspect
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import make_rng
import nmfkit._svd as svd_mod
import nmfkit.seeding as seeding_mod
from nmfkit._svd import jacobi_svd

# numpy names that reach BLAS or LAPACK
BLAS_ROUTES = {"dot", "matmul", "inner", "vdot", "tensordot", "linalg"}


def blas_routes(source):
    """Each `@`, BLAS-backed numpy attribute or einsum `optimize=` (which
    may hand the contraction to tensordot) in `source`, with its line."""
    found = []
    for node in ast.walk(ast.parse(textwrap.dedent(source))):
        if (isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.MatMult)):
            found.append(("@", node.lineno))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_ROUTES:
            found.append((node.attr, node.lineno))
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "attr", None) == "einsum"
              and any(k.arg == "optimize" for k in node.keywords)):
            found.append(("einsum optimize=", node.lineno))
    return found


def test_nndsvd_path_calls_no_blas():
    # NNDSVD seeds must not depend on the BLAS library or its thread count
    sources = {"_svd.py": inspect.getsource(svd_mod)}
    for fn in (seeding_mod.seed_nndsvd, seeding_mod._norm):
        sources[fn.__name__] = inspect.getsource(fn)
    found = {name: blas_routes(src) for name, src in sources.items()}
    assert found == {name: [] for name in sources}


def check_against_lapack(a, rtol=1e-9):
    u, s, vt = jacobi_svd(a)
    ref = np.linalg.svd(a, compute_uv=False)
    scale = max(ref[0], 1.0)
    np.testing.assert_allclose(s, ref, rtol=rtol, atol=rtol * scale)
    # reconstruction and orthonormality
    np.testing.assert_allclose(u @ np.diag(s) @ vt, a, atol=1e-9 * scale)
    r = min(a.shape)
    gram = u.T @ u
    np.testing.assert_allclose(np.diag(gram)[s > 1e-12 * scale],
                               1.0, atol=1e-9)


@pytest.mark.parametrize("shape", [(1, 1), (3, 3), (5, 2), (2, 5), (8, 8),
                                   (12, 7), (7, 12)])
def test_random_matrices(shape):
    rng = make_rng(shape[0] * 100 + shape[1])
    check_against_lapack(rng.normal(size=shape))


def test_rank_one_exact():
    a = np.outer([1.0, 2.0], [1.0, 2.0])
    u, s, vt = jacobi_svd(a)
    np.testing.assert_allclose(s, [5.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(np.abs(u[:, 0]), np.array([1.0, 2.0]) / np.sqrt(5),
                               rtol=1e-12)


def test_rank_deficient():
    rng = make_rng(5)
    base = rng.normal(size=(6, 2))
    a = base @ rng.normal(size=(2, 5))
    u, s, vt = jacobi_svd(a)
    assert np.all(s[2:] < 1e-10 * s[0])
    check_against_lapack(a)


def test_zero_matrix():
    u, s, vt = jacobi_svd(np.zeros((3, 4)))
    np.testing.assert_array_equal(s, np.zeros(3))


def test_descending_order():
    rng = make_rng(11)
    _, s, _ = jacobi_svd(rng.normal(size=(9, 6)))
    assert np.all(np.diff(s) <= 0)


def test_deterministic():
    rng = make_rng(2)
    a = rng.normal(size=(7, 5))
    u1, s1, v1 = jacobi_svd(a)
    u2, s2, v2 = jacobi_svd(a)
    np.testing.assert_array_equal(u1, u2)
    np.testing.assert_array_equal(s1, s2)
    np.testing.assert_array_equal(v1, v2)


@settings(max_examples=40, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                               min_side=1, max_side=8),
                  elements=st.floats(min_value=-10, max_value=10)))
def test_property_vs_lapack(a):
    check_against_lapack(a, rtol=1e-8)
