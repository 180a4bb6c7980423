import math
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_rng, matmul_oracle, sparsify, to_csr
import nmfkit.matcore as matcore_mod
from nmfkit.errors import (DomainError, NmfkitError, OutOfMemoryError,
                           ParamError, ShapeError)
from nmfkit.factor import FactorConfig, factorize
from nmfkit.matcore import (EPS, DataMatrix, RngStream, _pattern_of,
                            derive_seed, frobenius_sq, kl_div, matmul,
                            product_on, residual_sq, safe_divide,
                            safe_divide_product)
from nmfkit.seeding import SeedSpec


class TestDataMatrix:
    def test_dense_roundtrip(self):
        m = DataMatrix.dense([[1.0, 2.0], [3.0, 4.0]])
        assert m.shape == (2, 2)
        assert not m.is_sparse
        np.testing.assert_array_equal(m.to_dense(), [[1, 2], [3, 4]])

    def test_csr_valid(self):
        m = DataMatrix.csr([0, 1, 2], [1, 0], [5.0, 7.0], (2, 2))
        np.testing.assert_array_equal(m.to_dense(), [[0, 5], [7, 0]])
        assert m.nnz == 2

    def test_csr_rejects_decreasing_indptr(self):
        with pytest.raises(ParamError):
            DataMatrix.csr([0, 2, 1], [0, 1], [1.0, 1.0], (2, 2))

    def test_csr_rejects_unsorted_columns(self):
        with pytest.raises(ParamError):
            DataMatrix.csr([0, 2], [1, 0], [1.0, 1.0], (1, 2))

    def test_csr_rejects_duplicate_columns(self):
        with pytest.raises(ParamError):
            DataMatrix.csr([0, 2], [1, 1], [1.0, 1.0], (1, 2))

    def test_csr_rejects_out_of_bounds(self):
        with pytest.raises(ParamError):
            DataMatrix.csr([0, 1], [3], [1.0], (1, 2))

    def test_from_coo_rejects_duplicates(self):
        with pytest.raises(ParamError):
            DataMatrix.from_coo([0, 0], [1, 1], [1.0, 2.0], (2, 2))

    def test_empty_shape_rejected(self):
        with pytest.raises(ShapeError):
            DataMatrix.dense(np.zeros((0, 3)))

    def test_dense_view_out_of_memory_is_typed(self, monkeypatch):
        m = DataMatrix.csr([0, 1, 2], [1, 0], [5.0, 7.0], (2, 2))

        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(matcore_mod.np, "zeros", no_memory)
        with pytest.raises(OutOfMemoryError) as info:
            m.dense_view()
        monkeypatch.undo()
        assert isinstance(info.value, NmfkitError)
        assert info.value.kind == "memory"
        assert "2x2" in str(info.value)
        assert m.is_sparse  # nothing was cached
        np.testing.assert_array_equal(m.dense_view(), [[0, 5], [7, 0]])

    def test_csr_stays_sparse_after_dense_view(self):
        m = DataMatrix.csr([0, 1, 2], [1, 0], [5.0, 7.0], (2, 2))
        m.dense_view()
        assert m.is_sparse
        assert m.nnz == 2
        assert repr(m) == "DataMatrix(2x2, csr)"

    def test_csr_order_error_names_the_row(self):
        # row 0 empty, row 1 valid, row 2 out of order; a row boundary
        # between a high and a low column index is not a violation
        with pytest.raises(ParamError, match="row 2"):
            DataMatrix.csr([0, 0, 2, 4], [1, 3, 2, 0], [1.0] * 4, (3, 4))
        ok = DataMatrix.csr([0, 0, 2, 4], [1, 3, 0, 2], [1.0] * 4, (3, 4))
        assert ok.nnz == 4

    def test_from_coo_matches_oracle(self):
        rng = make_rng(5)
        dense = sparsify(rng, 7, 5, 0.3)
        dense[2, :] = 0.0
        dense[:, 4] = 0.0
        r, c = np.nonzero(dense)
        order = rng.permutation(r.size)
        built = DataMatrix.from_coo(r[order], c[order], dense[r, c][order],
                                    dense.shape)
        oracle = to_csr(dense)
        np.testing.assert_array_equal(built.indptr, oracle.indptr)
        np.testing.assert_array_equal(built.indices, oracle.indices)
        np.testing.assert_array_equal(built.data, oracle.data)
        with pytest.raises(ParamError):
            DataMatrix.from_coo([0, 2], [0, 0], [1.0, 1.0], (2, 2))

    @pytest.mark.parametrize("rows, cols, values", [
        ([0], [0], [1.0, 2.0]),
        ([0, 0], [0], [1.0, 2.0]),
        ([0], [0], []),
        ([0.7], [0], [1.0]),
        ([0], [[0]], [1.0]),
        # numpy's ValueError at the parent
        ([0], [0], ["x"]),
        # the imaginary part was dropped with a ComplexWarning
        ([0], [0], [1 + 2j]),
    ], ids=["extra-value", "unequal-indices", "short-values",
            "fractional-index", "two-d-index", "string-value",
            "complex-value"])
    def test_from_coo_refuses_malformed_arrays(self, rows, cols, values):
        with pytest.raises(ParamError):
            DataMatrix.from_coo(rows, cols, values, (1, 1))

    @pytest.mark.parametrize("indptr, indices", [([0, 1], [0.7]),
                                                 ([0, 0.5], [])],
                             ids=["fractional-index", "fractional-indptr"])
    def test_csr_refuses_fractional_indices(self, indptr, indices):
        with pytest.raises(ParamError):
            DataMatrix.csr(indptr, indices, [1.0] * len(indices), (1, 1))

    @pytest.mark.parametrize("shape", [
        (-1, 2), (2, -1), (0, 2), (2.0, 2), (2, 2.5), (2,), (2, 2, 2), 2,
        None, (True, 2)], ids=["negative-rows", "negative-cols", "zero-rows",
                               "float-rows", "fractional-cols", "one-tuple",
                               "three-tuple", "int", "none", "bool-rows"])
    @pytest.mark.parametrize("build", ["from_coo", "csr"])
    def test_bad_shape_is_shape_error(self, build, shape):
        # checked first: (-1, 2) raised ValueError from bincount (from_coo)
        # or IndexError (csr), a float TypeError, a 1-tuple ValueError;
        # (True, 2) built a 1x2 matrix
        first = [] if build == "from_coo" else [0]
        with pytest.raises(ShapeError, match="two integers of at least 1"):
            getattr(DataMatrix, build)(first, [], [], shape)

    def test_from_coo_names_the_first_bad_entry(self):
        with pytest.raises(ParamError, match=r"^coordinate \(1, 0\) "
                           "repeats an earlier entry$"):
            DataMatrix.from_coo([1, 1, 0, 1, 5], [0, 1, 0, 0, 0],
                                [1.0] * 5, (2, 2))
        with pytest.raises(ParamError,
                           match=r"^coordinate \(2, 0\) is out of bounds$"):
            DataMatrix.from_coo([1, 2, 1], [0, 0, 0], [1.0] * 3, (2, 2))

    def test_from_coo_memory_is_bounded(self):
        # the sorted arrays become the instance's own, with no second copy
        rng = make_rng(31)
        m, n, nnz = 2000, 1000, 40_000
        flat = rng.choice(m * n, size=nnz, replace=False)
        rows, cols, values = flat // n, flat % n, rng.uniform(size=nnz)
        tracemalloc.start()
        try:
            built = DataMatrix.from_coo(rows, cols, values, (m, n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert built.nnz == nnz
        assert peak < 40 * nnz

    def test_model_input_contract(self):
        DataMatrix.dense([[0.0, 1.0]]).require_model_input()
        with pytest.raises(DomainError):
            DataMatrix.dense([[-1.0]]).require_model_input()
        with pytest.raises(DomainError):
            DataMatrix.dense([[np.inf]]).require_model_input()

    def test_values_and_with_values_in_both_layouts(self):
        dense = np.array([[0.0, 2.0], [3.0, 0.0]])
        for v, want in ((DataMatrix.dense(dense), [0.0, 2.0, 3.0, 0.0]),
                        (to_csr(dense), [2.0, 3.0])):
            np.testing.assert_array_equal(v.values, want)
            assert not v.values.flags.writeable
            half = v.with_values(v.values / 2.0)
            assert half.is_sparse == v.is_sparse
            np.testing.assert_array_equal(half.to_dense(), dense / 2.0)


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(matmul(np.eye(2), a), a)

    def test_against_triple_loop(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[1.0], [1.0]])
        expected = matmul_oracle(a, b)  # [[3], [7]]
        np.testing.assert_allclose(matmul(a, b), expected, rtol=1e-15)
        np.testing.assert_array_equal(expected, [[3.0], [7.0]])

    def test_csr_diag_case(self):
        d = to_csr(np.diag([2.0, 3.0]))
        out = matmul(d, np.array([[1.0], [1.0]]))
        np.testing.assert_allclose(out, matmul_oracle(np.diag([2.0, 3.0]),
                                                      [[1.0], [1.0]]))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(np.ones((2, 3)), np.ones((2, 3)))

    @pytest.mark.parametrize("seed", range(8))
    def test_csr_operand_matches_densified(self, seed):
        rng = make_rng(seed)
        m, p, n = rng.integers(2, 7, size=3)
        a = sparsify(rng, m, p, density=0.4)
        b = rng.uniform(size=(p, n))
        sp = to_csr(a)
        left = matmul(sp, b)
        right = matmul(a, b)
        np.testing.assert_allclose(left, right, rtol=1e-12, atol=1e-14)
        # dense @ csr kernel
        c = sparsify(rng, p, n, density=0.4)
        np.testing.assert_allclose(matmul(b.T, to_csr(c)), matmul(b.T, c),
                                   rtol=1e-12, atol=1e-14)

    def test_csr_csr(self):
        rng = make_rng(3)
        a = sparsify(rng, 4, 5, 0.5)
        b = sparsify(rng, 5, 3, 0.5)
        np.testing.assert_allclose(matmul(to_csr(a), to_csr(b)), a @ b,
                                   rtol=1e-12)


def csr_cases():
    """(name, dense) pairs that stress the CSR kernels' edge cases."""
    rng = make_rng(31)
    gaps = sparsify(rng, 9, 8, 0.35)
    gaps[[0, 4, 8], :] = 0.0  # empty first, middle and last rows
    gaps[:, [0, 3, 7]] = 0.0  # empty first, middle and last columns
    gaps[1, 1] = 0.5
    return [("gaps", gaps),
            ("row", sparsify(rng, 1, 7, 0.5)),
            ("column", sparsify(rng, 6, 1, 0.5)),
            ("zeros", np.zeros((5, 4))),
            ("zero", np.zeros((1, 1))),
            ("full", rng.uniform(0.1, 1.0, size=(4, 6)))]


@pytest.mark.parametrize("name,dense", csr_cases())
class TestCsrKernels:
    def test_dense_view(self, name, dense):
        np.testing.assert_array_equal(to_csr(dense).dense_view(), dense)

    def test_csr_times_dense(self, name, dense):
        b = make_rng(1).uniform(size=(dense.shape[1], 3))
        np.testing.assert_allclose(matmul(to_csr(dense), b), dense @ b,
                                   rtol=1e-12, atol=1e-12)

    def test_dense_times_csr(self, name, dense):
        a = make_rng(2).uniform(size=(3, dense.shape[0]))
        np.testing.assert_allclose(matmul(a, to_csr(dense)), a @ dense,
                                   rtol=1e-12, atol=1e-12)

    def test_quotient(self, name, dense):
        rng = make_rng(3)
        w = rng.uniform(size=(dense.shape[0], 2))
        h = rng.uniform(size=(2, dense.shape[1]))
        v = to_csr(dense)
        q = safe_divide_product(v, w, h)
        assert q.is_sparse and q.indices is v.indices
        np.testing.assert_allclose(q.dense_view(), dense / (w @ h + EPS),
                                   rtol=1e-12, atol=1e-12)
        # the quotient feeds both products of a KL step
        np.testing.assert_allclose(matmul(w.T, q), w.T @ q.dense_view(),
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(matmul(q, h.T), q.dense_view() @ h.T,
                                   rtol=1e-12, atol=1e-12)

    def test_kernels_leave_no_dense_array(self, name, dense):
        rng = make_rng(4)
        w = rng.uniform(size=(dense.shape[0], 2))
        h = rng.uniform(size=(2, dense.shape[1]))
        v = to_csr(dense)
        q = safe_divide_product(v, w, h)
        matmul(v, h.T), matmul(w.T, v), matmul(q, h.T), matmul(w.T, q)
        kl_div(v, w, h)
        residual_sq(v, w, h)
        frobenius_sq(v)
        assert v._dense_data is None and q._dense_data is None

    def test_residual_matches_dense(self, name, dense):
        rng = make_rng(6)
        w = rng.uniform(size=(dense.shape[0], 2))
        h = rng.uniform(size=(2, dense.shape[1]))
        want = frobenius_sq(dense - w @ h)
        assert math.isclose(residual_sq(to_csr(dense), w, h), want,
                            rel_tol=1e-12)
        assert residual_sq(dense, w, h) == want

    def test_pattern_kl_within_eps_of_dense(self, name, dense):
        rng = make_rng(5)
        w = rng.uniform(size=(dense.shape[0], 2))
        h = rng.uniform(size=(2, dense.shape[1]))
        w[0, :] = 0.0  # a zero row of W H, where the clamp acts
        m, n = dense.shape
        got = kl_div(to_csr(dense), w, h)
        want = kl_div(dense, w, h)
        assert np.isfinite(got)
        assert abs(got - want) <= EPS * m * n + 1e-12 * abs(want)


class TestElementwise:
    def test_safe_divide_zero_denominator(self):
        out = safe_divide(np.array([[1.0]]), np.array([[0.0]]))
        assert np.isfinite(out[0, 0])
        assert out[0, 0] == 1.0 / EPS

    def test_safe_divide_scalar(self):
        out = safe_divide(np.array([[6.0]]), np.array([[2.0]]))
        np.testing.assert_allclose(out, [[3.0]], rtol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=4,
                    max_size=4),
           st.lists(st.floats(min_value=0, max_value=1e6), min_size=4,
                    max_size=4))
    def test_safe_divide_always_finite(self, xs, ys):
        a = np.array(xs).reshape(2, 2)
        b = np.array(ys).reshape(2, 2)
        assert np.all(np.isfinite(safe_divide(a, b)))

    def test_safe_divide_product_matches_composition(self):
        rng = make_rng(7)
        v = sparsify(rng, 6, 5, 0.3)
        w = rng.uniform(size=(6, 2))
        h = rng.uniform(size=(2, 5))
        dense_path = safe_divide(v, matmul(w, h))
        sparse_path = safe_divide_product(to_csr(v), w, h)
        assert sparse_path.is_sparse
        np.testing.assert_allclose(sparse_path.to_dense(), dense_path,
                                   rtol=1e-12, atol=1e-15)
        # one expression for both layouts: a dense V keeps its bits
        dense_q = safe_divide_product(DataMatrix.dense(v), w, h)
        assert not dense_q.is_sparse
        assert np.array_equal(dense_q.dense_view(), dense_path)


class TestReductions:
    def test_frobenius_hand_case(self):
        assert frobenius_sq(np.array([[1.0, 2.0], [3.0, 4.0]])) == 30.0

    def test_frobenius_csr_matches_dense(self):
        rng = make_rng(9)
        a = sparsify(rng, 7, 6, 0.3)
        assert math.isclose(frobenius_sq(to_csr(a)), frobenius_sq(a),
                            rel_tol=1e-12)

    def test_kl_self_is_zero(self):
        rng = make_rng(1)
        v = rng.uniform(size=(4, 4))
        assert kl_div(v, v, np.eye(4)) == 0.0

    def test_kl_scalar_case(self):
        got = kl_div(np.array([[1.0]]), np.array([[math.e]]), np.eye(1))
        np.testing.assert_allclose(got, math.e - 2.0, rtol=1e-12)

    def test_kl_zero_entry_reduces_to_m(self):
        got = kl_div(np.array([[0.0]]), np.array([[2.5]]), np.eye(1))
        assert got == 2.5

    def test_kl_domain_error(self):
        with pytest.raises(DomainError):
            kl_div(np.array([[-1.0]]), np.array([[1.0]]), np.eye(1))

    def test_kl_stabilized_is_finite(self):
        # M = 0 where V > 0 reads as M = EPS
        for v in (np.array([[1.0]]), to_csr(np.array([[1.0]]))):
            got = kl_div(v, np.array([[0.0]]), np.eye(1))
            assert got == math.log(1.0 / EPS) - 1.0 + EPS

    @pytest.mark.parametrize("seed", range(10))
    def test_kl_nonnegative_random_pairs(self, seed):
        rng = make_rng(seed)
        v = rng.uniform(0.01, 1.0, size=(5, 5))
        m = rng.uniform(0.01, 1.0, size=(5, 5))
        # distinct matrices: strictly positive
        assert kl_div(v, m, np.eye(5)) > 0.0
        assert kl_div(v, v, np.eye(5)) == 0.0


class TestKlCachedTerms:
    def test_datamatrix_bitwise_equals_ndarray(self):
        rng = make_rng(21)
        v = sparsify(rng, 9, 7, 0.6)
        dm = DataMatrix.dense(v)
        for _ in range(10):
            m = rng.uniform(0.01, 1.0, size=v.shape)
            m[0, 0] = 0.0  # where the clamp acts
            assert kl_div(dm, m, np.eye(7)) == kl_div(v, m, np.eye(7))

    def test_errors_raised_after_cache_filled(self):
        v = DataMatrix.dense([[1.0, 0.0], [2.0, 3.0]])
        m, eye = np.ones((2, 2)), np.eye(2)
        kl_div(v, m, eye)
        bad = np.array([[0.0, 1.0], [1.0, 1.0]])  # M = 0 where V > 0
        assert np.isfinite(kl_div(v, bad, eye))
        neg = DataMatrix.dense([[1.0, -1.0], [2.0, 3.0]])
        for _ in range(2):
            with pytest.raises(DomainError):
                kl_div(neg, m, eye)

    def test_csr_stays_sparse(self):
        rng = make_rng(22)
        v = sparsify(rng, 8, 6, 0.3)
        sparse = to_csr(v)
        m = rng.uniform(0.01, 1.0, size=v.shape)
        got = kl_div(sparse, m, np.eye(6))
        assert sparse._dense_data is None
        assert math.isclose(got, kl_div(v, m, np.eye(6)), rel_tol=1e-12)
        assert kl_div(sparse, m, np.eye(6)) == got

    @pytest.mark.parametrize("layout", [DataMatrix.dense, to_csr])
    def test_nonconforming_factors_raise_shape_error(self, layout):
        v = layout(np.ones((3, 4)))
        for w, h in ((np.ones((2, 2)), np.ones((2, 4))),
                     (np.ones((3, 2)), np.ones((2, 5))),
                     (np.ones((3, 2)), np.ones((3, 4)))):
            for kernel in (kl_div, residual_sq):
                with pytest.raises(ShapeError, match=kernel.__name__):
                    kernel(v, w, h)

    def test_terms_keep_no_position_index(self):
        # a zero-free V's values are its own buffer; V with zeros keeps a mask
        v = make_rng(23).uniform(0.5, 1.0, size=(4, 3))
        for dm in (DataMatrix.dense(v), to_csr(v)):
            kl_div(dm, np.ones((4, 3)), np.eye(3))
            keep, vp, _ = dm._kl_terms
            assert keep == slice(None)
            assert np.shares_memory(
                vp, dm.data if dm.is_sparse else dm.dense_view())
        holed = DataMatrix.dense([[1.0, 0.0], [2.0, 3.0]])
        kl_div(holed, np.ones((2, 2)), np.eye(2))
        assert holed._kl_terms[0].dtype == bool


class TestResidualSq:
    def test_stored_zeros_match_dense(self):
        rng = make_rng(41)
        dense = sparsify(rng, 40, 30, 0.2, high=5.0)
        dense[3, :] = 0.0
        w, h = rng.uniform(size=(40, 4)), rng.uniform(size=(4, 30))
        # every entry of rows 3..5 stored, zeros included
        stored = np.zeros_like(dense, dtype=bool)
        stored[3:6, :] = True
        r, c = np.nonzero((dense != 0) | stored)
        v = DataMatrix.from_coo(r, c, dense[r, c], dense.shape)
        assert np.count_nonzero(v.data == 0.0) >= 30
        got, want = residual_sq(v, w, h), residual_sq(dense, w, h)
        assert want == frobenius_sq(w @ h - dense)
        assert math.isclose(got, want, rel_tol=1e-13)
        assert v._dense_data is None

    def test_exact_fit_within_cancellation_bound(self):
        # V = W H with W's columns and H's rows on disjoint supports: V's
        # pattern is three blocks, each stored entry one product w h, so
        # only the off-pattern term can read above 0
        rng = make_rng(42)
        m, n, k = 200, 100, 3
        rb, cb = rng.integers(0, k, m), rng.integers(0, k, n)
        w = rng.uniform(0.5, 2.0, (m, k)) * (rb[:, None] == np.arange(k))
        h = rng.uniform(0.5, 2.0, (k, n)) * (cb == np.arange(k)[:, None])
        wh = w @ h
        r, c = np.nonzero(wh)
        v = DataMatrix.from_coo(r, c, wh[r, c], (m, n))
        assert v.nnz < m * n
        got = residual_sq(v, w, h)
        # the docstring's bound: about eps ||W H||^2, a few eps in practice
        assert 0.0 <= got <= 16 * EPS * frobenius_sq(wh)


    @pytest.mark.parametrize("sparse", [False, True])
    def test_given_product_is_left_as_it_is(self, sparse):
        rng = make_rng(43)
        dense = sparsify(rng, 30, 20, 0.3, high=4.0)
        v = to_csr(dense) if sparse else DataMatrix.dense(dense)
        w, h = rng.uniform(size=(30, 3)), rng.uniform(size=(3, 20))
        wh = product_on(v, w, h)
        before = wh.copy()
        got = residual_sq(v, w, h, wh)
        assert wh.tobytes() == before.tobytes()
        assert got == residual_sq(v, w, h)  # the bits of its own product
        assert kl_div(v, w, h, wh) == kl_div(v, w, h)


class TestScratchBuffers:
    """The CSR gathers fill per-thread buffers kept on V's pattern."""

    def test_kernels_equal_allocating_formulas(self):
        rng = make_rng(43)
        v = to_csr(sparsify(rng, 30, 20, 0.3))
        pat = _pattern_of(v)
        for k in (3, 5, 3):  # each change of k makes the buffers again
            w, h = rng.uniform(size=(30, k)), rng.uniform(size=(k, 20))
            got = product_on(v, w, h)
            want = np.einsum("ij,ji->i", w.take(pat.rows, axis=0),
                             h.take(v.indices, axis=1))
            assert got.tobytes() == want.tobytes()

            want = np.zeros((k, 30))
            want[:, pat.row_ids] = np.add.reduceat(
                h.take(v.indices, axis=1) * v.data, pat.row_starts, axis=1)
            got_csr_dense = matmul(v, h.T)
            assert got_csr_dense.tobytes() == np.ascontiguousarray(
                want.T).tobytes()

            want = np.zeros((k, 20))
            want[:, pat.col_ids] = np.add.reduceat(
                w.T.take(pat.col_rows, axis=1) * v.data[pat.by_col],
                pat.col_starts, axis=1)
            got_dense_csr = matmul(w.T, v)
            assert got_dense_csr.tobytes() == want.tobytes()

            bufs = pat.scratch(k)
            assert bufs[0].shape == (v.nnz, k) and bufs[1].shape == (k, v.nnz)
            for out in (got, got_csr_dense, got_dense_csr):
                assert not any(np.shares_memory(out, b) for b in bufs)

    def test_threads_sharing_v_write_the_serial_bytes(self):
        # large enough that numpy releases the interpreter lock in the
        # gathers, and two ranks, so that a shared buffer would be overrun
        rng = make_rng(44)
        dense = sparsify(rng, 200, 150, 0.2)
        configs = [FactorConfig(method, rank, seed=SeedSpec("random"),
                                max_iter=20, min_residual_delta=0.0,
                                conn_change=0, master_seed=seed)
                   for seed, (method, rank) in enumerate(
                       [("nmf-kl", 3), ("nmf-eu", 5), ("nsnmf", 3),
                        ("nmf-kl", 5), ("bmf", 3), ("nmf-kl", 3)])]

        def run(v, cfg):
            model, _ = factorize(v, cfg)
            return model.W.tobytes() + model.H.tobytes()

        serial = [run(to_csr(dense), cfg) for cfg in configs]
        shared = to_csr(dense)
        results = [None] * len(configs)
        start = threading.Barrier(len(configs), timeout=60)

        def worker(i):
            start.wait()
            results[i] = run(shared, configs[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(len(configs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == serial
        assert shared._dense_data is None


class TestRng:
    def test_fixed_seed_reproduces_stream(self):
        a = RngStream(1234).uniform(size=10_000)
        b = RngStream(1234).uniform(size=10_000)
        np.testing.assert_array_equal(a, b)

    def test_stream_identical_across_processes(self):
        code = ("from nmfkit.matcore import RngStream; "
                "print(repr(RngStream(77).uniform(size=10000).sum()))")
        runs = [subprocess.run([sys.executable, "-c", code],
                               capture_output=True, text=True, check=True)
                for _ in range(2)]
        assert runs[0].stdout == runs[1].stdout
        local = repr(RngStream(77).uniform(size=10_000).sum())
        assert runs[0].stdout.strip() == local

    @pytest.mark.skipif((os.cpu_count() or 1) < 2,
                        reason="needs two CPUs for two BLAS threads")
    def test_outputs_identical_across_blas_thread_counts(self, tmp_path):
        # 20,000-element reductions, which OpenBLAS's ddot would split
        # over two threads, a rank-estimate report built on them, the SVD
        # behind NNDSVD seeding and a factorization seeded by it
        code = textwrap.dedent("""\
            import contextlib, hashlib, io, sys
            import numpy as np
            from nmfkit._svd import jacobi_svd
            from nmfkit.cli import main
            from nmfkit.matcore import frobenius_sq, kl_div
            for seed in range(10):
                rng = np.random.default_rng(seed)
                v, m = rng.uniform(size=(2, 100, 200))
                print(kl_div(v, m, np.eye(200)).hex(),
                      frobenius_sq(m).hex())
            a = np.random.default_rng(10).uniform(size=(200, 100))
            usv = b"".join(x.tobytes() for x in jacobi_svd(a))
            print(hashlib.sha256(usv).hexdigest())
            out = sys.argv[1]
            with contextlib.redirect_stdout(io.StringIO()):
                main(["synth", "--rows", "100", "--cols", "200", "--rank",
                      "3", "--noise", "0.01", "--seed", "4",
                      "--output", out + "/v.mtx"])
                main(["rank-estimate", "--input", out + "/v.mtx",
                      "--method", "nmf-kl", "--ranks", "2..3", "--runs", "3",
                      "--master-seed", "4", "--output-dir", out])
                main(["factorize", "--input", out + "/v.mtx", "--method",
                      "nmf-kl", "--seed", "nndsvda", "--rank", "3",
                      "--output-dir", out + "/nndsvda"])
            print(open(out + "/consensus_report.json").read())
            print(open(out + "/nndsvda/summary.json").read())
        """)
        src = str(Path(matcore_mod.__file__).parents[1])
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            out.mkdir()
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, PYTHONPATH=src)
            runs.append(subprocess.run(
                [sys.executable, "-c", code, str(out)], env=env,
                capture_output=True, text=True, check=True).stdout)
        assert runs[0].count("\n") > 10
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("seed", [0, 7, 2**63 + 5])
    def test_stream_is_numpys_generator(self, seed):
        stream = RngStream(seed)
        assert isinstance(stream, np.random.Generator)
        numpy_gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed)))
        def draws(gen):
            return [gen.uniform(2.0, 3.0, size=5), gen.normal(1.0, 0.5, 5),
                    gen.gamma(shape=2.5, scale=0.5, size=5),
                    gen.random(size=5), gen.random()]

        for got, want in zip(draws(stream), draws(numpy_gen)):
            np.testing.assert_array_equal(got, want)

    def test_different_seeds_differ(self):
        a = RngStream(7).uniform(size=100)
        b = RngStream(8).uniform(size=100)
        assert not np.array_equal(a, b)

    def test_negative_seed_rejected(self):
        with pytest.raises(ParamError):
            RngStream(-1)

    @pytest.mark.parametrize("seed", [1.5, float("nan"), "3", True])
    def test_seed_must_be_an_integer(self, seed):
        # 1.5 and True ran as seed 1; NaN raised ValueError and "3"
        # TypeError
        with pytest.raises(ParamError, match="seed"):
            RngStream(seed)
        with pytest.raises(ParamError, match="^master_seed must be "):
            derive_seed(seed, 2)
        with pytest.raises(ParamError, match="^key must be "):
            derive_seed(2, seed)

    def test_choice_without_replacement(self):
        picks = RngStream(3).choice_without_replacement(10, 10)
        assert sorted(picks.tolist()) == list(range(10))
        with pytest.raises(ParamError):
            RngStream(3).choice_without_replacement(5, 6)

    def test_derive_seed_stable_and_mixing(self):
        assert derive_seed(5, 2, 1) == derive_seed(5, 2, 1)
        seen = {derive_seed(5, r, i) for r in range(4) for i in range(16)}
        assert len(seen) == 64
