import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_rng, matmul_oracle, sparsify, to_csr
import nmfkit.matcore as matcore_mod
from nmfkit.errors import (DomainError, NmfkitError, OutOfMemoryError,
                           ParamError, ShapeError)
from nmfkit.matcore import (EPS, DataMatrix, RngStream, derive_seed,
                            frobenius_sq, kl_div, kl_div_product, matmul,
                            safe_divide, safe_divide_product)


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

    def test_model_input_contract(self):
        DataMatrix.dense([[0.0, 1.0]]).require_model_input()
        with pytest.raises(DomainError):
            DataMatrix.dense([[-1.0]]).require_model_input()
        with pytest.raises(DomainError):
            DataMatrix.dense([[np.inf]]).require_model_input()


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
        kl_div_product(v, w, h, EPS)
        kl_div(v, w @ h, EPS)
        frobenius_sq(v)
        assert v._dense_data is None and q._dense_data is None

    def test_pattern_kl_within_eps_of_dense(self, name, dense):
        rng = make_rng(5)
        w = rng.uniform(size=(dense.shape[0], 2))
        h = rng.uniform(size=(2, dense.shape[1]))
        w[0, :] = 0.0  # a zero row of W H, where the clamp acts
        m, n = dense.shape
        for eps in (EPS, 1e-3):
            got = kl_div_product(to_csr(dense), w, h, eps)
            want = kl_div(dense, w @ h, eps)
            assert abs(got - want) <= eps * m * n + 1e-12 * abs(want)
        if dense[0].any():
            with pytest.raises(DomainError):
                kl_div_product(to_csr(dense), w, h)
        else:
            assert math.isclose(kl_div_product(to_csr(dense), w, h),
                                kl_div(dense, w @ h), rel_tol=1e-12)


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
        assert kl_div(v, v) == 0.0

    def test_kl_scalar_case(self):
        got = kl_div(np.array([[1.0]]), np.array([[math.e]]))
        np.testing.assert_allclose(got, math.e - 2.0, rtol=1e-12)

    def test_kl_zero_entry_reduces_to_m(self):
        got = kl_div(np.array([[0.0]]), np.array([[2.5]]))
        assert got == 2.5

    def test_kl_domain_error(self):
        with pytest.raises(DomainError):
            kl_div(np.array([[1.0]]), np.array([[0.0]]))
        with pytest.raises(DomainError):
            kl_div(np.array([[-1.0]]), np.array([[1.0]]))

    def test_kl_stabilized_is_finite(self):
        got = kl_div(np.array([[1.0]]), np.array([[0.0]]), eps=EPS)
        assert np.isfinite(got)

    @pytest.mark.parametrize("seed", range(10))
    def test_kl_nonnegative_random_pairs(self, seed):
        rng = make_rng(seed)
        v = rng.uniform(0.01, 1.0, size=(5, 5))
        m = rng.uniform(0.01, 1.0, size=(5, 5))
        assert kl_div(v, m) > 0.0  # distinct matrices: strictly positive
        assert kl_div(v, v) == 0.0


class TestKlCachedTerms:
    @pytest.mark.parametrize("eps", [0.0, EPS])
    def test_datamatrix_bitwise_equals_ndarray(self, eps):
        rng = make_rng(21)
        v = sparsify(rng, 9, 7, 0.6)
        dm = DataMatrix.dense(v)
        for _ in range(10):
            m = rng.uniform(0.01, 1.0, size=v.shape)
            assert kl_div(dm, m, eps) == kl_div(v, m, eps)

    def test_errors_raised_after_cache_filled(self):
        v = DataMatrix.dense([[1.0, 0.0], [2.0, 3.0]])
        m = np.ones((2, 2))
        kl_div(v, m)
        bad = np.array([[0.0, 1.0], [1.0, 1.0]])  # M = 0 where V > 0
        with pytest.raises(DomainError):
            kl_div(v, bad)
        assert np.isfinite(kl_div(v, bad, eps=EPS))
        neg = DataMatrix.dense([[1.0, -1.0], [2.0, 3.0]])
        for _ in range(2):
            with pytest.raises(DomainError):
                kl_div(neg, m)

    def test_csr_stays_sparse(self):
        rng = make_rng(22)
        v = sparsify(rng, 8, 6, 0.3)
        sparse = to_csr(v)
        m = rng.uniform(0.01, 1.0, size=v.shape)
        got = kl_div(sparse, m)
        assert sparse.is_sparse
        assert math.isclose(got, kl_div(v, m), rel_tol=1e-12)
        assert kl_div(sparse, m) == got


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

    def test_different_seeds_differ(self):
        a = RngStream(7).uniform(size=100)
        b = RngStream(8).uniform(size=100)
        assert not np.array_equal(a, b)

    def test_negative_seed_rejected(self):
        with pytest.raises(ParamError):
            RngStream(-1)

    def test_choice_without_replacement(self):
        picks = RngStream(3).choice_without_replacement(10, 10)
        assert sorted(picks.tolist()) == list(range(10))
        with pytest.raises(ParamError):
            RngStream(3).choice_without_replacement(5, 6)

    def test_derive_seed_stable_and_mixing(self):
        assert derive_seed(5, 2, 1) == derive_seed(5, 2, 1)
        seen = {derive_seed(5, r, i) for r in range(4) for i in range(16)}
        assert len(seen) == 64
