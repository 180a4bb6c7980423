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
                            frobenius_sq, hadamard, kl_div, matmul,
                            safe_divide, safe_divide_product, transpose)


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

    def test_transpose_csr(self):
        rng = make_rng(4)
        a = sparsify(rng, 5, 4, 0.4)
        t = transpose(to_csr(a))
        assert t.is_sparse
        np.testing.assert_array_equal(t.to_dense(), a.T)


class TestElementwise:
    def test_hadamard_identity(self):
        rng = make_rng(0)
        a = rng.uniform(size=(3, 4))
        np.testing.assert_array_equal(hadamard(a, np.ones((3, 4))), a)

    def test_hadamard_shape(self):
        with pytest.raises(ShapeError):
            hadamard(np.ones((2, 2)), np.ones((2, 3)))

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
