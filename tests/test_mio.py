import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import make_rng, sparsify, to_csr
import nmfkit.mio as mio_mod
from nmfkit.errors import (DomainError, IoError, OutOfMemoryError, ParamError,
                           ParseError)
from nmfkit.factor import FactorConfig, factorize
from nmfkit.matcore import DataMatrix
from nmfkit.mio import read_matrix, synth, write_matrix, write_summary


class TestReadMtx:
    def test_coordinate_single_entry(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "% a comment\n"
                        "2 2 1\n"
                        "1 1 3.0\n")
        m = read_matrix(path)
        assert m.is_sparse and m.shape == (2, 2) and m.nnz == 1
        np.testing.assert_array_equal(m.to_dense(), [[3.0, 0.0], [0.0, 0.0]])

    def test_array_is_column_major(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n"
                        "2 2\n1\n2\n3\n4\n")
        m = read_matrix(path)
        np.testing.assert_array_equal(m.to_dense(), [[1.0, 3.0], [2.0, 4.0]])

    def test_entry_count_mismatch(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 2\n1 1 3.0\n")
        with pytest.raises(ParseError):
            read_matrix(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket tensor coordinate real general\n1 1 0\n")
        with pytest.raises(ParseError):
            read_matrix(path)

    def test_unsupported_field(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate complex general\n"
                        "1 1 1\n1 1 1.0 0.0\n")
        with pytest.raises(ParseError):
            read_matrix(path)

    def test_nan_rejected_with_parse_error(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "1 1 1\n1 1 nan\n")
        with pytest.raises(ParseError):
            read_matrix(path)

    def test_out_of_bounds_index(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 1\n3 1 1.0\n")
        with pytest.raises(ParseError) as err:
            read_matrix(path)
        assert "line" in str(err.value)

    def test_duplicate_entry(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 2\n1 1 1.0\n1 1 2.0\n")
        with pytest.raises(ParseError):
            read_matrix(path)

    def test_negative_entry_kept_until_factorize(self, tmp_path):
        # V >= 0 is a rule of the model input, checked by factorize alone
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "1 1 1\n1 1 -2.0\n")
        m = read_matrix(path)
        assert m.to_dense()[0, 0] == -2.0
        with pytest.raises(DomainError, match="negative"):
            factorize(m, FactorConfig(method="nmf-eu", rank=1))

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(IoError):
            read_matrix(tmp_path / "absent.mtx")

    def test_memory_error_is_typed(self, tmp_path, monkeypatch):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n"
                        "1 1\n2.0\n")

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(mio_mod, "_read_mtx", exhausted)
        with pytest.raises(OutOfMemoryError, match="m.mtx") as info:
            read_matrix(path)
        assert info.value.kind == "memory"


class TestReadCsv:
    def test_basic(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n")
        np.testing.assert_array_equal(read_matrix(path).to_dense(),
                                      [[1.0, 2.0], [3.0, 4.0]])

    def test_header_autodetected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("alpha,beta\n1,2\n3,4\n")
        np.testing.assert_array_equal(read_matrix(path).to_dense(),
                                      [[1.0, 2.0], [3.0, 4.0]])

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ParseError):
            read_matrix(path)

    def test_inf_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,inf\n")
        with pytest.raises(ParseError):
            read_matrix(path)

    def test_unknown_extension_needs_format(self, tmp_path):
        path = tmp_path / "m.dat"
        path.write_text("1,2\n")
        with pytest.raises(ParamError):
            read_matrix(path)
        np.testing.assert_array_equal(read_matrix(path, fmt="csv").to_dense(),
                                      [[1.0, 2.0]])


class TestRoundtrips:
    @settings(max_examples=50, deadline=None)
    @given(hnp.arrays(np.float64,
                      hnp.array_shapes(min_dims=2, max_dims=2, min_side=1,
                                       max_side=6),
                      elements=st.floats(min_value=-1e12, max_value=1e12,
                                         allow_nan=False)))
    def test_dense_mtx_roundtrip_exact(self, arr):
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.mtx"
            write_matrix(DataMatrix.dense(arr), path)
            back = read_matrix(path)
        np.testing.assert_array_equal(back.to_dense(), arr)

    @pytest.mark.parametrize("seed", range(6))
    def test_sparse_mtx_roundtrip_exact(self, seed, tmp_path):
        rng = make_rng(seed)
        dense = sparsify(rng, 7, 5, density=0.3)
        sp = to_csr(dense)
        path = tmp_path / "m.mtx"
        write_matrix(sp, path)
        back = read_matrix(path)
        assert back.is_sparse
        np.testing.assert_array_equal(back.indptr, sp.indptr)
        np.testing.assert_array_equal(back.indices, sp.indices)
        np.testing.assert_array_equal(back.data, sp.data)

    @pytest.mark.parametrize("seed", range(4))
    def test_csv_roundtrip_exact(self, seed, tmp_path):
        rng = make_rng(seed)
        arr = rng.normal(size=(5, 4)) * 10.0 ** rng.integers(-8, 8)
        path = tmp_path / "m.csv"
        write_matrix(DataMatrix.dense(arr), path)
        np.testing.assert_array_equal(
            read_matrix(path).to_dense(), arr)


class TestSummary:
    def doc(self, **overrides):
        base = dict(schema_version="2", method="lsnmf", rank=3,
                    seed_method="random_vcol", n_iter=10, max_iter=20,
                    rss=1.0, evar=0.9, dist_euclidean=1.0, dist_kl=2.0,
                    sparseness_w=0.5, sparseness_h=0.6, warnings=[])
        base.update(overrides)
        return base

    def test_writes_the_given_keys_sorted(self, tmp_path):
        path = tmp_path / "summary.json"
        write_summary(self.doc(), path)
        assert json.loads(path.read_text()) == self.doc()
        assert path.read_text() == (
            json.dumps(self.doc(), indent=2, sort_keys=True) + "\n")

    def test_trace_included_when_present(self, tmp_path):
        path = tmp_path / "summary.json"
        write_summary(self.doc(objective_trace=[3.0, 2.0]), path)
        assert json.loads(path.read_text())["objective_trace"] == [3.0, 2.0]

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(ParamError):
            write_summary(self.doc(rss=float("nan")), tmp_path / "s.json")

    def test_nested_non_finite_rejected(self, tmp_path):
        with pytest.raises(ParamError, match="'ranks'"):
            write_summary(self.doc(ranks=[{"cophenetic": float("inf")}]),
                          tmp_path / "s.json")
        assert not (tmp_path / "s.json").exists()


class TestSynth:
    def test_noise_free_is_exact_product_with_bounded_rank(self):
        v, w, h = synth(15, 12, 3, noise_sigma=0.0, density=1.0, seed=4)
        np.testing.assert_array_equal(v.to_dense(), w @ h)
        assert np.linalg.matrix_rank(v.to_dense()) <= 3

    def test_deterministic(self):
        a = synth(10, 8, 2, noise_sigma=0.05, density=0.8, seed=9)
        b = synth(10, 8, 2, noise_sigma=0.05, density=0.8, seed=9)
        for x, y in zip(a, b):
            x = x.to_dense() if isinstance(x, DataMatrix) else x
            y = y.to_dense() if isinstance(y, DataMatrix) else y
            np.testing.assert_array_equal(x, y)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 15), st.integers(2, 15), st.integers(1, 4),
           st.floats(0, 0.5), st.floats(0.1, 1.0), st.integers(0, 50))
    def test_always_nonnegative(self, m, n, k, noise, density, seed):
        k = min(k, m, n)
        v, w, h = synth(m, n, k, noise_sigma=noise, density=density, seed=seed)
        assert float(v.to_dense().min()) >= 0.0
        assert w.min() >= 0.0 and h.min() >= 0.0

    def test_density_thresholding(self):
        v, _, _ = synth(20, 20, 2, noise_sigma=0.0, density=0.3, seed=1)
        frac = np.count_nonzero(v.to_dense()) / 400.0
        assert frac <= 0.35

    def test_param_validation(self):
        with pytest.raises(ParamError):
            synth(4, 4, 9)
        with pytest.raises(ParamError):
            synth(4, 4, 2, density=0.0)
        with pytest.raises(ParamError):
            synth(4, 4, 2, noise_sigma=-1.0)
        for sigma in (float("nan"), float("inf")):  # nan gave noise-free data
            with pytest.raises(ParamError, match="noise_sigma"):
                synth(4, 4, 2, noise_sigma=sigma)
