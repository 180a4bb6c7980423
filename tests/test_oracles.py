"""Frozen scalar implementations as oracles for the vectorized kernels.

The cyclic one-pair-at-a-time Jacobi SVD, the per-entry rectified-normal
sampler and the per-element matrix writer below are the earlier scalar
code, kept here verbatim in substance.  The Gibbs sampler must reproduce
their chains bit for bit, and write_matrix their files byte for byte; the
QR-preconditioned round-robin Jacobi SVD rotates another matrix in another
order, so it must agree to rounding.
"""

import math
import statistics

import numpy as np
import pytest

import nmfkit._svd as svd_mod
import nmfkit.factor as factor_mod
import nmfkit.seeding as seeding_mod
from conftest import make_rng
from nmfkit import FactorConfig, SeedSpec, factorize
from nmfkit._svd import jacobi_svd
from nmfkit.errors import NumericError, ParamError
from nmfkit.factor import (ParamSet, _gibbs_factor_sweep, bd_gibbs_step,
                           sample_rectified_normal)
from nmfkit.matcore import DataMatrix, RngStream, as_matrix
from nmfkit.mio import write_matrix
from nmfkit.seeding import seed_nndsvd

# -- the frozen scalar sampler -------------------------------------------------

_NORMAL = statistics.NormalDist()


def _norm_cdf(z):
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _norm_inv_cdf(p):
    p = min(max(p, 5e-324), 1.0 - 1e-16)
    return _NORMAL.inv_cdf(p)


def scalar_rectified_normal(mu, var, rng):
    if var <= 0:
        raise ParamError("rectified normal needs positive variance")
    sd = math.sqrt(var)
    u = float(rng.random())
    if mu >= 0:
        lo = _norm_cdf(-mu / sd)
        x = mu + sd * _norm_inv_cdf(lo + u * (1.0 - lo))
    else:
        tail = _norm_cdf(mu / sd)
        x = mu - sd * _norm_inv_cdf((1.0 - u) * tail)
    return max(x, 0.0)


def scalar_gibbs_factor_sweep(w, gram, cross, sigma2, rate, rng, mode_only):
    k = gram.shape[0]
    for a in range(k):
        caa = float(gram[a, a])
        if caa <= 0:
            continue
        mean = (cross[:, a] - w @ gram[:, a] + w[:, a] * caa
                - sigma2 * rate) / caa
        if mode_only:
            w[:, a] = np.maximum(mean, 0.0)
        else:
            var = sigma2 / caa
            for i in range(w.shape[0]):
                w[i, a] = scalar_rectified_normal(float(mean[i]), var, rng)
    return w


def bits(x):
    """The exact bit patterns of a float array (sign bits included)."""
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


class TestSamplerOracle:
    @pytest.mark.parametrize("seed", [0, 5, 2024])
    def test_array_draws_equal_scalar_oracle(self, seed):
        mus = make_rng(seed).normal(scale=20.0, size=3000)
        mus[:4] = [0.0, -0.0, -1e-300, 1e300]
        for var in (1e-8, 0.7, 50.0):
            got = sample_rectified_normal(mus, var, RngStream(seed))
            oracle = RngStream(seed)
            want = [scalar_rectified_normal(float(mu), var, oracle)
                    for mu in mus]
            np.testing.assert_array_equal(bits(got), bits(want))

    def test_array_draws_equal_elementwise_scalar_draws(self):
        mus = make_rng(3).uniform(-5.0, 5.0, size=(7, 4))
        got = sample_rectified_normal(mus, 2.0, RngStream(11))
        stream = RngStream(11)
        want = [sample_rectified_normal(float(mu), 2.0, stream)
                for mu in mus.ravel()]
        assert got.shape == mus.shape
        np.testing.assert_array_equal(bits(got.ravel()), bits(want))

    def test_scalar_mu_gives_float(self):
        x = sample_rectified_normal(0.3, 1.0, RngStream(9))
        assert type(x) is float
        assert x == scalar_rectified_normal(0.3, 1.0, RngStream(9))

    def test_far_negative_means(self):
        mus = np.linspace(-60.0, -30.0, 400)
        got = sample_rectified_normal(mus, 1.0, RngStream(4))
        oracle = RngStream(4)
        want = [scalar_rectified_normal(float(mu), 1.0, oracle) for mu in mus]
        np.testing.assert_array_equal(bits(got), bits(want))
        assert got.min() >= 0.0 and got.max() < 1.0

    def test_degenerate_column_left_unchanged(self):
        rng = make_rng(8)
        v = rng.uniform(0.1, 1.0, size=(9, 6))
        w = rng.uniform(0.1, 1.0, size=(9, 3))
        h = rng.uniform(0.1, 1.0, size=(3, 6))
        h[1] = 0.0  # gram[1, 1] == 0 for the W sweep
        gram, cross = h @ h.T, v @ h.T
        got = _gibbs_factor_sweep(w.copy(), gram, cross, 0.05, 0.0,
                                  RngStream(6), mode_only=False)
        want = scalar_gibbs_factor_sweep(w.copy(), gram, cross, 0.05, 0.0,
                                         RngStream(6), mode_only=False)
        np.testing.assert_array_equal(bits(got), bits(want))
        np.testing.assert_array_equal(got[:, 1], w[:, 1])

    @pytest.mark.parametrize("shape,rank,seed", [
        ((6, 5), 2, 17), ((12, 9), 3, 1), ((30, 20), 5, 2), ((5, 40), 4, 9),
        ((40, 3), 1, 33)])
    def test_bd_chain_bitwise_equal(self, monkeypatch, shape, rank, seed):
        v = make_rng(seed).uniform(0.0, 1.0, size=shape)
        cfg = FactorConfig(method="bd", rank=rank,
                           seed=SeedSpec("random_vcol"), max_iter=12,
                           master_seed=seed)
        got, _ = factorize(v, cfg)
        monkeypatch.setattr(factor_mod, "_gibbs_factor_sweep",
                            scalar_gibbs_factor_sweep)
        want, _ = factorize(v, cfg)
        np.testing.assert_array_equal(bits(got.W), bits(want.W))
        np.testing.assert_array_equal(bits(got.H), bits(want.H))
        assert got.final_objective == want.final_objective

    def test_bd_step_with_zero_row_and_rates(self, monkeypatch):
        rng = make_rng(12)
        v = rng.uniform(0.0, 1.0, size=(10, 7))
        w = rng.uniform(0.1, 1.0, size=(10, 3))
        h = rng.uniform(0.1, 1.0, size=(3, 7))
        h[2] = 0.0
        priors = ParamSet(alpha_rate=0.5, beta_rate=2.0)
        got = bd_gibbs_step(v, w, h, 0.02, priors, RngStream(1))
        monkeypatch.setattr(factor_mod, "_gibbs_factor_sweep",
                            scalar_gibbs_factor_sweep)
        want = bd_gibbs_step(v, w, h, 0.02, priors, RngStream(1))
        for a, b in zip(got[:2], want[:2]):
            np.testing.assert_array_equal(bits(a), bits(b))
        assert got[2] == want[2]


# -- the frozen cyclic Jacobi SVD ----------------------------------------------


def cyclic_jacobi_svd(a, max_sweeps=60, rel_tol=1e-14):
    a = np.asarray(a, dtype=np.float64)
    m, n = a.shape
    if m < n:
        vt, s, ut = cyclic_jacobi_svd(a.T, max_sweeps, rel_tol)
        return ut.T, s, vt.T
    g = a.copy()
    v = np.eye(n)
    for _ in range(max_sweeps):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                app = float(g[:, p] @ g[:, p])
                aqq = float(g[:, q] @ g[:, q])
                apq = float(g[:, p] @ g[:, q])
                if apq == 0.0 or apq * apq <= (rel_tol * rel_tol) * app * aqq:
                    continue
                rotated = True
                zeta = (aqq - app) / (2.0 * apq)
                t = np.sign(zeta) / (abs(zeta) + np.hypot(1.0, zeta))
                if zeta == 0.0:
                    t = 1.0
                c = 1.0 / np.hypot(1.0, t)
                s_ = c * t
                gp = g[:, p].copy()
                g[:, p] = c * gp - s_ * g[:, q]
                g[:, q] = s_ * gp + c * g[:, q]
                vp = v[:, p].copy()
                v[:, p] = c * vp - s_ * v[:, q]
                v[:, q] = s_ * vp + c * v[:, q]
        if not rotated:
            break
    else:
        raise AssertionError("oracle sweeps did not converge")
    sigma = np.sqrt(np.sum(g * g, axis=0))
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    g = g[:, order]
    v = v[:, order]
    u = np.zeros_like(g)
    nz = sigma > 0
    u[:, nz] = g[:, nz] / sigma[nz]
    return u, sigma, v.T


def rank_deficient(rng, m, n, r):
    return rng.uniform(size=(m, r)) @ rng.uniform(size=(r, n))


def _qr_edge_cases():
    rng = make_rng(48)
    zero_col = rng.normal(size=(12, 7))
    zero_col[:, 3] = 0.0  # pivoted last, where its reflector has zero norm
    base = rng.normal(size=(12, 4))
    return [("zero_column", zero_col),
            ("duplicate_columns", base[:, [0, 1, 0, 2, 3, 1, 2]]),
            ("exact_rank_5", rank_deficient(rng, 200, 50, 5)),
            ("graded_columns",
             rng.normal(size=(30, 13)) * np.logspace(0, -12, 13)),
            ("wide", rng.normal(size=(5, 40)))]


QR_EDGE_CASES = _qr_edge_cases()

# (name, matrix, seeding rank k); k never exceeds the numerical rank, so
# the singular triplets NNDSVD uses are unique up to sign
SEED_CASES = [
    ("odd_n", make_rng(40).uniform(size=(12, 7)), 5),
    ("m_lt_n", make_rng(41).uniform(size=(5, 9)), 4),
    ("n_is_1", make_rng(42).uniform(size=(8, 1)), 1),
    ("m_is_1", make_rng(43).uniform(size=(1, 6)), 1),
    ("rank_deficient", rank_deficient(make_rng(44), 10, 7, 3), 3),
    ("suite_like", make_rng(45).uniform(size=(60, 21)), 10),
]


class TestJacobiOracle:
    @pytest.mark.parametrize("shape", [(1, 1), (3, 3), (9, 1), (1, 9), (12, 7),
                                       (7, 12), (30, 31), (40, 16)])
    def test_singular_values_match_cyclic(self, shape):
        a = make_rng(shape[0] * 37 + shape[1]).normal(size=shape)
        _, got, _ = jacobi_svd(a)
        _, want, _ = cyclic_jacobi_svd(a)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * want[0])

    def test_rank_deficient_singular_values(self):
        a = rank_deficient(make_rng(46), 14, 9, 4)
        u, got, vt = jacobi_svd(a)
        _, want, _ = cyclic_jacobi_svd(a)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * want[0])
        np.testing.assert_allclose(u * got @ vt, a, atol=1e-13 * want[0])

    @pytest.mark.parametrize("name,a", QR_EDGE_CASES,
                             ids=[case[0] for case in QR_EDGE_CASES])
    def test_qr_edge_cases_match_cyclic(self, name, a):
        u, got, vt = jacobi_svd(a)
        _, want, _ = cyclic_jacobi_svd(a)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * want[0])
        np.testing.assert_allclose(u * got @ vt, a, atol=1e-13 * want[0])

    def test_zero_singular_value_gives_zero_row_of_vt(self):
        # m >= n: u = Q J stays orthonormal and vt carries the zero vector
        a = QR_EDGE_CASES[0][1]
        u, s, vt = jacobi_svd(a)
        assert s[-1] == 0.0
        np.testing.assert_array_equal(vt[-1], 0.0)
        np.testing.assert_allclose(u.T @ u, np.eye(a.shape[1]), atol=1e-14)

    def test_sweep_limit_raises(self, monkeypatch):
        monkeypatch.setattr(svd_mod, "MAX_SWEEPS", 1)
        with pytest.raises(NumericError):
            jacobi_svd(make_rng(47).normal(size=(20, 10)))

    @pytest.mark.parametrize("kind", ["nndsvd", "nndsvda", "nndsvdar"])
    @pytest.mark.parametrize("name,v,k", SEED_CASES,
                             ids=[case[0] for case in SEED_CASES])
    def test_nndsvd_seeds_match_cyclic(self, monkeypatch, kind, name, v, k):
        w, h = seed_nndsvd(v, k, kind, RngStream(3))
        monkeypatch.setattr(seeding_mod, "jacobi_svd", cyclic_jacobi_svd)
        w_want, h_want = seed_nndsvd(v, k, kind, RngStream(3))
        np.testing.assert_allclose(w, w_want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(h, h_want, rtol=0, atol=1e-12)


# -- the frozen per-element matrix writer --------------------------------------


def per_element_write(matrix, path):
    """The earlier write_matrix: each value read by index, one at a time."""
    matrix = as_matrix(matrix)
    out = []
    if path.suffix == ".mtx":
        if matrix.is_sparse:
            out.append("%%MatrixMarket matrix coordinate real general")
            out.append("%d %d %d" % (matrix.rows, matrix.cols, matrix.nnz))
            for i in range(matrix.rows):
                s, e = matrix.indptr[i], matrix.indptr[i + 1]
                for idx in range(s, e):
                    out.append("%d %d %.17g" % (i + 1, matrix.indices[idx] + 1,
                                                float(matrix.data[idx])))
        else:
            dense = matrix.dense_view()
            out.append("%%MatrixMarket matrix array real general")
            out.append("%d %d" % matrix.shape)
            for j in range(matrix.cols):
                for i in range(matrix.rows):
                    out.append("%.17g" % float(dense[i, j]))
    else:
        dense = matrix.dense_view()
        for i in range(matrix.rows):
            out.append(",".join("%.17g" % float(x) for x in dense[i, :]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")


def _writer_cases():
    rng = make_rng(90)
    dense = rng.uniform(size=(7, 5)) * 10.0 ** rng.integers(-9, 9, (7, 5))
    dense[2, 3] = -0.0
    dense[4, :3] = [1e-300, 1e300, 5e-324]
    # rows 0 and 5 have no stored entry; row 6 stores an explicit -0.0
    sparse = DataMatrix.from_coo([1, 1, 2, 3, 4, 4, 6], [0, 4, 2, 1, 0, 3, 2],
                                 [0.1, 1e300, 1e-300, 2.5, 1 / 3, 7.0, -0.0],
                                 (7, 5))
    return [("dense", DataMatrix.dense(dense)), ("row", dense[:1]),
            ("column", dense[:, :1]), ("csr", sparse)]


class TestMatrixWriterOracle:
    @pytest.mark.parametrize("suffix", [".mtx", ".csv"])
    @pytest.mark.parametrize("name,matrix", _writer_cases(),
                             ids=[case[0] for case in _writer_cases()])
    def test_bytes_match_per_element_writer(self, tmp_path, suffix, name,
                                            matrix):
        got, want = tmp_path / ("got" + suffix), tmp_path / ("want" + suffix)
        write_matrix(matrix, got)
        per_element_write(matrix, want)
        assert got.read_bytes() == want.read_bytes()
