import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_rng, random_nonneg, to_csr
from nmfkit.errors import ParamError, RankError, SeedError
from nmfkit.matcore import RngStream, frobenius_sq
from nmfkit.seeding import (SEED_METHOD_NAMES, SeedSpec, seed_factors,
                            seed_fixed, seed_nndsvd, seed_random,
                            seed_random_c, seed_random_vcol)


class TestSeedRandom:
    def test_shapes_and_range(self):
        w, h = seed_random(2, 2, 1, RngStream(7))
        assert w.shape == (2, 1) and h.shape == (1, 2)
        assert np.all((w >= 0) & (w < 1)) and np.all((h >= 0) & (h < 1))

    def test_same_seed_bitwise_identical(self):
        w1, h1 = seed_random(5, 4, 2, RngStream(7))
        w2, h2 = seed_random(5, 4, 2, RngStream(7))
        np.testing.assert_array_equal(w1, w2)
        np.testing.assert_array_equal(h1, h2)

    def test_different_seeds_differ(self):
        w1, _ = seed_random(5, 4, 2, RngStream(7))
        w2, _ = seed_random(5, 4, 2, RngStream(8))
        assert not np.array_equal(w1, w2)

    def test_scale(self):
        w, h = seed_random(30, 30, 3, RngStream(1), scale=5.0)
        assert w.max() > 1.0 and w.max() < 5.0

    def test_rank_out_of_range(self):
        with pytest.raises(RankError):
            seed_random(2, 2, 3, RngStream(0))


class TestSeedRandomVcol:
    def test_full_means_deterministic(self):
        v = np.array([[1.0, 3.0], [2.0, 4.0]])
        w, h = seed_random_vcol(v, 1, p_cols=2, p_rows=2, rng=RngStream(0))
        np.testing.assert_array_equal(w, [[2.0], [3.0]])
        np.testing.assert_array_equal(h, [[1.5, 3.5]])

    def test_equal_columns_force_that_column(self):
        col = np.array([1.0, 2.0, 5.0])
        v = np.column_stack([col] * 4)
        w, _ = seed_random_vcol(v, 2, rng=RngStream(3))
        for j in range(2):
            np.testing.assert_allclose(w[:, j], col)

    def test_full_sampling_is_rng_independent(self):
        rng = make_rng(7)
        v = random_nonneg(rng, 6, 5)
        w1, h1 = seed_random_vcol(v, 2, p_cols=5, p_rows=6, rng=RngStream(1))
        w2, h2 = seed_random_vcol(v, 2, p_cols=5, p_rows=6, rng=RngStream(2))
        np.testing.assert_array_equal(w1, w2)
        np.testing.assert_array_equal(h1, h2)

    def test_nonnegative_output(self):
        rng = make_rng(2)
        v = random_nonneg(rng, 9, 7)
        w, h = seed_random_vcol(v, 3, rng=RngStream(5))
        assert w.min() >= 0 and h.min() >= 0

    def test_p_out_of_range(self):
        v = np.ones((3, 3))
        with pytest.raises(ParamError):
            seed_random_vcol(v, 1, p_cols=4, rng=RngStream(0))
        with pytest.raises(ParamError):
            seed_random_vcol(v, 1, p_rows=0, rng=RngStream(0))


class TestSeedRandomC:
    def test_pool_of_one_forces_dense_column(self):
        c = np.array([10.0, 20.0, 30.0])
        z = np.array([0.1, 0.1, 0.1])
        v = np.column_stack([c, z, z, z, z])
        w, _ = seed_random_c(v, 2, p_cols=1, dense_fraction=0.2,
                             rng=RngStream(4))
        for j in range(2):
            np.testing.assert_array_equal(w[:, j], c)

    def test_full_fraction_with_all_columns_is_full_mean(self):
        rng = make_rng(1)
        v = random_nonneg(rng, 5, 4)
        w, _ = seed_random_c(v, 2, p_cols=4, dense_fraction=1.0,
                             rng=RngStream(9))
        for j in range(2):
            np.testing.assert_allclose(w[:, j], v.mean(axis=1))

    def test_norm_tie_prefers_lower_index(self):
        # columns 0 and 1 tie with the largest norm; pool of one must take 0
        v = np.array([[2.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]])
        w, _ = seed_random_c(v, 1, p_cols=1, dense_fraction=0.1,
                             rng=RngStream(0))
        np.testing.assert_array_equal(w, [[2.0]])

    def test_pool_smaller_than_p_cols(self):
        v = np.ones((4, 10))
        with pytest.raises(ParamError):
            seed_random_c(v, 1, p_cols=3, dense_fraction=0.2, rng=RngStream(0))


class TestSeedNndsvd:
    def test_rank_one_exact(self):
        v = np.array([[1.0, 2.0], [2.0, 4.0]])
        w, h = seed_nndsvd(v, 1)
        np.testing.assert_allclose(w, [[1.0], [2.0]], rtol=1e-10)
        np.testing.assert_allclose(h, [[1.0, 2.0]], rtol=1e-10)
        np.testing.assert_allclose(w @ h, v, atol=1e-10)

    def test_variant_a_fills_zeros_with_mean(self):
        rng = make_rng(6)
        v = random_nonneg(rng, 8, 6)
        w0, h0 = seed_nndsvd(v, 3, variant="none")
        assert (w0 == 0).any() or (h0 == 0).any()
        wa, ha = seed_nndsvd(v, 3, variant="a")
        assert not (wa == 0).any() and not (ha == 0).any()
        filled = wa[w0 == 0]
        np.testing.assert_allclose(filled, v.mean())

    def test_variant_ar_fills_with_small_draws(self):
        rng = make_rng(6)
        v = random_nonneg(rng, 8, 6)
        w0, _ = seed_nndsvd(v, 3, variant="none")
        war, har = seed_nndsvd(v, 3, variant="ar", rng=RngStream(2))
        assert not (war == 0).any() and not (har == 0).any()
        assert war[w0 == 0].max() <= v.mean() / 100.0

    def test_variant_none_deterministic(self):
        rng = make_rng(3)
        v = random_nonneg(rng, 7, 5)
        w1, h1 = seed_nndsvd(v, 3)
        w2, h2 = seed_nndsvd(v, 3)
        np.testing.assert_array_equal(w1, w2)
        np.testing.assert_array_equal(h1, h2)

    def test_initial_objective_no_worse_than_zero_factorization(self):
        for seed in range(5):
            rng = make_rng(seed)
            v = random_nonneg(rng, 20, 15)
            for k in (1, 3, 5):
                w, h = seed_nndsvd(v, k)
                assert frobenius_sq(v - w @ h) <= frobenius_sq(v) + 1e-9

    def test_exact_reconstruction_disjoint_blocks(self):
        # two rank-1 blocks with disjoint support: the leading singular
        # vectors are nonnegative, so the k=2 seeding reproduces V
        a = np.outer([3.0, 1.0], [2.0, 1.0])
        b = np.outer([1.0, 2.0], [1.0, 3.0])
        v = np.zeros((4, 4))
        v[:2, :2] = a
        v[2:, 2:] = b
        w, h = seed_nndsvd(v, 2)
        np.testing.assert_allclose(w @ h, v, atol=1e-10)

    def test_bad_variant(self):
        with pytest.raises(ParamError):
            seed_nndsvd(np.ones((3, 3)), 2, variant="b")


class TestSeedFixed:
    def test_identity(self):
        w0 = np.array([[1.0], [2.0]])
        h0 = np.array([[3.0, 4.0]])
        w, h = seed_fixed(w0, h0, 2, 2, 1)
        np.testing.assert_array_equal(w, w0)
        np.testing.assert_array_equal(h, h0)
        assert w is not w0  # copies

    def test_negative_entry_rejected(self):
        with pytest.raises(SeedError):
            seed_fixed(np.array([[-1.0], [2.0]]), np.ones((1, 2)), 2, 2, 1)

    def test_wrong_rank_rejected(self):
        with pytest.raises(SeedError):
            seed_fixed(np.ones((2, 2)), np.ones((2, 2)), 2, 2, 1)

    def test_missing_factors(self):
        with pytest.raises(SeedError):
            seed_fixed(None, None, 2, 2, 1)


class TestSeedSpec:
    def test_from_name_variants(self):
        assert SeedSpec.from_name("nndsvda").variant == "a"
        assert SeedSpec.from_name("nndsvdar").variant == "ar"
        assert SeedSpec.from_name("random").kind == "random"
        for name in SEED_METHOD_NAMES:
            spec = SeedSpec.from_name(name)
            assert spec.name == name

    def test_unknown_name(self):
        with pytest.raises(SeedError):
            SeedSpec.from_name("kmeans")


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["random", "random_c", "random_vcol", "nndsvd",
                        "nndsvda", "nndsvdar"]),
       st.integers(min_value=2, max_value=12),
       st.integers(min_value=2, max_value=12),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=100))
def test_every_method_returns_conforming_factors(name, m, n, k, seed):
    k = min(k, m, n)
    rng = make_rng(seed)
    v = random_nonneg(rng, m, n)
    w, h = seed_factors(v, k, SeedSpec.from_name(name), RngStream(seed))
    assert w.shape == (m, k) and h.shape == (k, n)
    assert np.all(np.isfinite(w)) and np.all(np.isfinite(h))
    assert w.min() >= 0 and h.min() >= 0


@pytest.mark.parametrize("kind", ["random_vcol", "random_c"])
def test_centroid_seeding_keeps_csr_sparse(kind):
    rng = make_rng(12)
    dense = random_nonneg(rng, 25, 15)
    dense[dense < 0.6] = 0.0
    dense[3, :] = 0.0
    dense[:, 2] = 0.0
    sparse = to_csr(dense)
    spec = SeedSpec(kind, dense_fraction=0.5)
    ws, hs = seed_factors(sparse, 3, spec, RngStream(4))
    assert sparse._dense_data is None
    wd, hd = seed_factors(dense, 3, spec, RngStream(4))
    np.testing.assert_allclose(ws, wd, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(hs, hd, rtol=1e-12, atol=1e-15)
