import dataclasses
import tracemalloc

import numpy as np
import pytest

import nmfkit.factor as factor_mod
from conftest import make_rng, random_nonneg, to_csr
from nmfkit.errors import (DomainError, MethodError, OutOfMemoryError,
                           ParamError, RankError)
from nmfkit.factor import (METHODS, AlternatingState, FactorConfig,
                           FactorModel, ParamSet, bd_gibbs_step, bmf_iterate,
                           bmf_objective, factorize,
                           icm_step, lsnmf_iterate, mu_eu_step, mu_kl_step,
                           nsnmf_iterate, nsnmf_smoothing, objective,
                           reconstruct, sample_rectified_normal, snmf_iterate,
                           snmf_objective, _initial_subproblem_tol)
from nmfkit.matcore import DataMatrix, RngStream, frobenius_sq, kl_div, matmul
from nmfkit.mio import synth
from nmfkit.multirun import RankSweepConfig, rank_sweep
from nmfkit.quality import fit_summary
from nmfkit.seeding import SeedSpec, seed_factors


def exact_instance(rng, m=6, n=5, k=2, low=0.1):
    w0 = rng.uniform(low, 1.0, size=(m, k))
    h0 = rng.uniform(low, 1.0, size=(k, n))
    return w0 @ h0, w0, h0


class TestMuEu:
    def test_identity_fixed_point(self):
        w, h = mu_eu_step(np.eye(2), np.eye(2), np.eye(2))
        np.testing.assert_allclose(w, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(h, np.eye(2), atol=1e-12)

    def test_objective_nonincreasing_200_steps(self):
        rng = make_rng(0)
        v = random_nonneg(rng, 8, 6)
        w = rng.uniform(0.1, 1, size=(8, 3))
        h = rng.uniform(0.1, 1, size=(3, 6))
        prev = frobenius_sq(v - w @ h)
        for _ in range(200):
            w, h = mu_eu_step(v, w, h)
            cur = frobenius_sq(v - w @ h)
            assert cur <= prev + 1e-12
            prev = cur

    def test_zero_locking(self):
        rng = make_rng(1)
        v = random_nonneg(rng, 4, 4)
        w = rng.uniform(0.1, 1, size=(4, 2))
        h = rng.uniform(0.1, 1, size=(2, 4))
        h[0, 2] = 0.0
        for _ in range(10):
            w, h = mu_eu_step(v, w, h)
            assert h[0, 2] == 0.0


class TestMuKl:
    def test_all_ones_fixed_point(self):
        v = np.ones((2, 2))
        w = np.array([[1.0], [1.0]])
        h = np.array([[1.0, 1.0]])
        w2, h2 = mu_kl_step(v, w, h)
        np.testing.assert_allclose(w2, w, atol=1e-12)
        np.testing.assert_allclose(h2, h, atol=1e-12)

    def test_kl_nonincreasing_200_steps(self):
        rng = make_rng(2)
        v = random_nonneg(rng, 7, 5, low=0.05)
        w = rng.uniform(0.1, 1, size=(7, 2))
        h = rng.uniform(0.1, 1, size=(2, 5))
        prev = kl_div(v, w, h)
        for _ in range(200):
            w, h = mu_kl_step(v, w, h)
            cur = kl_div(v, w, h)
            assert cur <= prev + 1e-10
            prev = cur

    def test_outputs_nonnegative(self):
        rng = make_rng(3)
        v = random_nonneg(rng, 6, 6)
        w, h = mu_kl_step(v, rng.uniform(size=(6, 2)), rng.uniform(size=(2, 6)))
        assert w.min() >= 0 and h.min() >= 0


class TestNsnmf:
    def test_smoothing_identity_at_zero(self):
        np.testing.assert_array_equal(nsnmf_smoothing(0.0, 3), np.eye(3))

    def test_smoothing_full_mix(self):
        np.testing.assert_allclose(nsnmf_smoothing(1.0, 2),
                                   [[0.5, 0.5], [0.5, 0.5]])

    @pytest.mark.parametrize("theta", [0.0, 0.25, 0.7, 1.0])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_smoothing_rows_sum_to_one(self, theta, k):
        np.testing.assert_allclose(nsnmf_smoothing(theta, k).sum(axis=1),
                                   np.ones(k), rtol=1e-15)

    def test_smoothing_is_built_and_checked_once(self):
        # factor._run asks for S(theta) three times per nsnmf iteration
        s = nsnmf_smoothing(0.3, 4)
        assert nsnmf_smoothing(0.3, 4) is s and not s.flags.writeable

    def test_smoothing_theta_out_of_range(self):
        with pytest.raises(ParamError):
            nsnmf_smoothing(1.5, 2)

    @pytest.mark.parametrize("theta, k, message", [
        # True ran as theta 1.0
        (True, 2, "^theta must be of type float, got True$"),
        # TypeErrors at the parent
        ("0.5", 2, "^theta must be of type float, got '0.5'$"),
        (0.5, 2.0, "^k must be of type int, got 2.0$")])
    def test_smoothing_arguments_are_typed(self, theta, k, message):
        with pytest.raises(ParamError, match=message):
            nsnmf_smoothing(theta, k)

    def test_theta_zero_matches_plain_kl(self):
        rng = make_rng(4)
        v = random_nonneg(rng, 6, 5, low=0.05)
        w = rng.uniform(0.1, 1, size=(6, 2))
        h = rng.uniform(0.1, 1, size=(2, 5))
        w_s, h_s = nsnmf_iterate(v, w, h, theta=0.0)
        w_k, h_k = mu_kl_step(v, w, h)
        np.testing.assert_allclose(w_s, w_k, atol=1e-14)
        np.testing.assert_allclose(h_s, h_k, atol=1e-14)

    def test_smoothed_kl_nonincreasing(self):
        rng = make_rng(5)
        v = random_nonneg(rng, 8, 6, low=0.05)
        w = rng.uniform(0.1, 1, size=(8, 3))
        h = rng.uniform(0.1, 1, size=(3, 6))
        s = nsnmf_smoothing(0.5, 3)
        prev = kl_div(v, w @ s, h)
        for _ in range(100):
            w, h = nsnmf_iterate(v, w, h, 0.5)
            cur = kl_div(v, w @ s, h)
            assert cur <= prev + 1e-10
            prev = cur
            assert w.min() >= 0 and h.min() >= 0


class TestLsnmf:
    def test_global_optimum_is_fixed(self):
        rng = make_rng(6)
        v, w0, h0 = exact_instance(rng, 7, 6, 2)
        params = ParamSet()
        state = _initial_subproblem_tol(v, w0, h0, params.pg_tol)
        w, h = lsnmf_iterate(v, w0.copy(), h0.copy(), params, state)
        np.testing.assert_allclose(w, w0, atol=1e-10)
        np.testing.assert_allclose(h, h0, atol=1e-10)

    def test_objective_nonincreasing(self):
        rng = make_rng(7)
        v = random_nonneg(rng, 9, 7)
        w = rng.uniform(0.1, 1, size=(9, 3))
        h = rng.uniform(0.1, 1, size=(3, 7))
        params = ParamSet()
        state = _initial_subproblem_tol(v, w, h, params.pg_tol)
        prev = frobenius_sq(v - w @ h)
        for _ in range(50):
            w, h = lsnmf_iterate(v, w, h, params, state)
            cur = frobenius_sq(v - w @ h)
            assert cur <= prev + 1e-10
            prev = cur


class TestSnmf:
    def test_zero_penalties_coincide_with_lsnmf(self):
        rng = make_rng(8)
        v = random_nonneg(rng, 8, 6)
        w = rng.uniform(0.1, 1, size=(8, 2))
        h = rng.uniform(0.1, 1, size=(2, 6))
        params = ParamSet()
        s1 = _initial_subproblem_tol(v, w, h, params.pg_tol)
        s2 = AlternatingState(tol_w=s1.tol_w, tol_h=s1.tol_h)
        w_l, h_l = lsnmf_iterate(v, w.copy(), h.copy(), params, s1)
        w_s, h_s = snmf_iterate(v, w.copy(), h.copy(), "r", 0.0, 0.0,
                                params, s2)
        np.testing.assert_array_equal(w_l, w_s)
        np.testing.assert_array_equal(h_l, h_s)

    @pytest.mark.parametrize("side", ["l", "r"])
    def test_penalized_objective_nonincreasing(self, side):
        rng = make_rng(9)
        v = random_nonneg(rng, 9, 7)
        w = rng.uniform(0.1, 1, size=(9, 3))
        h = rng.uniform(0.1, 1, size=(3, 7))
        eta, beta = 0.25, 0.1
        params = ParamSet()
        state = _initial_subproblem_tol(v, w, h, params.pg_tol)
        prev = snmf_objective(v, w, h, side, eta, beta)
        for _ in range(40):
            w, h = snmf_iterate(v, w, h, side, eta, beta, params, state)
            cur = snmf_objective(v, w, h, side, eta, beta)
            assert cur <= prev + 1e-10
            prev = cur

    def test_beta_increases_h_sparseness(self):
        from nmfkit.quality import sparseness
        wins = 0
        # the penalty zeroes rows of H and the columns of W they pair with;
        # those columns score 0, with one warning per model
        with pytest.warns(UserWarning) as caught:
            for seed in range(10):
                rng = make_rng(100 + seed)
                v = random_nonneg(rng, 12, 10)
                results = {}
                for beta in (0.0, 1.0):
                    cfg = FactorConfig(method="snmf-r", rank=3,
                                       seed=SeedSpec("random"), max_iter=40,
                                       min_residual_delta=0.0, conn_change=0,
                                       master_seed=seed,
                                       params=ParamSet(beta=beta))
                    model, _ = factorize(v, cfg)
                    results[beta] = sparseness(model)[1]
                wins += results[1.0] > results[0.0]
        assert wins >= 8
        assert {str(w.message) for w in caught} \
            == {"sparseness: 2 all-zero vectors of W scored as 0"}

    def test_bad_side(self):
        with pytest.raises(ParamError):
            snmf_iterate(np.ones((2, 2)), np.ones((2, 1)), np.ones((1, 2)),
                         "x", 0.0, 0.0, ParamSet(),
                         AlternatingState(tol_w=1e-3, tol_h=1e-3))


class TestBmf:
    def test_zero_lambda_equals_euclidean_update(self):
        rng = make_rng(10)
        v = random_nonneg(rng, 5, 4)
        w = rng.uniform(0.1, 1, size=(5, 2))
        h = rng.uniform(0.1, 1, size=(2, 4))
        w_b, h_b = bmf_iterate(v, w, h, 0.0)
        w_e, h_e = mu_eu_step(v, w, h)
        np.testing.assert_array_equal(w_b, w_e)
        np.testing.assert_array_equal(h_b, h_e)

    def test_zero_entries_stay_zero(self):
        rng = make_rng(11)
        v = random_nonneg(rng, 4, 4)
        w = rng.uniform(0.1, 1, size=(4, 2))
        h = rng.uniform(0.1, 1, size=(2, 4))
        w[1, 0] = 0.0
        for _ in range(20):
            w, h = bmf_iterate(v, w, h, 1.1)
            assert w[1, 0] == 0.0

    def test_penalized_objective_nonincreasing_fixed_lambda(self):
        rng = make_rng(12)
        v = random_nonneg(rng, 8, 6)
        w = rng.uniform(0.1, 1, size=(8, 2))
        h = rng.uniform(0.1, 1, size=(2, 6))
        lam = 1.1
        prev = bmf_objective(v, w, h, lam)
        for _ in range(100):
            w, h = bmf_iterate(v, w, h, lam)
            cur = bmf_objective(v, w, h, lam)
            assert cur <= prev + 1e-10
            prev = cur


class TestRectifiedNormal:
    def test_draws_nonnegative(self):
        rng = RngStream(0)
        draws = [sample_rectified_normal(mu, 0.5, rng)
                 for mu in np.linspace(-5, 5, 200)]
        assert min(draws) >= 0.0

    def test_fixed_seed_identical_sequence(self):
        a = [sample_rectified_normal(0.3, 1.0, RngStream(9)) for _ in range(1)]
        b = [sample_rectified_normal(0.3, 1.0, RngStream(9)) for _ in range(1)]
        assert a == b
        r1, r2 = RngStream(5), RngStream(5)
        s1 = [sample_rectified_normal(-1.0, 2.0, r1) for _ in range(50)]
        s2 = [sample_rectified_normal(-1.0, 2.0, r2) for _ in range(50)]
        assert s1 == s2

    def test_bad_variance(self):
        with pytest.raises(ParamError):
            sample_rectified_normal(0.0, 0.0, RngStream(0))

    def test_far_negative_mean_concentrates_near_zero(self):
        rng = RngStream(1)
        draws = [sample_rectified_normal(-50.0, 1.0, rng) for _ in range(100)]
        assert max(draws) < 1.0 and min(draws) >= 0.0


class TestBdGibbs:
    def test_chain_stays_near_truth(self):
        rng = make_rng(13)
        v, w0, h0 = exact_instance(rng, 8, 6, 2, low=0.5)
        v = np.maximum(v + rng.normal(scale=0.01, size=v.shape), 0.0)
        w, h = w0.copy(), h0.copy()
        sigma2 = frobenius_sq(v - w @ h) / v.size
        initial = frobenius_sq(v - w @ h)
        stream = RngStream(21)
        priors = ParamSet()
        sigma_samples = []
        for _ in range(200):
            w, h, sigma2 = bd_gibbs_step(v, w, h, sigma2, priors, stream)
            sigma_samples.append(sigma2)
            assert w.min() >= 0 and h.min() >= 0
            assert frobenius_sq(v - w @ h) <= 3.0 * initial
        median = float(np.median(sigma_samples[100:]))
        assert 1e-5 <= median <= 1e-3

    def test_deterministic_given_stream_seed(self):
        rng = make_rng(14)
        v = random_nonneg(rng, 5, 4)
        w = rng.uniform(0.2, 1, size=(5, 2))
        h = rng.uniform(0.2, 1, size=(2, 4))
        out1 = bd_gibbs_step(v, w.copy(), h.copy(), 0.1, ParamSet(), RngStream(3))
        out2 = bd_gibbs_step(v, w.copy(), h.copy(), 0.1, ParamSet(), RngStream(3))
        for a, b in zip(out1, out2):
            np.testing.assert_array_equal(a, b)


class TestIcm:
    def test_scalar_conditional_mean(self):
        v = np.array([[2.0]])
        w = np.array([[5.0]])  # any start: conditional mean ignores it here
        h = np.array([[1.0]])
        w2, h2, _ = icm_step(v, w, h, 1.0, ParamSet())
        assert w2[0, 0] == pytest.approx(2.0)

    def test_negative_mean_clips_to_zero(self):
        v = np.array([[0.0]])
        w = np.array([[1.0]])
        h = np.array([[1.0]])
        priors = ParamSet(alpha_rate=100.0)
        w2, _, _ = icm_step(v, w, h, 1.0, priors)
        assert w2[0, 0] == 0.0

    def test_exact_fit_sigma_floor(self):
        rng = make_rng(15)
        v, w0, h0 = exact_instance(rng, 4, 3, 2)
        m, n = v.shape
        priors = ParamSet(sigma_scale=0.0, sigma_shape=0.0)
        _, _, s2 = icm_step(v, w0, h0, 1.0, priors)
        # residual is not exactly zero after one sweep; check the formula
        # directly at an exact fit instead
        w2, h2, s2b = icm_step(w0 @ h0, w0, h0, 1.0, ParamSet(sigma_scale=0.0))
        expected = max(frobenius_sq(w0 @ h0 - w2 @ h2) / 2.0
                       / (m * n / 2.0 + 1.0), 1e-12)
        assert s2b == pytest.approx(expected)


class TestObjective:
    def test_exact_model_zero(self):
        rng = make_rng(16)
        v, w0, h0 = exact_instance(rng)
        model = FactorModel(w0, h0, "nmf-eu", None, 1, 0.0)
        assert objective(v, model, "euclidean") == pytest.approx(0.0, abs=1e-22)
        assert objective(v, model, "kl") == pytest.approx(0.0, abs=1e-10)

    def test_scalar_euclidean(self):
        model = FactorModel(np.array([[1.0]]), np.array([[1.0]]),
                            "nmf-eu", None, 1, 0.0)
        assert objective(np.array([[2.0]]), model, "euclidean") == 1.0

    def test_nsnmf_reconstruction_uses_smoothing(self):
        rng = make_rng(17)
        w = rng.uniform(size=(5, 3))
        h = rng.uniform(size=(3, 4))
        model = FactorModel(w, h, "nsnmf", 0.4, 1, 0.0)
        s = nsnmf_smoothing(0.4, 3)
        expected = matmul(matmul(w, s), h)
        np.testing.assert_allclose(reconstruct(model), expected, rtol=1e-12)

    def test_unknown_kind(self):
        model = FactorModel(np.ones((1, 1)), np.ones((1, 1)),
                            "nmf-eu", None, 1, 0.0)
        with pytest.raises(ParamError):
            objective(np.ones((1, 1)), model, "cosine")


def connectivity_config(w0, h0, conn_change, **settings):
    # min-delta off, so only the connectivity rule or max_iter stops
    return FactorConfig(method="nmf-eu", rank=w0.shape[1],
                        seed=SeedSpec(kind="fixed", w0=w0, h0=h0),
                        min_residual_delta=0.0, conn_change=conn_change,
                        **settings)


class TestConnectivityStop:
    def test_count_reaches_conn_change(self):
        # at an exact fixed point no column of H changes its argmax row, so
        # the count is the iteration number and the run stops at 7
        v, w0, h0 = exact_instance(make_rng(23))
        model, _ = factorize(v, connectivity_config(w0, h0, 7))
        assert model.n_iter == 7

    def test_change_resets_count(self):
        rng = make_rng(37)
        v = random_nonneg(rng, 10, 8)
        w0 = rng.uniform(0.1, 1, (10, 3))
        h0 = rng.uniform(0.1, 1, (3, 8))
        _, trace = factorize(v, connectivity_config(
            w0, h0, 0, max_iter=40, track_factors=1))
        hs = [h0] + [h for _, _, h in trace.factor_snapshots]
        moved = [it for it in range(1, 41) if not np.array_equal(
            np.argmax(hs[it], axis=0), np.argmax(hs[it - 1], axis=0))]
        assert moved == [4, 5]
        # the count reaches 3, is 0 after the moves at 4 and 5, then 5 at 10
        model, _ = factorize(v, connectivity_config(w0, h0, 5, max_iter=40))
        assert model.n_iter == 10

    def test_tie_assigns_lowest_row(self):
        # H's first column ties at the seed, then row 0 leads: the lowest
        # row was the seed's assignment, so nothing moved at iteration 1
        v = np.array([[2.0, 0.0], [1.0, 1.0]])
        h0 = np.array([[1.0, 0.0], [1.0, 1.0]])
        model, trace = factorize(v, connectivity_config(
            np.eye(2), h0, 3, track_factors=1))
        np.testing.assert_array_equal(
            np.argmax(trace.factor_snapshots[0][2], axis=0), [0, 1])
        assert model.n_iter == 3


class TestFactorize:
    def test_exact_fixed_point_stops_fast(self):
        rng = make_rng(18)
        v, w0, h0 = exact_instance(rng)
        cfg = FactorConfig(method="nmf-eu", rank=2,
                           seed=SeedSpec(kind="fixed", w0=w0, h0=h0))
        model, _ = factorize(v, cfg)
        assert model.final_objective <= 1e-20
        assert model.n_iter <= 3

    def test_bmf_default_delta_survives_lambda_step(self):
        # lambda grows 10x at iteration lambda_period + 1 = 101; the
        # penalized objective then rises, which is not convergence
        cfg = FactorConfig(method="bmf", rank=2, seed=SeedSpec("random"),
                           max_iter=1000, conn_change=0, master_seed=3)
        model, _ = factorize(np.eye(2), cfg)
        assert model.n_iter > 101

    def test_lsnmf_default_delta_survives_idle_alternation(self):
        # at iteration 7 both subproblems meet their tolerance at the start
        # point, so W and H come back unchanged; that is not convergence
        v, _, _ = synth(200, 50, 5, noise_sigma=0.01, seed=5)
        cfg = FactorConfig(method="lsnmf", rank=40,
                           seed=SeedSpec("random_vcol"), max_iter=65,
                           master_seed=5)
        model, _ = factorize(v, cfg)
        assert model.n_iter == 65
        assert model.final_objective < 0.3

    def test_unknown_method(self):
        with pytest.raises(MethodError):
            factorize(np.ones((3, 3)), FactorConfig(method="unknown", rank=1))

    def test_rank_out_of_range(self):
        with pytest.raises(RankError):
            factorize(np.ones((3, 4)), FactorConfig(method="nmf-eu", rank=4))

    @pytest.mark.parametrize("rank", [2.5, "2", True])
    def test_rank_must_be_an_integer(self, rank):
        # a TypeError at the parent, from the seeding or the range test;
        # True ran as rank 1
        with pytest.raises(RankError, match="^rank .* out of range"):
            factorize(np.ones((3, 3)), FactorConfig(method="nmf-eu",
                                                    rank=rank))

    @pytest.mark.parametrize("name, value", [
        ("theta", 1.5), ("eta", -1.0), ("lambda_growth", float("inf")),
        ("lambda0", 0.0), ("sigma_scale", -1.0), ("burn_in", -1),
        ("pg_tol", float("nan")), ("inner_max_iter", 0),
        ("armijo_beta", 1.0), ("armijo_sigma", 0.0)])
    def test_out_of_range_param(self, name, value):
        # every field is checked, whichever method runs
        cfg = FactorConfig(method="nmf-eu", rank=1,
                           params=ParamSet(**{name: value}))
        with pytest.raises(ParamError, match="parameter %s " % name):
            factorize(np.ones((3, 3)), cfg)

    @pytest.mark.parametrize("name, value", [
        ("conn_change", -1),  # silently turned the connectivity rule off
        ("track_factors", -1), ("min_residual_delta", float("nan")),
        ("max_iter", 0)])
    def test_out_of_range_setting(self, name, value):
        # FactorConfig's settings share ParamSet's range table
        cfg = FactorConfig(method="nmf-eu", rank=1, **{name: value})
        with pytest.raises(ParamError, match="^%s must be finite " % name):
            factorize(np.ones((3, 3)), cfg)

    @pytest.mark.parametrize("settings, message", [
        # a TypeError at the parent, from the loop or the range test
        ({"max_iter": None}, "^max_iter must be of type int, got None$"),
        ({"params": ParamSet(theta="0.3")},
         "^method parameter theta must be of type float, got '0.3'$"),
        # ran with the fractional window
        ({"conn_change": 2.5}, "^conn_change must be of type int, got 2.5$"),
        ({"params": ParamSet(burn_in=2.0)}, "^method parameter burn_in "
         r"must be of type int \| None, got 2.0$"),
        ({"params": ParamSet(pg_tol=None)},
         "^method parameter pg_tol must be of type float, got None$"),
        # a TypeError at the parent, from the seeding
        ({"seed": SeedSpec(p_cols=2.5)},
         r"^seed p_cols must be of type int \| None, got 2.5$"),
        ({"seed": SeedSpec(p_cols="2")},
         r"^seed p_cols must be of type int \| None, got '2'$"),
        # an OverflowError at the parent
        ({"seed": SeedSpec("random", scale=float("nan"))},
         r"^seed scale must be finite and lie in \(0, inf\), got nan$"),
        ({"seed": SeedSpec("random", scale=float("inf"))},
         r"^seed scale must be finite and lie in \(0, inf\), got inf$"),
        # records of the wrong type: an AttributeError at the parent
        ({"seed": "random"}, "^seed must be of type SeedSpec, got 'random'$"),
        ({"params": {"theta": 0.3}},
         r"^params must be of type ParamSet, got \{'theta': 0.3\}$"),
        # a bool ran as 1
        ({"max_iter": True}, "^max_iter must be of type int, got True$"),
        ({"track_factors": True},
         "^track_factors must be of type int, got True$"),
        ({"params": ParamSet(theta=True)},
         "^method parameter theta must be of type float, got True$")])
    def test_setting_of_the_wrong_type(self, settings, message):
        cfg = FactorConfig(method="nmf-eu", rank=1, **settings)
        with pytest.raises(ParamError, match=message):
            factorize(np.ones((3, 3)), cfg)

    @pytest.mark.parametrize("config", ["x", None, ParamSet()])
    def test_config_of_the_wrong_type(self, config):
        # an AttributeError at the parent
        with pytest.raises(ParamError, match="^config must be of type "
                           "FactorConfig, got "):
            factorize(np.ones((3, 3)), config)

    @pytest.mark.parametrize("v", [
        # numpy's ValueError at the parent
        "abc", [[1.0, 2.0], [3.0]],
        # a string array was read as numbers
        [["1", "2"], ["3", "4"]],
        # the imaginary part was dropped with a ComplexWarning
        np.full((3, 3), 1 + 2j)], ids=["string", "ragged", "strings",
                                       "complex"])
    def test_v_of_real_numbers(self, v):
        with pytest.raises(ParamError, match="^matrix entries must be real "
                           r"numbers \(bool, integer or float\)$"):
            factorize(v, FactorConfig(method="nmf-eu", rank=1))

    @pytest.mark.parametrize("record", [FactorConfig, ParamSet, SeedSpec,
                                        RankSweepConfig])
    def test_every_numeric_setting_has_a_range(self, record):
        # rank's range depends on V (RankError)
        unchecked = {"rank"}
        for f in dataclasses.fields(record):
            if f.type.split(" | ")[0] in ("int", "float"):
                assert ("range" in f.metadata) != (f.name in unchecked), f.name

    @pytest.mark.parametrize("seed", [1.5, float("nan"), "3", True])
    def test_master_seed_must_be_an_integer(self, seed):
        # 1.5 and True ran as seed 1; NaN raised ValueError and "3"
        # TypeError
        cfg = FactorConfig(method="nmf-eu", rank=1, master_seed=seed)
        with pytest.raises(ParamError, match="seed"):
            factorize(np.ones((3, 3)), cfg)

    def test_integral_and_optional_settings_accepted(self):
        # numpy integers are integral; eta and burn_in may be None
        cfg = FactorConfig(method="nmf-eu", rank=np.int64(2),
                           max_iter=np.int64(3), master_seed=np.uint8(4),
                           params=ParamSet(eta=None, burn_in=None, theta=1))
        assert factorize(np.ones((3, 3)), cfg)[0].n_iter <= 3

    def test_memory_error_is_typed(self, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(factor_mod, "mu_kl_step", exhausted)
        cfg = FactorConfig(method="nmf-kl", rank=2, seed=SeedSpec("random"))
        with pytest.raises(OutOfMemoryError,
                           match="nmf-kl at rank 2 on a 6x5 matrix") as info:
            factorize(random_nonneg(make_rng(29), 6, 5), cfg)
        assert info.value.kind == "memory"

    def test_bmf_domain(self):
        with pytest.raises(DomainError):
            factorize(np.full((3, 3), 2.0), FactorConfig(method="bmf", rank=1))

    def test_negative_input_rejected(self):
        with pytest.raises(DomainError):
            factorize(np.array([[1.0, -0.5]]).T @ np.ones((1, 2)),
                      FactorConfig(method="nmf-eu", rank=1))

    @pytest.mark.parametrize("method", ["nmf-eu", "nmf-kl", "lsnmf",
                                        "snmf-r", "snmf-l", "nsnmf", "bmf",
                                        "bd", "icm"])
    def test_bitwise_deterministic(self, method):
        rng = make_rng(19)
        v = random_nonneg(rng, 8, 6)
        if method == "bmf":
            v = v / v.max()
        cfg = FactorConfig(method=method, rank=2, seed=SeedSpec("random"),
                           max_iter=15, master_seed=77)
        m1, t1 = factorize(v, cfg)
        m2, t2 = factorize(v, cfg)
        np.testing.assert_array_equal(m1.W, m2.W)
        np.testing.assert_array_equal(m1.H, m2.H)
        assert m1.final_objective == m2.final_objective

    @pytest.mark.parametrize("layout", ["dense", "csr", "csr-stored-zero"])
    @pytest.mark.parametrize("method", ["nmf-kl", "nsnmf"])
    def test_kl_product_reuse_is_invisible(self, method, layout):
        # the driver hands the objective's W H to the next H update; a loop
        # that forms every product afresh must give the same bits
        rng = make_rng(23)
        dense = random_nonneg(rng, 9, 7)
        dense[2, 3] = 0.0
        v = {"dense": dense, "csr": to_csr(dense),
             "csr-stored-zero": DataMatrix.from_coo(
                 *np.indices(dense.shape).reshape(2, -1), dense.ravel(),
                 dense.shape)}[layout]
        cfg = FactorConfig(method=method, rank=3, seed=SeedSpec("random"),
                           max_iter=300, min_residual_delta=1e-4,
                           conn_change=0, track_error=True, master_seed=5)
        model, trace = factorize(v, cfg)

        w, h = seed_factors(v, 3, cfg.seed, RngStream(5))
        theta = cfg.params.theta if method == "nsnmf" else None
        prev = objective(v, FactorModel(w, h, method, theta, 0, 0.0), "kl")
        objs = []
        for it in range(1, cfg.max_iter + 1):
            if method == "nmf-kl":
                w, h = mu_kl_step(v, w, h)
            else:
                w, h = nsnmf_iterate(v, w, h, theta)
            objs.append(objective(v, FactorModel(w, h, method, theta, it,
                                                 0.0), "kl"))
            if (prev - objs[-1]) / abs(prev) < cfg.min_residual_delta:
                break
            prev = objs[-1]
        assert 1 < model.n_iter == it < cfg.max_iter
        assert model.W.tobytes() == w.tobytes()
        assert model.H.tobytes() == h.tobytes()
        assert trace.objective_per_iter == objs

    def test_zero_locking_through_driver(self):
        rng = make_rng(20)
        v, w0, h0 = exact_instance(rng, 5, 4, 2)
        w0 = w0.copy()
        w0[2, 1] = 0.0
        cfg = FactorConfig(method="nmf-eu", rank=2,
                           seed=SeedSpec(kind="fixed", w0=w0, h0=h0),
                           max_iter=25, min_residual_delta=0.0, conn_change=0)
        model, _ = factorize(v, cfg)
        assert model.W[2, 1] == 0.0

    def test_connectivity_window_at_rank_one(self):
        rng = make_rng(21)
        v = random_nonneg(rng, 6, 5)
        cfg = FactorConfig(method="nmf-eu", rank=1, seed=SeedSpec("random"),
                           max_iter=200, min_residual_delta=0.0,
                           conn_change=5)
        model, _ = factorize(v, cfg)
        assert model.n_iter == 5  # rank 1: assignments can never change

    def test_trace_lengths(self):
        rng = make_rng(22)
        v = random_nonneg(rng, 6, 5)
        cfg = FactorConfig(method="nmf-kl", rank=2, seed=SeedSpec("random"),
                           max_iter=12, min_residual_delta=0.0, conn_change=0,
                           track_error=True, track_factors=3)
        model, trace = factorize(v, cfg)
        assert model.n_iter == 12
        assert len(trace.objective_per_iter) == 12
        assert [it for it, _, _ in trace.factor_snapshots] == [3, 6, 9, 12]

    def test_min_delta_stop(self):
        rng = make_rng(23)
        v = random_nonneg(rng, 6, 5)
        cfg = FactorConfig(method="nmf-eu", rank=2, seed=SeedSpec("random"),
                           max_iter=500, min_residual_delta=1e-3,
                           conn_change=0)
        model, _ = factorize(v, cfg)
        assert model.n_iter < 500

    def test_sparse_dense_equivalence_small(self):
        rng = make_rng(24)
        dense = random_nonneg(rng, 8, 6)
        dense[dense < 0.6] = 0.0
        dense[0, 0] = 0.7
        sparse = to_csr(dense)
        for method in ("nmf-eu", "nmf-kl"):
            cfg = FactorConfig(method=method, rank=2, seed=SeedSpec("random"),
                               max_iter=20, min_residual_delta=0.0,
                               conn_change=0, master_seed=5)
            md, _ = factorize(dense, cfg)
            ms, _ = factorize(sparse, cfg)
            np.testing.assert_allclose(ms.W, md.W, atol=1e-9)
            np.testing.assert_allclose(ms.H, md.H, atol=1e-9)

    @pytest.mark.parametrize("method", ["nmf-kl", "nsnmf"])
    @pytest.mark.parametrize("seeding", ["random", "random_vcol", "random_c"])
    def test_kl_methods_keep_csr_sparse(self, method, seeding):
        rng = make_rng(28)
        dense = random_nonneg(rng, 30, 20)
        dense[dense < 0.7] = 0.0
        dense[4, :] = 0.0
        dense[:, 6] = 0.0
        sparse = to_csr(dense)
        cfg = FactorConfig(method=method, rank=3, seed=SeedSpec(seeding),
                           max_iter=15, min_residual_delta=0.0,
                           conn_change=0, track_error=True, master_seed=6)
        ms, trace = factorize(sparse, cfg)
        objective(sparse, ms, "kl")
        assert sparse._dense_data is None
        md, dense_trace = factorize(dense, cfg)
        np.testing.assert_allclose(ms.W, md.W, atol=1e-9)
        np.testing.assert_allclose(ms.H, md.H, atol=1e-9)
        # the pattern objective drops the clamp off V's pattern only
        np.testing.assert_allclose(trace.objective_per_iter,
                                   dense_trace.objective_per_iter,
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("seeding", ["random", "fixed", "random_c",
                                         "random_vcol"])
    @pytest.mark.parametrize("method", METHODS)
    def test_csr_v_stays_sparse_through_fit_summary(self, method, seeding):
        rng = make_rng(30)
        dense = random_nonneg(rng, 30, 20)
        dense[dense < 0.7] = 0.0
        sparse = to_csr(dense)
        seed = (SeedSpec("fixed", w0=rng.uniform(size=(30, 3)),
                         h0=rng.uniform(size=(3, 20)))
                if seeding == "fixed" else SeedSpec(seeding))
        cfg = FactorConfig(method=method, rank=3, seed=seed, max_iter=6,
                           track_error=True, master_seed=8)
        model, _ = factorize(sparse, cfg)
        fit_summary(sparse, model)
        assert sparse._dense_data is None

    @pytest.mark.parametrize("method", ["nmf-eu", "nmf-kl"])
    def test_csr_v_stays_sparse_through_rank_sweep(self, method):
        dense = random_nonneg(make_rng(31), 30, 20)
        dense[dense < 0.7] = 0.0
        sparse = to_csr(dense)
        sweep = RankSweepConfig(ranks=[2, 3], runs_per_rank=3,
                                base=FactorConfig(method, 2, max_iter=10))
        rank_sweep(sparse, sweep)
        assert sparse._dense_data is None

    @pytest.mark.parametrize("method", ["nmf-kl", "nsnmf"])
    def test_kl_run_memory_on_zero_free_dense_v(self, method):
        # the KL terms kept on a V without zeros are V's own buffer, and M
        # is read through them without a gather
        m, n = 400, 300
        v = DataMatrix.dense(make_rng(29).uniform(0.5, 1.5, size=(m, n)))
        cfg = FactorConfig(method=method, rank=5, seed=SeedSpec("random"),
                           max_iter=5, min_residual_delta=0.0,
                           conn_change=0, master_seed=3)
        tracemalloc.start()
        try:
            model, _ = factorize(v, cfg)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.n_iter == 5
        assert peak <= 5.0 * 8 * m * n
        assert kept <= 0.5 * 8 * m * n

    @pytest.mark.parametrize("method", ["nmf-eu", "nmf-kl", "lsnmf",
                                        "snmf-r", "nsnmf", "bmf", "icm"])
    def test_every_iterate_nonnegative_and_finite(self, method):
        rng = make_rng(26)
        v = random_nonneg(rng, 9, 7)
        if method == "bmf":
            v = v / v.max()
        cfg = FactorConfig(method=method, rank=3, seed=SeedSpec("random"),
                           max_iter=15, min_residual_delta=0.0, conn_change=0,
                           track_factors=1, master_seed=2)
        _, trace = factorize(v, cfg)
        assert len(trace.factor_snapshots) == 15
        for _, w, h in trace.factor_snapshots:
            assert np.all(np.isfinite(w)) and np.all(np.isfinite(h))
            assert w.min() >= 0 and h.min() >= 0

    @pytest.mark.parametrize("method", ["nmf-eu", "nmf-kl", "lsnmf",
                                        "snmf-l", "snmf-r", "nsnmf", "bmf",
                                        "bd", "icm"])
    def test_handles_zero_rows_and_columns(self, method):
        rng = make_rng(27)
        v = random_nonneg(rng, 8, 7)
        v[3, :] = 0.0
        v[:, 5] = 0.0
        if method == "bmf":
            v = v / v.max()
        cfg = FactorConfig(method=method, rank=2, seed=SeedSpec("random"),
                           max_iter=10, master_seed=4)
        model, _ = factorize(v, cfg)
        assert np.all(np.isfinite(model.W)) and np.all(np.isfinite(model.H))
        assert model.W.min() >= 0 and model.H.min() >= 0

    def test_bd_returns_posterior_mean(self):
        rng = make_rng(25)
        v, w0, h0 = exact_instance(rng, 6, 5, 2, low=0.4)
        cfg = FactorConfig(method="bd", rank=2,
                           seed=SeedSpec(kind="fixed", w0=w0, h0=h0),
                           max_iter=40, master_seed=11)
        model, trace = factorize(v, cfg)
        assert model.n_iter == 40  # the sampler never stops early
        assert model.W.min() >= 0 and model.H.min() >= 0
        assert np.isfinite(model.final_objective)
