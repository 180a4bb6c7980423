import numpy as np
import pytest

from conftest import make_rng, random_nonneg
import nmfkit.multirun as multirun_mod
import nmfkit.quality as quality_mod
from nmfkit.errors import OutOfMemoryError, ParamError, RankError
from nmfkit.factor import FactorConfig
from nmfkit.mio import synth
from nmfkit.multirun import RankSweepConfig, rank_sweep, run_many
from nmfkit.quality import connectivity
from nmfkit.seeding import SeedSpec


def base_config(method="nmf-kl", rank=2, max_iter=30, master_seed=0):
    return FactorConfig(method=method, rank=rank, seed=SeedSpec("random_vcol"),
                        max_iter=max_iter, conn_change=10,
                        master_seed=master_seed)


class TestRunMany:
    def test_single_run_consensus_is_connectivity(self):
        rng = make_rng(0)
        v = random_nonneg(rng, 8, 6)
        models, cons = run_many(v, base_config(), runs=1, master_seed=3)
        assert len(models) == 1
        np.testing.assert_array_equal(cons, connectivity(models[0].H))

    def test_bitwise_deterministic(self):
        rng = make_rng(1)
        v = random_nonneg(rng, 8, 6)
        _, c1 = run_many(v, base_config(), runs=5, master_seed=9)
        _, c2 = run_many(v, base_config(), runs=5, master_seed=9)
        np.testing.assert_array_equal(c1, c2)

    def test_serial_matches_parallel(self):
        # runs are serial only: a request for a pool is an error
        rng = make_rng(2)
        v = random_nonneg(rng, 10, 7)
        with pytest.raises(ParamError):
            run_many(v, base_config(), runs=6, master_seed=4, threads=4)

    def test_consensus_properties(self):
        rng = make_rng(3)
        v = random_nonneg(rng, 9, 6)
        _, cons = run_many(v, base_config(rank=3), runs=7, master_seed=1)
        np.testing.assert_array_equal(cons, cons.T)
        np.testing.assert_allclose(np.diag(cons), np.ones(6))
        assert cons.min() >= 0.0 and cons.max() <= 1.0

    def test_failing_run_aborts(self):
        v = np.ones((3, 3))
        with pytest.raises(RankError):
            run_many(v, base_config(rank=5), runs=3, master_seed=0)

    def test_zero_runs_rejected(self):
        with pytest.raises(ParamError):
            run_many(np.ones((3, 3)), base_config(), runs=0, master_seed=0)

    @pytest.mark.parametrize("runs", [2.5, float("nan"), "2", True])
    def test_run_count_must_be_an_integer(self, runs):
        # a TypeError at the parent; True ran once
        with pytest.raises(ParamError, match="run count"):
            run_many(np.ones((3, 3)), base_config(rank=1), runs=runs,
                     master_seed=0)

    def test_negative_master_seed_is_param_error(self):
        # was numpy's "expected non-negative integer" ValueError
        with pytest.raises(ParamError, match="master seed"):
            run_many(np.ones((3, 3)), base_config(), runs=2, master_seed=-1)


    def test_fractional_master_seed_is_param_error(self):
        # ran as master seed 1
        with pytest.raises(ParamError, match="master seed"):
            run_many(np.ones((3, 3)), base_config(), runs=2, master_seed=1.5)


class TestRankSweep:
    def test_single_rank_record(self):
        rng = make_rng(4)
        v = random_nonneg(rng, 10, 8)
        # a numpy integer is a rank, and a repeat of one
        sweep = RankSweepConfig(ranks=[np.int64(3), 3], runs_per_rank=5,
                                base=base_config(master_seed=7))
        report = rank_sweep(v, sweep)
        assert len(report.records) == 1
        assert type(report.records[0].rank) is int
        assert report.records[0].rank == 3
        assert report.recommended_rank == 3

    def test_measure_ranges_and_record_count(self):
        v, _, _ = synth(14, 10, 2, noise_sigma=0.02, seed=5)
        sweep = RankSweepConfig(ranks=[2, 3, 4], runs_per_rank=4,
                                base=base_config(master_seed=1))
        report = rank_sweep(v, sweep)
        assert [r.rank for r in report.records] == [2, 3, 4]
        for rec in report.records:
            assert -1.0 <= rec.cophenetic <= 1.0
            assert 0.0 <= rec.dispersion <= 1.0
            assert rec.mean_rss >= 0.0
            assert rec.mean_n_iter >= 1.0
        assert report.recommended_rank in (2, 3, 4)

    def test_tie_breaks_to_smallest_rank(self):
        # two perfectly separable blocks: ranks 1 and 2 both give a crisp
        # consensus (cophenetic 1.0), so the tie must resolve to rank 1
        v, _, _ = synth(12, 9, 2, seed=3)
        sweep = RankSweepConfig(ranks=[1, 2], runs_per_rank=4,
                                base=base_config(master_seed=2))
        report = rank_sweep(v, sweep)
        recs = {r.rank: r.cophenetic for r in report.records}
        if recs[1] == recs[2]:
            assert report.recommended_rank == 1

    def test_rank_out_of_range(self):
        sweep = RankSweepConfig(ranks=[9], runs_per_rank=3,
                                base=base_config(master_seed=0))
        with pytest.raises(RankError):
            rank_sweep(np.ones((4, 4)), sweep)

    @pytest.mark.parametrize("ranks, runs, error, message", [
        # [2.5] ran rank 2; ["2"] too
        ([2.5], 2, RankError, "^candidate ranks must be integers"),
        (["2", 3], 2, RankError, "^candidate ranks must be integers"),
        # swept rank 1, and dropped 2.0 as a repeat of 2
        ([True, 2], 2, RankError, "^candidate ranks must be integers"),
        ([2, 2.0], 2, RankError, "^candidate ranks must be integers"),
        # a TypeError at the parent
        ([2], 2.5, ParamError, "^runs_per_rank must be of type int, got 2.5$"),
        ([2], 0, ParamError, r"^runs_per_rank must be finite and lie in "
         r"\[1, inf\), got 0$")])
    def test_sweep_settings_are_typed(self, ranks, runs, error, message):
        sweep = RankSweepConfig(ranks=ranks, runs_per_rank=runs,
                                base=base_config(master_seed=0))
        with pytest.raises(error, match=message):
            rank_sweep(np.ones((4, 4)), sweep)

    def test_negative_master_seed_is_param_error(self):
        sweep = RankSweepConfig(ranks=[2], runs_per_rank=2,
                                base=base_config(master_seed=-1))
        with pytest.raises(ParamError, match="master seed"):
            rank_sweep(np.ones((4, 4)), sweep)

    def test_single_run_warns(self):
        rng = make_rng(5)
        v = random_nonneg(rng, 8, 6)
        sweep = RankSweepConfig(ranks=[2], runs_per_rank=1,
                                base=base_config(master_seed=0))
        with pytest.warns(UserWarning):
            report = rank_sweep(v, sweep)
        assert len(report.records) == 1

    def test_deterministic_across_thread_counts(self):
        rng = make_rng(6)
        v = random_nonneg(rng, 9, 7)
        sweep = RankSweepConfig(ranks=[2, 3], runs_per_rank=4,
                                base=base_config(master_seed=11))
        # the sweep has no thread count left to vary: two serial sweeps
        r1 = rank_sweep(v, sweep)
        r2 = rank_sweep(v, sweep)
        assert r2.records == r1.records
        assert r2.recommended_rank == r1.recommended_rank

    def test_one_residual_per_model(self, monkeypatch):
        v = random_nonneg(make_rng(7), 9, 7)
        sweep = RankSweepConfig(ranks=[2, 3], runs_per_rank=3,
                                base=base_config(master_seed=5))
        want = rank_sweep(v, sweep)
        objective = quality_mod.objective
        calls = []

        def counted(*args):
            calls.append(args[2])
            return objective(*args)

        monkeypatch.setattr(quality_mod, "objective", counted)
        got = rank_sweep(v, sweep)
        assert calls == ["euclidean"] * 6
        assert got.records == want.records

    def test_memory_error_is_typed(self, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(multirun_mod, "cophenetic", exhausted)
        sweep = RankSweepConfig(ranks=[2], runs_per_rank=2,
                                base=base_config(master_seed=0))
        with pytest.raises(OutOfMemoryError, match="rank 2 on a 8x6") as info:
            rank_sweep(random_nonneg(make_rng(8), 8, 6), sweep)
        assert info.value.kind == "memory"
