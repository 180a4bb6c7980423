"""Acceptance suite: one test per exit criterion, at pinned tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import to_csr
from nmfkit.cli import main
from nmfkit.factor import (FactorConfig, ParamSet, factorize,
                           sample_rectified_normal)
from nmfkit.matcore import DataMatrix, RngStream, frobenius_sq, kl_div
from nmfkit.mio import read_matrix, synth, write_matrix
from nmfkit.multirun import RankSweepConfig, rank_sweep
from nmfkit.quality import _hoyer, distance, evar, feature_scores, rss
from nmfkit.seeding import SeedSpec
from test_pg_nnls import draw_problem, nnls_kkt_oracle, solve_tight


def report(line):
    print("ACCEPTANCE PASS:", line)


def test_c01_monotonicity_suite():
    """Objective non-increasing per outer iteration, 50 instances/method."""
    start = time.perf_counter()
    variants = [("nmf-eu", {}), ("nmf-kl", {}), ("nsnmf", {"theta": 0.0}),
                ("nsnmf", {"theta": 0.5}), ("lsnmf", {}), ("snmf-l", {}),
                ("snmf-r", {}), ("bmf", {"lambda0": 1.1, "lambda_growth": 1.0})]
    rng = np.random.default_rng(42)
    worst = -math.inf
    for method, overrides in variants:
        for inst in range(50):
            m = int(rng.integers(4, 31))
            n = int(rng.integers(3, 21))
            k = int(rng.integers(1, min(6, m, n) + 1))
            v = rng.uniform(0.0, 1.0, size=(m, n))
            if method == "bmf":
                v = v / v.max()
            cfg = FactorConfig(method=method, rank=k, seed=SeedSpec("random"),
                               max_iter=25, min_residual_delta=0.0,
                               conn_change=0, track_error=True,
                               master_seed=inst, params=ParamSet(**overrides))
            _, trace = factorize(v, cfg)
            worst = max(worst, float(np.diff(trace.objective_per_iter).max()))
            assert worst <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report("1 monotonicity: worst per-iteration increase %.2e over "
           "%d instances (%.1fs)" % (worst, 50 * len(variants), elapsed))


def test_c02_fixed_point_suite():
    """Exact factorizations stay fixed; nsnmf(theta=0) tracks nmf-kl."""
    rng = np.random.default_rng(7)
    for method in ("nmf-eu", "nmf-kl", "lsnmf"):
        w0 = rng.uniform(0.1, 1.0, size=(6, 2))
        h0 = rng.uniform(0.1, 1.0, size=(2, 5))
        v = w0 @ h0
        cfg = FactorConfig(method=method, rank=2,
                           seed=SeedSpec(kind="fixed", w0=w0, h0=h0),
                           max_iter=20, min_residual_delta=0.0, conn_change=0)
        model, _ = factorize(v, cfg)
        assert model.final_objective <= 1e-18

    v = rng.uniform(0.05, 1.0, size=(8, 6))
    runs = {}
    for method, theta in (("nsnmf", 0.0), ("nmf-kl", None)):
        params = ParamSet(theta=theta) if theta is not None else ParamSet()
        cfg = FactorConfig(method=method, rank=3, seed=SeedSpec("random"),
                           max_iter=20, min_residual_delta=0.0, conn_change=0,
                           track_factors=1, master_seed=5, params=params)
        _, trace = factorize(v, cfg)
        runs[method] = trace.factor_snapshots
    assert len(runs["nsnmf"]) == 20
    for (it_a, w_a, h_a), (it_b, w_b, h_b) in zip(runs["nsnmf"],
                                                  runs["nmf-kl"]):
        assert it_a == it_b
        np.testing.assert_allclose(w_a, w_b, atol=1e-12)
        np.testing.assert_allclose(h_a, h_b, atol=1e-12)
    report("2 fixed points: exact-fit objectives <= 1e-18; nsnmf(0) matches "
           "nmf-kl for 20 iterations within 1e-12")


def test_c03_nnls_oracle_equivalence():
    """Projected-gradient NNLS equals brute-force KKT enumeration on 200
    problems."""
    rng = np.random.default_rng(314)
    worst = 0.0
    for _ in range(200):
        a, b = draw_problem(rng)
        x0 = np.abs(rng.normal(size=a.shape[1]))
        got = solve_tight(a, b, x0)
        want = nnls_kkt_oracle(a, b)
        worst = max(worst, float(np.abs(got - want).max()))
        assert worst <= 1e-8
    report("3 NNLS oracle: max elementwise deviation %.2e over 200 "
           "problems" % worst)


def test_c04_recovery():
    """lsnmf recovers noise-free rank-3 synthetic data, 10/10 seeds."""
    start = time.perf_counter()
    successes = 0
    for gen_seed in range(10):
        v, _, _ = synth(20, 10, 3, noise_sigma=0.0, density=1.0,
                        seed=gen_seed)
        best = -math.inf
        for master_seed in range(5):
            cfg = FactorConfig(method="lsnmf", rank=3,
                               seed=SeedSpec("random_vcol"), max_iter=300,
                               min_residual_delta=0.0, conn_change=0,
                               master_seed=master_seed)
            model, _ = factorize(v, cfg)
            best = max(best, evar(v, model))
            if best >= 0.999:
                break
        successes += best >= 0.999
    elapsed = time.perf_counter() - start
    assert successes == 10
    assert elapsed < 30.0
    report("4 recovery: evar >= 0.999 in 10/10 generator seeds (%.1fs)"
           % elapsed)


def test_c05_rank_estimation():
    """Cophenetic argmax recommends the true rank in >= 8 of 10 seeds."""
    start = time.perf_counter()
    v, _, _ = synth(30, 24, 3, noise_sigma=0.01, density=1.0, seed=0)
    base = FactorConfig(method="nmf-kl", rank=2, seed=SeedSpec("random_vcol"),
                        max_iter=200, conn_change=30)
    hits = 0
    for master_seed in range(10):
        sweep = RankSweepConfig(ranks=[2, 3, 4, 5], runs_per_rank=20,
                                base=replace(base, master_seed=master_seed))
        report_ = rank_sweep(v, sweep)
        for rec in report_.records:
            assert -1.0 <= rec.cophenetic <= 1.0
            assert 0.0 <= rec.dispersion <= 1.0
        hits += report_.recommended_rank == 3
    elapsed = time.perf_counter() - start
    assert hits >= 8
    assert elapsed < 180.0
    report("5 rank estimation: recommended 3 in %d/10 master seeds (%.1fs)"
           % (hits, elapsed))


def test_c06_quality_identities():
    """Identity and boundary checks over >= 1000 randomized cases."""
    from nmfkit.factor import FactorModel
    rng = np.random.default_rng(99)
    for case in range(1000):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(4, m, n) + 1))
        v = rng.uniform(0.0, 2.0, size=(m, n))
        if not v.any():
            v[0, 0] = 1.0
        model = FactorModel(rng.uniform(size=(m, k)), rng.uniform(size=(k, n)),
                            "nmf-eu", None, 1, 0.0)
        r = rss(v, model)
        assert evar(v, model) == 1.0 - r / frobenius_sq(v)
        d = distance(v, model, "euclidean")
        assert abs(d * d - r) <= 1e-9 * max(r, 1e-30)
        assert kl_div(v, v, np.eye(n)) == 0.0
    one_hot = np.zeros(7)
    one_hot[3] = 1.0
    (sp_one_hot, sp_flat), _, _ = _hoyer([one_hot, np.full(7, 0.4)])
    assert sp_one_hot == pytest.approx(1.0)
    assert sp_flat == pytest.approx(0.0, abs=1e-12)
    assert feature_scores(np.array([[1.0, 0.0]]))[0] == pytest.approx(1.0)
    assert feature_scores(np.array([[0.7, 0.7]]))[0] == pytest.approx(
        0.0, abs=1e-12)
    report("6 quality identities: 1000 randomized cases plus boundary "
           "values hold exactly")


def test_c07_sampler_calibration():
    """Rectified-normal mean matches sqrt(2/pi) within 0.01 over 1e5 draws."""
    stream = RngStream(2024)
    draws = np.array([sample_rectified_normal(0.0, 1.0, stream)
                      for _ in range(100_000)])
    target = math.sqrt(2.0 / math.pi)
    assert abs(draws.mean() - target) <= 0.01
    assert draws.min() >= 0.0
    # bitwise chain reproducibility, both for raw draws and a Gibbs chain
    s1 = RngStream(5)
    s2 = RngStream(5)
    seq1 = [sample_rectified_normal(-0.5, 2.0, s1) for _ in range(1000)]
    seq2 = [sample_rectified_normal(-0.5, 2.0, s2) for _ in range(1000)]
    assert seq1 == seq2
    v = np.random.default_rng(3).uniform(0.2, 1.0, size=(6, 5))
    cfg = FactorConfig(method="bd", rank=2, seed=SeedSpec("random"),
                       max_iter=30, master_seed=17)
    m1, _ = factorize(v, cfg)
    m2, _ = factorize(v, cfg)
    np.testing.assert_array_equal(m1.W, m2.W)
    np.testing.assert_array_equal(m1.H, m2.H)
    report("7 sampler calibration: |mean - sqrt(2/pi)| = %.4f over 1e5 "
           "draws; chains bitwise reproducible"
           % abs(draws.mean() - target))


def test_c08_sparse_dense_equivalence():
    """All methods and quality measures agree between CSR and dense V."""
    methods = ["nmf-eu", "nmf-kl", "lsnmf", "snmf-l", "snmf-r", "nsnmf",
               "bmf", "bd", "icm"]
    rng = np.random.default_rng(1234)
    worst_factors = 0.0
    worst_scalars = 0.0
    for inst in range(20):
        m = int(rng.integers(8, 14))
        n = int(rng.integers(6, 12))
        dense = rng.uniform(0.0, 1.0, size=(m, n))
        dense = np.where(rng.random((m, n)) < 0.2, dense, 0.0)
        if not dense.any():
            dense[0, 0] = 0.5
        sparse = to_csr(dense)
        k = int(rng.integers(1, min(4, m, n) + 1))
        for method in methods:
            cfg = FactorConfig(method=method, rank=k, seed=SeedSpec("random"),
                               max_iter=25, min_residual_delta=0.0,
                               conn_change=0, master_seed=inst)
            md, _ = factorize(dense, cfg)
            ms, _ = factorize(sparse, cfg)
            for mo in (md, ms):
                assert np.all(np.isfinite(mo.W)) and np.all(np.isfinite(mo.H))
                assert mo.W.min() >= 0 and mo.H.min() >= 0
            worst_factors = max(worst_factors,
                                float(np.abs(md.W - ms.W).max()),
                                float(np.abs(md.H - ms.H).max()))
            for fn in (rss, evar, lambda a, b: distance(a, b, "euclidean"),
                       lambda a, b: distance(a, b, "kl")):
                worst_scalars = max(worst_scalars,
                                    abs(fn(dense, md) - fn(sparse, md)))
        assert worst_factors <= 1e-9
        assert worst_scalars <= 1e-12
    report("8 sparse/dense: worst factor delta %.2e, worst scalar delta "
           "%.2e over 20 instances x %d methods"
           % (worst_factors, worst_scalars, len(methods)))


def test_c09_cli_end_to_end(tmp_path):
    """The reference CLI invocation runs, emits sane measures, and is
    byte-identical across reruns with a fixed master seed."""
    matrix = tmp_path / "V.mtx"
    assert main(["synth", "--rows", "200", "--cols", "50", "--rank", "5",
                 "--noise", "0.01", "--seed", "11", "--output",
                 str(matrix)]) == 0
    outputs = []
    for name in ("runA", "runB"):
        outdir = tmp_path / name
        code = main(["factorize", "--input", str(matrix), "--method",
                     "lsnmf", "--seed", "random_vcol", "--rank", "40",
                     "--max-iter", "65", "--master-seed", "7",
                     "--output-dir", str(outdir)])
        assert code == 0
        outputs.append({f: (outdir / f).read_bytes()
                        for f in ("W.mtx", "H.mtx", "summary.json")})
    assert outputs[0] == outputs[1]
    summary = json.loads(outputs[0]["summary.json"].decode())
    for key in ("rss", "evar", "dist_kl", "sparseness_w", "sparseness_h"):
        assert math.isfinite(summary[key])
    assert 0.0 < summary["evar"] <= 1.0
    assert 0.0 <= summary["sparseness_w"] <= 1.0
    assert 0.0 <= summary["sparseness_h"] <= 1.0
    assert summary["dist_kl"] >= 0.0
    report("9 CLI end-to-end: lsnmf rank=40 max_iter=65 exits 0, measures "
           "finite (evar %.4f), outputs byte-identical" % summary["evar"])


def test_c10_bmf_crispness():
    """BMF on the 2x2 identity converges to near-binary factors and matches
    an independent re-implementation of the update equations."""
    v = np.eye(2)
    cfg = FactorConfig(method="bmf", rank=2, seed=SeedSpec("random"),
                       max_iter=1000, min_residual_delta=0.0, conn_change=0,
                       master_seed=3)
    model, _ = factorize(v, cfg)
    entries = np.concatenate([model.W.ravel(), model.H.ravel()])
    assert np.all(np.minimum(np.abs(entries), np.abs(entries - 1.0)) <= 0.05)

    # reference: longhand penalty updates with the default schedule
    eps = np.finfo(np.float64).eps
    stream = RngStream(3)
    w = stream.uniform(size=(2, 2))
    h = stream.uniform(size=(2, 2))
    for it in range(1, 1001):
        lam = min(1.1 * 10.0 ** ((it - 1) // 100), 1e7)
        h = h * ((w.T @ v + 3.0 * lam * h * h)
                 / (w.T @ w @ h + 2.0 * lam * h ** 3 + lam * h + eps))
        w = w * ((v @ h.T + 3.0 * lam * w * w)
                 / (w @ (h @ h.T) + 2.0 * lam * w ** 3 + lam * w + eps))
    np.testing.assert_allclose(model.W, w, atol=1e-9)
    np.testing.assert_allclose(model.H, h, atol=1e-9)
    report("10 BMF crispness: all entries within 0.05 of {0,1} and equal "
           "to the reference recursion")


def test_c11_io_roundtrips(tmp_path):
    """mtx and csv write-read roundtrips preserve values on 100 matrices."""
    rng = np.random.default_rng(77)
    for case in range(100):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        scale = 10.0 ** rng.integers(-6, 7)
        dense = rng.normal(size=(m, n)) * scale
        if case % 2 == 0:
            matrix = DataMatrix.dense(dense)
        else:
            dense = np.where(rng.random((m, n)) < 0.4, dense, 0.0)
            matrix = to_csr(dense)
        for fmt in ("mtx", "csv"):
            path = tmp_path / ("case%d.%s" % (case, fmt))
            write_matrix(matrix, path, fmt)
            back = read_matrix(path, fmt)
            assert back.shape == matrix.shape
            np.testing.assert_allclose(back.to_dense(), dense, atol=1e-15,
                                       rtol=0)
    report("11 I/O roundtrips: 100 random matrices through mtx and csv "
           "reproduce all values within 1e-15")
