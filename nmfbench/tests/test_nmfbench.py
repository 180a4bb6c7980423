"""The benchmark's own tests: every workload passes its checks at a tiny
size, and every check rejects a corrupted output.

    python3 -m pytest -q nmfbench/tests
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from prepare import Sizes, prepare  # noqa: E402

TINY = Sizes(dense_shape=(30, 12), dense_true_rank=3, dense_inputs=2,
             dense_rank=6, dense_max_iter=10,
             sparse_shape=(60, 40), sparse_true_rank=4, sparse_scale=1.0,
             sparse_max_iter=10,
             sweep_shape=(20, 24), sweep_true_rank=3, sweep_ranks=(2, 3),
             sweep_runs=4,
             suite_shape=(30, 12), suite_true_rank=3, suite_rank=4,
             suite_iters=10)

SEED = 3


def run_workload(name, tmp_path, tracer=None):
    inputs = prepare(name, SEED, tmp_path / "inputs", TINY)
    wl = workloads.WORKLOADS[name](inputs, tmp_path, SEED, TINY)
    wl.warm_up()
    wl.tracer = tracer
    for _ in range(2):
        for j in range(wl.ops_per_round):
            wl.operation(j)
            assert wl.after(j) == []
    return wl


def assert_clean(wl):
    problems, _ = wl.check()
    assert problems == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_its_checks(name, tmp_path):
    assert_clean(run_workload(name, tmp_path))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_operation_reports_every_layer(name, tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wl = run_workload(name, tmp_path, tracer)
    finally:
        tracer.uninstall()
    assert_clean(wl)
    metrics = tracing.layer_metrics(tracer.spans, 2, 0.0)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    assert metrics["factor.factorize_s"][0] > 0
    assert metrics["factor.iters"][0] > 0
    densified = metrics["matcore.densified_mb"][0]
    assert (densified > 0) == (name == "sparse-kl")
    if name == "method-suite":
        for method in tracing.METHODS:
            assert metrics["factor.iter_ms." + method][0] > 0
        assert metrics["svd.jacobi_s"][0] > 0
    if name == "rank-sweep":
        assert metrics["quality.cophenetic_s"][0] > 0
        assert metrics["multirun.runs_per_s"][0] > 0
    if name != "method-suite":
        assert metrics["cli.self_s"][0] > 0
    tracer.write(tmp_path / "spans.jsonl")
    lines = (tmp_path / "spans.jsonl").read_text().count("\n")
    assert lines == len(tracer.spans)


def test_tracer_restores_the_program():
    import nmfkit.factor
    from nmfkit.matcore import DataMatrix

    before = (nmfkit.factor.matmul, DataMatrix.dense_view)
    tracer = tracing.Tracer()
    tracer.install()
    assert nmfkit.factor.matmul is not before[0]
    tracer.uninstall()
    assert (nmfkit.factor.matmul, DataMatrix.dense_view) == before


def test_end_to_end_metrics_match_the_declaration():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    source = (BENCH / "run.py").read_text()
    for metric in declared["end_to_end"]:
        assert '"%s": {"value"' % metric["name"] in source
    assert sorted(w["name"] for w in declared["workloads"]) \
        == sorted(workloads.WORKLOADS)


def test_repeated_operation_with_other_outputs_is_rejected(tmp_path):
    wl = run_workload("cli-dense", tmp_path)
    summary = wl.out(1) / "summary.json"
    summary.write_text(summary.read_text().replace('"rank"', '"rank" '))
    assert wl.after(1) == ["outputs differ between repeated operations"]


def _rewrite_scaled(path, factor):
    from scipy.io import mmwrite

    mmwrite(str(path), checks.read_mtx(path) * factor, precision=17)


@pytest.mark.parametrize("name", ["cli-dense", "sparse-kl"])
def test_scaled_w_is_rejected(name, tmp_path):
    wl = run_workload(name, tmp_path)
    _rewrite_scaled(wl.out(0) / "W.mtx", 1.01)
    problems, _ = wl.check()
    assert any("rss" in p for p in problems)


def test_negative_factor_is_rejected():
    w = np.ones((4, 2))
    w[1, 1] = -1e-3
    assert checks.factors(w, np.ones((2, 3)), (4, 3), 2)


def test_rising_objective_trace_is_rejected(tmp_path):
    wl = run_workload("sparse-kl", tmp_path)
    path = wl.out(0) / "summary.json"
    summary = json.loads(path.read_text())
    trace = summary["objective_trace"]
    trace[-1] = trace[-2] * (1 + 1e-9)
    path.write_text(json.dumps(summary))
    problems, _ = wl.check()
    assert any("rises" in p for p in problems)


def test_low_evar_is_rejected(tmp_path):
    wl = run_workload("cli-dense", tmp_path)
    _rewrite_scaled(wl.out(0) / "W.mtx", 0.5)
    path = wl.out(0) / "summary.json"
    summary = json.loads(path.read_text())
    v = checks.read_mtx(wl.inputs[0])
    w = checks.read_mtx(wl.out(0) / "W.mtx")
    h = checks.read_mtx(wl.out(0) / "H.mtx")
    rss = float(np.sum((v - w @ h) ** 2))
    summary.update(rss=rss, evar=1 - rss / float(np.sum(v * v)),
                   dist_euclidean=rss ** 0.5,
                   dist_kl=checks.kl_clamped(v, w @ h))
    path.write_text(json.dumps(summary))
    problems, _ = wl.check()
    assert problems and all("evar" in p and "< 0.99" in p for p in problems)


def test_consensus_off_the_run_grid_is_rejected(tmp_path):
    wl = run_workload("rank-sweep", tmp_path)
    c = wl.consensus[2].copy()
    c[0, 1] = c[1, 0] = c[0, 1] + 0.5 / TINY.sweep_runs
    wl.consensus[2] = c
    problems, _ = wl.check()
    assert any("multiples of 1/%d" % TINY.sweep_runs in p for p in problems)


def test_asymmetric_consensus_and_wrong_recommendation_are_rejected(tmp_path):
    wl = run_workload("rank-sweep", tmp_path)
    c = wl.consensus[3].copy()
    c[0, 1] = 1.0 - c[1, 0]
    assert "consensus is not symmetric" in checks.consensus_matrix(c, 4)
    report = json.loads(
        (tmp_path / "sweep" / "consensus_report.json").read_text())
    other = [r["rank"] for r in report["ranks"]
             if r["rank"] != report["recommended_rank"]][0]
    report["recommended_rank"] = other
    rss = {rank: [float(np.sum((checks.read_mtx(wl.inputs[0]) - w @ h) ** 2))
                  for w, h in pairs] for rank, pairs in wl.factors.items()}
    problems = checks.sweep_report(report, wl.consensus, rss, TINY.sweep_runs)
    assert any("recommended rank" in p for p in problems)


def test_cophenetic_is_compared_on_a_tie_free_input():
    c = np.array([[1.0, 0.5, 0.5, 0.0], [0.5, 1.0, 0.5, 0.0],
                  [0.5, 0.5, 1.0, 0.5], [0.0, 0.0, 0.5, 1.0]])
    jittered = checks.tie_free(c)
    d = 1.0 - jittered
    assert len(set(d[np.triu_indices(4, 1)])) == 6
    from nmfkit import cophenetic

    value = cophenetic(jittered)
    assert checks.cophenetic_agrees(value, jittered) == []
    assert checks.cophenetic_agrees(value + 1e-6, jittered)


def test_method_suite_rejects_scaled_w_and_rising_objective(tmp_path):
    wl = run_workload("method-suite", tmp_path)
    method, model, trace, summary = wl.results[0]
    wl.results[0] = (method, dataclasses.replace(model, W=model.W * 1.01),
                     trace, summary)
    problems, _ = wl.check()
    assert any(p.startswith(method + ": rss") for p in problems)

    wl = run_workload("method-suite", tmp_path)
    method, model, trace, summary = wl.results[1]
    assert method in workloads.MONOTONE
    trace.objective_per_iter[-1] = trace.objective_per_iter[-2] * 1.01
    problems, _ = wl.check()
    assert any(p.startswith(method + ": objective rises") for p in problems)
