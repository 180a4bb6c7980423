"""The four workloads: their operations, and the checks on their outputs.

A round is `ops_per_round` operations, and a run attempts whole rounds of
the same work whatever its length.  The runner calls `warm_up` once
untimed, then for each operation `j` of a round `operation(j)` (timed) and
`after(j)` (untimed), round after round, and `check` once at the end.
Operations are kept short, so that the median over a run's operations
rests on many samples.  `tracer` is set while operations are traced.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json

import numpy as np

import checks
from prepare import FULL, suite_matrix


class OperationFailed(Exception):
    pass


class Workload:
    name = ""
    ops_per_round = 1

    def __init__(self, inputs, outdir, seed, sizes=FULL):
        self.inputs = list(inputs)
        self.outdir = outdir
        self.seed = seed
        self.sizes = sizes
        self.tracer = None
        self.references = {}

    def cli(self, argv):
        """Run `nmfkit argv` in-process; its printed output is discarded."""
        from nmfkit import cli

        sink = io.StringIO()
        span = (self.tracer.span("cli.main", "nmfkit.cli") if self.tracer
                else contextlib.nullcontext())
        with span, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        if code != 0:
            raise OperationFailed("nmfkit %s exited %d: %s"
                                  % (argv[0], code, sink.getvalue()[-400:]))

    def warm_up(self):
        self.operation(0)

    def operation(self, j):
        raise NotImplementedError

    def outputs(self, j):
        """What must be identical across the repeats of operation j."""
        raise NotImplementedError

    def after(self, j):
        """Untimed, after operation j: its outputs equal its first ones."""
        current = self.outputs(j)
        if self.references.setdefault(j, current) != current:
            return ["outputs differ between repeated operations"]
        return []

    def check(self):
        """Problems found in the outputs, and facts worth reporting."""
        raise NotImplementedError


def _digests(directory, names):
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
            for name in names}


class _Factorize(Workload):
    """`nmfkit factorize` on one input per operation, each input once a
    round; outputs W.mtx, H.mtx, summary.json."""

    FILES = ("W.mtx", "H.mtx", "summary.json")

    @property
    def ops_per_round(self):
        return len(self.inputs)

    def flags(self):
        raise NotImplementedError

    def out(self, i):
        return self.outdir / ("out%d" % i)

    def run(self, i):
        self.cli(["factorize", "--input", str(self.inputs[i])] + self.flags()
                 + ["--master-seed", str(self.seed),
                    "--output-dir", str(self.out(i))])

    def operation(self, j):
        self.run(j)

    def outputs(self, j):
        return _digests(self.out(j), self.FILES)

    def check_output(self, i, rank):
        """Problems with the i-th run's files, and its summary."""
        v = checks.read_mtx(self.inputs[i])
        w = checks.read_mtx(self.out(i) / "W.mtx")
        h = checks.read_mtx(self.out(i) / "H.mtx")
        summary = json.loads((self.out(i) / "summary.json").read_text())
        problems = checks.factors(w, h, v.shape, rank)
        if not problems:
            problems += checks.fit_measures(v, w @ h, summary)
        return ["input %d: %s" % (i, p) for p in problems], summary


class CliDense(_Factorize):
    """The c09 reference run (lsnmf, rank 40, 65 iterations), one dense
    input per operation.  The stopping rules are off: under the
    defaults lsnmf stops anywhere from iteration 4 to 65 depending on the
    input, which would make the work per seed differ up to 16-fold."""

    name = "cli-dense"

    def flags(self):
        s = self.sizes
        return ["--method", "lsnmf", "--seed", "random_vcol",
                "--rank", str(s.dense_rank),
                "--max-iter", str(s.dense_max_iter),
                "--min-delta", "0", "--conn-change", "0"]

    def check(self):
        problems, evars = [], []
        for i in range(len(self.inputs)):
            found, summary = self.check_output(i, self.sizes.dense_rank)
            problems += found
            evars.append(summary["evar"])
            if summary["n_iter"] != self.sizes.dense_max_iter:
                problems.append("input %d: n_iter %d, expected %d"
                                % (i, summary["n_iter"],
                                   self.sizes.dense_max_iter))
            if not summary["evar"] >= 0.99:
                problems.append("input %d: evar %.6f < 0.99 at rank %d"
                                % (i, summary["evar"], self.sizes.dense_rank))
        return problems, {"min_evar": min(evars)}


class SparseKl(_Factorize):
    """nmf-kl with the default seeding and stopping rules on CSR counts."""

    name = "sparse-kl"

    def flags(self):
        s = self.sizes
        return ["--method", "nmf-kl", "--rank", str(s.sparse_true_rank),
                "--max-iter", str(s.sparse_max_iter), "--track-error"]

    def check(self):
        problems, summary = self.check_output(0, self.sizes.sparse_true_rank)
        trace = summary.get("objective_trace") or []
        problems += checks.monotone(trace, "KL objective")
        if len(trace) != summary["n_iter"]:
            problems.append("objective trace has %d entries for %d iterations"
                            % (len(trace), summary["n_iter"]))
        return problems, {"n_iter": summary["n_iter"],
                          "evar": summary["evar"]}


class RankSweep(Workload):
    """`nmfkit rank-estimate` over ranks lo..hi with the default threads."""

    name = "rank-sweep"
    FILES = ("consensus_report.json", "consensus_report.csv")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ranks = list(range(self.sizes.sweep_ranks[0],
                                self.sizes.sweep_ranks[1] + 1))
        self.consensus = {}
        self.factors = {}

    def operation(self, j):
        s = self.sizes
        self.cli(["rank-estimate", "--input", str(self.inputs[0]),
                  "--method", "nmf-kl",
                  "--ranks", "%d..%d" % tuple(s.sweep_ranks),
                  "--runs", str(s.sweep_runs),
                  "--master-seed", str(self.seed),
                  "--output-dir", str(self.outdir / "sweep")])

    def warm_up(self):
        """The sweep's runs again, serially, to see the consensus matrices
        that the report summarizes."""
        from nmfkit import FactorConfig, SeedSpec, read_matrix, run_many

        v = read_matrix(self.inputs[0])
        # the command's defaults, spelled out
        base = FactorConfig(method="nmf-kl", rank=self.ranks[0],
                            seed=SeedSpec("random_vcol"), max_iter=200,
                            min_residual_delta=1e-5, conn_change=30)
        for rank in self.ranks:
            models, cons = run_many(v, dataclasses.replace(base, rank=rank),
                                    self.sizes.sweep_runs, self.seed,
                                    threads=1)
            self.consensus[rank] = cons
            self.factors[rank] = [(m.W, m.H) for m in models]

    def outputs(self, j):
        return _digests(self.outdir / "sweep", self.FILES)

    def check(self):
        from nmfkit import cophenetic

        v = checks.read_mtx(self.inputs[0])
        report = json.loads(
            (self.outdir / "sweep" / "consensus_report.json").read_text())
        rss = {rank: [float(np.sum((v - w @ h) ** 2)) for w, h in pairs]
               for rank, pairs in self.factors.items()}
        problems = checks.sweep_report(report, self.consensus, rss,
                                       self.sizes.sweep_runs)
        for rank, c in self.consensus.items():
            jittered = checks.tie_free(c)
            problems += ["rank %d, tie-free: %s" % (rank, p) for p in
                         checks.cophenetic_agrees(cophenetic(jittered),
                                                  jittered)]
        recovered = report["recommended_rank"] == self.sizes.sweep_true_rank
        return problems, {"recommended_rank": report["recommended_rank"],
                          "planted_rank_recovered": recovered}


# (method, seeding): every seeding kind but `fixed` appears
SUITE = (("nmf-eu", "random"), ("nmf-kl", "random_c"),
         ("lsnmf", "random_vcol"), ("snmf-l", "nndsvd"),
         ("snmf-r", "nndsvda"), ("nsnmf", "nndsvdar"), ("bmf", "random"),
         ("bd", "random_vcol"), ("icm", "nndsvda"))

# methods whose objective may not rise; bmf only while its lambda is fixed
MONOTONE = ("nmf-eu", "nmf-kl", "lsnmf", "snmf-l", "snmf-r", "nsnmf", "bmf")


class MethodSuite(Workload):
    """factorize + fit_summary once per method, for a fixed iteration count."""

    name = "method-suite"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        from nmfkit import ParamSet

        if self.sizes.suite_iters > ParamSet().lambda_period:
            raise ValueError("suite_iters exceeds bmf's lambda_period")
        self.v = suite_matrix(self.sizes, self.seed)
        self.results = []

    def operation(self, j):
        import nmfkit

        results = []
        for method, seeding in SUITE:
            config = nmfkit.FactorConfig(
                method=method, rank=self.sizes.suite_rank,
                seed=nmfkit.SeedSpec.from_name(seeding),
                max_iter=self.sizes.suite_iters, min_residual_delta=0.0,
                conn_change=0, track_error=True, master_seed=self.seed)
            model, trace = nmfkit.factorize(self.v, config)
            summary = nmfkit.fit_summary(self.v, model)
            results.append((method, model, trace, summary))
        self.results = results

    def outputs(self, j):
        return [(model.W.tobytes(), model.H.tobytes())
                for _, model, _, _ in self.results]

    def check(self):
        problems = []
        k = self.sizes.suite_rank
        for method, model, trace, summary in self.results:
            found = checks.factors(model.W, model.H, self.v.shape, k)
            if not found:
                basis = model.W
                if method == "nsnmf":
                    theta = model.theta
                    basis = basis @ ((1.0 - theta) * np.eye(k)
                                     + theta / k * np.ones((k, k)))
                found += checks.fit_measures(self.v, basis @ model.H,
                                             dataclasses.asdict(summary))
            if model.n_iter != self.sizes.suite_iters:
                found.append("n_iter %d, expected %d"
                             % (model.n_iter, self.sizes.suite_iters))
            if method in MONOTONE:
                found += checks.monotone(trace.objective_per_iter)
            problems += ["%s: %s" % (method, p) for p in found]
        return problems, {"methods": len(self.results)}


WORKLOADS = {cls.name: cls for cls in (CliDense, SparseKl, RankSweep,
                                       MethodSuite)}
