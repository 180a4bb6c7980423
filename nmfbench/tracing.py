"""Spans around the calls into nmfkit's modules, and the per-layer metrics.

The tracer wraps functions at the name their caller looks up: `factor`
imports `matmul` from `matcore`, so the wrapper goes on
`nmfkit.factor.matmul`.  Nothing inside `src/` is edited; the wrappers are
installed for the traced operations only and removed afterwards.

A span is (id, name, site, start, end, parent, thread, op, attrs): `site`
is the module whose global was wrapped, `parent` the innermost open span of
the same thread (None for a span that opens a worker thread's stack), and
`op` the benchmark operation it belongs to.  Spans stay in memory until
`write` puts them into a JSON-lines file.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import threading
import time

# the nine method ids as they appear in the declared metric names
METHODS = ("nmf-eu", "nmf-kl", "lsnmf", "snmf-l", "snmf-r", "nsnmf", "bmf",
           "bd", "icm")

MIB = float(1 << 20)


def _step_name(method):
    return "factor.step." + method


def _snmf_step_name(args, kwargs):
    side = kwargs.get("side", args[3] if len(args) > 3 else None)
    return _step_name("snmf-" + str(side))


def _file_bytes(args):
    return {"bytes": os.path.getsize(args[0])}


# (module, global, span name); a callable name derives it from the arguments
TARGETS = (
    ("nmfkit.cli", "read_matrix", "mio.read_matrix"),
    ("nmfkit.cli", "write_matrix", "mio.write_matrix"),
    ("nmfkit.cli", "write_summary", "mio.write_summary"),
    ("nmfkit.cli", "factorize", "factor.factorize"),
    ("nmfkit.cli", "fit_summary", "quality.fit_summary"),
    ("nmfkit.cli", "rank_sweep", "multirun.rank_sweep"),
    ("nmfkit", "factorize", "factor.factorize"),
    ("nmfkit", "fit_summary", "quality.fit_summary"),
    ("nmfkit.multirun", "run_many", "multirun.run_many"),
    ("nmfkit.multirun", "factorize", "factor.factorize"),
    ("nmfkit.multirun", "cophenetic", "quality.cophenetic"),
    ("nmfkit.factor", "seed_factors", "seeding.seed_factors"),
    ("nmfkit.seeding", "jacobi_svd", "svd.jacobi_svd"),
    ("nmfkit.factor", "objective", "factor.objective"),
    ("nmfkit.factor", "bmf_objective", "factor.objective"),
    ("nmfkit.factor", "snmf_objective", "factor.objective"),
    ("nmfkit.factor", "mu_eu_step", _step_name("nmf-eu")),
    ("nmfkit.factor", "mu_kl_step", _step_name("nmf-kl")),
    ("nmfkit.factor", "lsnmf_iterate", _step_name("lsnmf")),
    ("nmfkit.factor", "snmf_iterate", _snmf_step_name),
    ("nmfkit.factor", "nsnmf_iterate", _step_name("nsnmf")),
    ("nmfkit.factor", "bmf_iterate", _step_name("bmf")),
    ("nmfkit.factor", "bd_gibbs_step", _step_name("bd")),
    ("nmfkit.factor", "icm_step", _step_name("icm")),
    ("nmfkit.factor", "matmul", "matcore.matmul"),
    ("nmfkit.factor", "safe_divide", "matcore.ratio"),
    ("nmfkit.factor", "safe_divide_product", "matcore.ratio"),
    ("nmfkit.factor", "kl_div", "matcore.kl_div"),
    ("nmfkit.quality", "kl_div", "matcore.kl_div"),
)

# span attributes computed from a call's arguments
ATTRS = {("nmfkit.cli", "read_matrix"): _file_bytes}


class Tracer:
    """In-memory span recorder that patches module globals while enabled."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name, site="nmfbench", attrs=None):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        record = {"id": span_id, "name": name, "site": site, "parent": parent,
                  "thread": threading.get_ident(), "op": self.op,
                  "attrs": dict(attrs or {})}
        try:
            yield record
        finally:
            record["start"] = start
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)  # list.append is atomic under the GIL

    def _wrap(self, fn, site, name, attrs_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with self.span(label, site) as record:
                result = fn(*args, **kwargs)
                if attrs_of is not None:
                    record["attrs"].update(attrs_of(args))
                return result
        return traced

    def install(self):
        """Wrap every target; also count the CSR matrices made dense."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, module_name, name,
                                             ATTRS.get((module_name, attr))))
        matcore = importlib.import_module("nmfkit.matcore")
        data_matrix = matcore.DataMatrix
        dense_view = data_matrix.dense_view
        tracer = self

        def counted_dense_view(matrix):
            if matrix._dense_data is None and matrix.indptr is not None:
                with tracer.span("matcore.densify", "nmfkit.matcore",
                                 {"bytes": 8 * matrix.rows * matrix.cols}):
                    return dense_view(matrix)
            return dense_view(matrix)

        self._saved.append((data_matrix, "dense_view", dense_view))
        data_matrix.dense_view = counted_dense_view

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for record in sorted(self.spans, key=lambda s: s["id"]):
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def layer_metrics(spans, ops, overhead_s):
    """Per-layer metrics per operation, from the spans of `ops` operations.

    A layer the workload does not reach reads 0.
    """
    def dur(s):
        return s["end"] - s["start"]

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def total(*names):
        return sum(dur(s) for s in named(*names))

    per_op = 1.0 / ops
    reads = named("mio.read_matrix")
    read_s = total("mio.read_matrix")
    read_mb = sum(s["attrs"]["bytes"] for s in reads) / MIB
    pool = [s for s in named("factor.factorize")
            if s["site"] == "nmfkit.multirun"]
    run_many_s = total("multirun.run_many")
    steps = [s for s in spans if s["name"].startswith("factor.step.")]

    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    cli_self = sum(dur(s) - _covered([(c["start"], c["end"])
                                      for c in children.get(s["id"], [])])
                   for s in named("cli.main"))

    metrics = {
        "mio.read_s": (read_s * per_op, "s"),
        "mio.read_mb_per_s": (read_mb / read_s if read_s > 0 else 0.0,
                              "MB/s"),
        "mio.write_s": (total("mio.write_matrix", "mio.write_summary")
                        * per_op, "s"),
        "seeding.seed_s": (total("seeding.seed_factors") * per_op, "s"),
        "svd.jacobi_s": (total("svd.jacobi_svd") * per_op, "s"),
        "factor.factorize_s": (total("factor.factorize") * per_op, "s"),
        "factor.iters": (len(steps) * per_op, "count"),
    }
    for method in METHODS:
        mine = [dur(s) for s in steps if s["name"] == _step_name(method)]
        metrics["factor.iter_ms." + method] = (
            1000.0 * sum(mine) / len(mine) if mine else 0.0, "ms")
    metrics.update({
        "factor.objective_s": (total("factor.objective") * per_op, "s"),
        "matcore.matmul_s": (total("matcore.matmul") * per_op, "s"),
        "matcore.ratio_s": (total("matcore.ratio") * per_op, "s"),
        "matcore.kl_div_s": (total("matcore.kl_div") * per_op, "s"),
        "matcore.densified_mb": (sum(s["attrs"]["bytes"]
                                     for s in named("matcore.densify"))
                                 / MIB * per_op, "MB"),
        "quality.fit_summary_s": (total("quality.fit_summary") * per_op, "s"),
        "quality.cophenetic_s": (total("quality.cophenetic") * per_op, "s"),
        "multirun.run_many_s": (run_many_s * per_op, "s"),
        "multirun.runs_per_s": (len(pool) / run_many_s if run_many_s > 0
                                else 0.0, "1/s"),
        "multirun.factorize_ms_mean": (1000.0 * sum(dur(s) for s in pool)
                                       / len(pool) if pool else 0.0, "ms"),
        "cli.self_s": (cli_self * per_op, "s"),
        "trace.overhead_s": (overhead_s, "s"),
    })
    return metrics
