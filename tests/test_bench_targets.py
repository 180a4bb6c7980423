"""Guards for the names the benchmark's tracer wraps.

`nmfbench/tracing.py` installs its timers on module globals of nmfkit
(`TARGETS`), so renaming or removing one of them would silently drop a
layer from the traced metrics.  The tracer is loaded here by file path and
only read: its module is not imported as a package, and its wrappers are
not installed (the call-count test puts its own on the same names).
"""

import collections
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import nmfkit.factor as factor_mod
from nmfkit.factor import METHODS, FactorConfig, factorize, snmf_iterate

TRACING = Path(__file__).resolve().parents[1] / "nmfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("nmfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    missing = [(module, attr)
               for module, attr, _ in load_tracing().TARGETS
               if not callable(getattr(importlib.import_module(module), attr,
                                       None))]
    assert missing == []


def test_snmf_side_is_the_fourth_positional_argument():
    # the tracer names an snmf step from args[3] of a positional call
    params = list(inspect.signature(snmf_iterate).parameters.values())
    assert params[3].name == "side"
    assert params[3].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
    step_name = load_tracing()._snmf_step_name
    assert step_name((None, None, None, "l"), {}) == "factor.step.snmf-l"


@pytest.mark.parametrize("method", METHODS)
def test_steps_and_objectives_are_looked_up_per_call(monkeypatch, method):
    # the iterate loop must call each wrapped name through factor's globals:
    # a dispatch table bound at import would bypass the tracer's wrappers
    # and read factor.iter_ms.* as zero in traced runs
    calls = collections.Counter()

    def counting(fn, span):
        def wrapper(*args, **kwargs):
            calls[span if isinstance(span, str) else span(args, kwargs)] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, attr, span in load_tracing().TARGETS:
        if module == "nmfkit.factor" and (
                callable(span) or span.startswith("factor.")):
            monkeypatch.setattr(factor_mod, attr,
                                counting(getattr(factor_mod, attr), span))
    cfg = FactorConfig(method=method, rank=2, max_iter=4,
                       min_residual_delta=0.0, conn_change=0)
    factorize(np.full((6, 5), 0.5) + np.eye(6, 5) / 4, cfg)
    assert calls["factor.step." + method] == 4
    assert calls["factor.objective"] == 4 + 1  # and one before the first
