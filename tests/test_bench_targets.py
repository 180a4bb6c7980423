"""Guards for the names the benchmark's tracer wraps.

`nmfbench/tracing.py` installs its timers on module globals of nmfkit
(`TARGETS`), so renaming or removing one of them would silently drop a
layer from the traced metrics.  The tracer is loaded here by file path and
only read: its module is not imported as a package and nothing is patched.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from nmfkit.factor import snmf_iterate

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
