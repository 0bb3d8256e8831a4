"""Every harmop name the benchmark's tracer hooks still exists.

perfbench/tracing.py wraps functions and methods by name and reads the
``_dense`` cache and the ``kind`` of a Superoperator; a name that disappears
from the package would silently zero a per-layer metric or fail the traced
run with a KeyError or an AttributeError.  The tracer module is loaded from its file and only read.
"""

import importlib.util
import inspect
from pathlib import Path

import numpy as np

from harmop import actions
from harmop.actions import theta_hat
from harmop.functions import delta_function
from harmop.groups import cyclic_group

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(dotted: str):
    """'layer.attr' or 'layer.Class.method' in the harmop package."""
    layer, *path = dotted.split(".")
    obj = importlib.import_module(f"harmop.{layer}")
    for part in path:
        obj = getattr(obj, part)
    return obj


def test_doubled_space_hooks_name_public_actions_functions():
    for name in _tracing().DOUBLED_SPACE:
        assert inspect.isfunction(getattr(actions, name, None)), name


def test_method_hooks_name_existing_methods():
    for layer, classes in _tracing().METHODS.items():
        for cls_name, methods in classes.items():
            cls = _resolve(f"{layer}.{cls_name}")
            for meth in methods:
                assert meth in cls.__dict__, f"{layer}.{cls_name}.{meth}"


def test_span_metrics_name_existing_functions():
    tracing = _tracing()
    names = [*tracing.INCLUSIVE.values(), *tracing.SPAN_COUNTS.values(),
             *(".".join(key) for key in tracing.COUNTED)]
    for name in names:
        assert callable(_resolve(name)), name


def test_dense_hook_reads_an_existing_cache():
    group = cyclic_group(3)
    sup = theta_hat(delta_function(group, 0))
    assert sup._dense is None and sup.kind != "dense"
    tracing = _tracing()
    tracer = tracing.Tracer()
    tracing._dense_hook(tracer)((sup,), {})
    assert tracer.counters["actions.dense_calls"] == 1
    assert tracer.counters["actions.dense_bytes"] == 16 * 3 ** 4
    assert np.array_equal(sup.dense(), sup._dense)
