"""Span tracer for the benchmark's traced run.

The tracer wraps harmop's public functions from outside the package: each
wrapped call records a span (name, layer, start, end, parent span, operation
id) in memory.  Per-element helpers get counters instead of spans so that the
tracing does not swamp the run, and numpy decompositions are recorded only
while a linalg span is open.  ``install`` rebinds every wrapped function in
every harmop module namespace that binds it; ``remove`` puts the originals
back.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("groups", "functions", "linalg", "actions", "support", "harmonic",
          "generators", "cli")

# per-element helpers: counted, never spanned (their time stays in the caller)
COUNTED = {
    ("groups", "GroupTable.mul"): "groups.mul_calls",
    ("groups", "characters"): "functions.characters_calls",
}
# public methods that get spans like module functions
METHODS = {
    "groups": {"Subgroup": ("left_cosets", "right_cosets")},
    "linalg": {"Subspace": ("from_span",)},
    "actions": {"Superoperator": ("apply", "dense", "pre_adjoint")},
}
# functions that materialise one complex n^2 x n^2 matrix per call
DOUBLED_SPACE = ("comultiplication", "fundamental_unitary", "dual_unitary",
                 "flip_unitary")
DECOMPOSITIONS = ("svd", "qr", "eigh")

# inclusive time of the outermost span of each name, as per-layer metrics
INCLUSIVE = {
    "linalg.null_space_s": "linalg.null_space",
    "linalg.range_space_s": "linalg.range_space",
    "linalg.commutant_s": "linalg.commutant",
    "linalg.double_commutant_s": "linalg.double_commutant",
    "harmonic.bullet_closure_s": "harmonic.bullet_closure_residual",
    "actions.apply_s": "actions.Superoperator.apply",
    "groups.all_subgroups_s": "groups.all_subgroups",
    "cli.emit_s": "cli.emit",
}
SPAN_COUNTS = {
    "actions.apply_calls": "actions.Superoperator.apply",
    "groups.generated_subgroup_calls": "groups.generated_subgroup",
    "functions.convolve_calls": "functions.convolve",
}
# counters derived from shapes and arguments, not from measured memory
COMPUTED_BYTES = ("linalg.decomp_in_bytes", "linalg.decomp_out_bytes",
                  "actions.dense_bytes")

NAME, LAYER, START, END, PARENT, OP = range(6)


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.op: int | None = None
        self.linalg_open = 0

    def open(self, name: str, layer: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, layer, self.clock(), None, parent, self.op])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        if layer == "linalg":
            self.linalg_open += 1
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[END] = self.clock()
        self.stack.pop()
        if span[LAYER] == "linalg":
            self.linalg_open -= 1

    def write(self, path) -> None:
        keys = ("name", "layer", "start", "end", "parent", "op")
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **dict(zip(keys, span))}) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[PARENT] is not None:
            children[span[PARENT]].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for c in sorted(children[i], key=lambda k: spans[k][START]):
            lo, hi = max(spans[c][START], reach), min(spans[c][END], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def outermost_durations(spans, name: str) -> float:
    """Summed duration of the spans called ``name`` with no ancestor of the
    same name, so recursion is not counted twice."""
    total = 0.0
    for span in spans:
        if span[NAME] != name:
            continue
        parent = span[PARENT]
        while parent is not None and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent is None:
            total += span[END] - span[START]
    return total


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (overhead is added by the caller)."""
    spans = tracer.spans
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_s"] = 0.0
    decomp_calls, decomp_s = 0, 0.0
    for span, self_s in zip(spans, selfs):
        if span[LAYER] == "numpy":
            decomp_calls += 1
            decomp_s += span[END] - span[START]
        else:
            out[f"{span[LAYER]}.calls"] += 1
            out[f"{span[LAYER]}.self_s"] += self_s
    out["linalg.decomp_calls"] = decomp_calls
    out["linalg.decomp_s"] = decomp_s
    for metric, name in INCLUSIVE.items():
        out[metric] = outermost_durations(spans, name)
    counts = Counter(span[NAME] for span in spans)
    for metric, name in SPAN_COUNTS.items():
        out[metric] = counts[name]
    for metric in (*COUNTED.values(), "actions.dense_calls", *COMPUTED_BYTES,
                   "linalg.max_rows", "cli.report_bytes"):
        out[metric] = tracer.counters[metric]
    return out


# ---------------------------------------------------------------------------
# computed bytes of a decomposition, from the arguments of the call made

def decomp_out_bytes(kind: str, a, args, kwargs) -> int:
    *lead, m, n = a.shape
    item = 16 if a.dtype.kind == "c" else 8
    k = min(m, n)
    if kind == "svd":
        full = kwargs.get("full_matrices", args[0] if len(args) > 0 else True)
        compute_uv = kwargs.get("compute_uv", args[1] if len(args) > 1 else True)
        size = 8 * k
        if compute_uv:
            size += item * (m * m + n * n if full else m * k + k * n)
    elif kind == "qr":
        mode = kwargs.get("mode", args[0] if args else "reduced")
        if mode == "r":
            size = item * k * n
        elif mode == "complete":
            size = item * (m * m + m * n)
        else:
            size = item * (m * k + k * n)
    else:  # eigh: eigenvalues plus the full eigenvector matrix
        size = 8 * n + item * n * n
    return math.prod(lead) * size


# ---------------------------------------------------------------------------
# installing and removing the wrappers

def _span_wrapper(tracer: Tracer, fn, name: str, layer: str, on_call=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if on_call is not None:
            on_call(args, kwargs)
        idx = tracer.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if name == "cli.emit" and isinstance(result, str):
            tracer.counters["cli.report_bytes"] += len(result.encode())
        return result
    return wrapper


def _counter_wrapper(tracer: Tracer, fn, metric: str):
    counters = tracer.counters

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counters[metric] += 1
        return fn(*args, **kwargs)
    return wrapper


def _decomp_wrapper(tracer: Tracer, fn, kind: str):
    counters = tracer.counters

    @functools.wraps(fn)
    def wrapper(a, *args, **kwargs):
        if not tracer.linalg_open:
            return fn(a, *args, **kwargs)
        counters["linalg.decomp_in_bytes"] += a.nbytes
        counters["linalg.decomp_out_bytes"] += decomp_out_bytes(kind, a, args, kwargs)
        counters["linalg.max_rows"] = max(counters["linalg.max_rows"], a.shape[-2])
        idx = tracer.open(f"numpy.linalg.{kind}", "numpy")
        try:
            return fn(a, *args, **kwargs)
        finally:
            tracer.close(idx)
    return wrapper


def _dense_hook(tracer: Tracer):
    def on_call(args, kwargs):
        sup = args[0]
        if sup._dense is None and sup.kind != "dense":
            n = sup.group.order
            tracer.counters["actions.dense_calls"] += 1
            tracer.counters["actions.dense_bytes"] += 16 * n ** 4
    return on_call


def _doubled_hook(tracer: Tracer):
    def on_call(args, kwargs):
        n = args[0].order
        tracer.counters["actions.dense_calls"] += 1
        tracer.counters["actions.dense_bytes"] += 16 * n ** 4
    return on_call


class Installation:
    """Record of every rebinding made by ``install``, undone by ``remove``."""

    def __init__(self):
        self.bindings: list[tuple[object, str, object]] = []

    def rebind(self, owner, attr: str, new) -> None:
        self.bindings.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def remove(self) -> None:
        for owner, attr, old in reversed(self.bindings):
            setattr(owner, attr, old)
        self.bindings.clear()


def _public_functions(module):
    for attr, value in vars(module).items():
        if (not attr.startswith("_") and inspect.isfunction(value)
                and value.__module__ == module.__name__):
            yield attr, value


def install(tracer: Tracer) -> Installation:
    """Wrap every public harmop function and the listed methods."""
    import numpy as np

    harmop_modules = {name: mod for name, mod in sys.modules.items()
                      if name == "harmop" or name.startswith("harmop.")}
    inst = Installation()
    replacements: dict[int, object] = {}
    for layer in LAYERS:
        module = harmop_modules[f"harmop.{layer}"]
        for attr, fn in _public_functions(module):
            if (layer, attr) in COUNTED:
                new = _counter_wrapper(tracer, fn, COUNTED[(layer, attr)])
            else:
                hook = _doubled_hook(tracer) if attr in DOUBLED_SPACE else None
                new = _span_wrapper(tracer, fn, f"{layer}.{attr}", layer, hook)
            replacements[id(fn)] = new
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(module, cls_name)
            for meth in methods:
                raw = cls.__dict__[meth]
                name = f"{layer}.{cls_name}.{meth}"
                if isinstance(raw, classmethod):
                    new = classmethod(_span_wrapper(tracer, raw.__func__, name, layer))
                else:
                    hook = _dense_hook(tracer) if meth == "dense" else None
                    new = _span_wrapper(tracer, raw, name, layer, hook)
                inst.rebind(cls, meth, new)
    table_cls = harmop_modules["harmop.groups"].GroupTable
    inst.rebind(table_cls, "mul", _counter_wrapper(
        tracer, table_cls.__dict__["mul"], COUNTED[("groups", "GroupTable.mul")]))
    # rebind in every namespace that binds an original, package root included
    for module in harmop_modules.values():
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and id(value) in replacements:
                inst.rebind(module, attr, replacements[id(value)])
    for kind in DECOMPOSITIONS:
        inst.rebind(np.linalg, kind, _decomp_wrapper(tracer, getattr(np.linalg, kind), kind))
    return inst
