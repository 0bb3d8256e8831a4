"""Tests of the benchmark's tracer: self-time arithmetic, computed bytes, and
that installing and removing the wrappers leaves harmop's results unchanged.

    python3 -m pytest perfbench/tests
"""

import sys

import numpy as np
import pytest

import tracing
import workloads
from worker import OUT, run_pass


def span(name, layer, start, end, parent=None):
    return [name, layer, start, end, parent, 0]


def test_self_time_subtracts_covered_child_time():
    spans = [
        span("harmonic.a", "harmonic", 0.0, 10.0),
        span("linalg.b", "linalg", 1.0, 3.0, 0),
        span("linalg.c", "linalg", 5.0, 9.0, 0),
        span("numpy.linalg.svd", "numpy", 6.0, 7.5, 2),
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 2.5, 1.5])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        span("p", "cli", 0.0, 4.0),
        span("c1", "cli", 1.0, 3.0, 0),
        span("c2", "cli", 2.0, 5.0, 0),  # overlaps c1 and outlives the parent
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_layer_metrics_and_outermost_durations():
    tracer = tracing.Tracer()
    tracer.spans = [
        span("groups.builtin_group", "groups", 0.0, 6.0),
        span("groups.builtin_group", "groups", 1.0, 2.0, 0),
        span("linalg.null_space", "linalg", 6.0, 9.0),
        span("numpy.linalg.svd", "numpy", 6.5, 8.5, 2),
    ]
    out = tracing.layer_metrics(tracer)
    assert out["groups.calls"] == 2
    assert out["groups.self_s"] == pytest.approx(6.0)
    assert out["linalg.self_s"] == pytest.approx(1.0)
    assert out["linalg.decomp_calls"] == 1
    assert out["linalg.decomp_s"] == pytest.approx(2.0)
    assert out["linalg.null_space_s"] == pytest.approx(3.0)
    assert tracing.outermost_durations(tracer.spans, "groups.builtin_group") == 6.0


def test_spans_record_parent_and_operation():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    tracer.op = 7
    outer = tracer.open("linalg.commutant", "linalg")
    inner = tracer.open("linalg.null_space", "linalg")
    assert tracer.linalg_open == 2
    tracer.close(inner)
    tracer.close(outer)
    assert tracer.linalg_open == 0
    assert tracer.spans == [["linalg.commutant", "linalg", 0.0, 3.0, None, 7],
                            ["linalg.null_space", "linalg", 1.0, 2.0, 0, 7]]


def test_computed_decomposition_bytes_follow_the_call_arguments():
    a = np.zeros((30, 6), dtype=complex)
    assert tracing.decomp_out_bytes("svd", a, (), {}) == 16 * (30 * 30 + 6 * 6) + 8 * 6
    assert tracing.decomp_out_bytes("svd", a, (False,), {}) == 16 * (30 * 6 + 6 * 6) + 8 * 6
    assert tracing.decomp_out_bytes("svd", a, (), {"compute_uv": False}) == 8 * 6
    assert tracing.decomp_out_bytes("qr", a, (), {}) == 16 * (30 * 6 + 6 * 6)
    assert tracing.decomp_out_bytes("eigh", np.zeros((5, 5)), (), {}) == 8 * 5 + 8 * 25
    stacked = np.zeros((3, 30, 6), dtype=complex)
    assert tracing.decomp_out_bytes("svd", stacked, (), {}) == 3 * (16 * (900 + 36) + 8 * 6)


def _bindings():
    import harmop  # noqa: F401

    mods = [m for n, m in sys.modules.items() if n == "harmop" or n.startswith("harmop.")]
    out = {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}
    for cls in (sys.modules["harmop.groups"].GroupTable, sys.modules["harmop.groups"].Subgroup,
                sys.modules["harmop.linalg"].Subspace, sys.modules["harmop.actions"].Superoperator):
        out.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    out.update({("numpy.linalg", k): getattr(np.linalg, k) for k in tracing.DECOMPOSITIONS})
    return out


def _one_op_per_kind():
    """The first operation of every kind, leaving out the order-24 ideals."""
    ops, seen = [], set()
    for name in workloads.WORKLOADS:
        for op in workloads.build(name, 1, OUT / "inputs" / "tests"):
            kind = op.name.split()[0] if not op.name.startswith("cli") else op.name.split()[1]
            if kind not in seen and kind != "ideals":
                seen.add(kind)
                ops.append(op)
    return ops


def test_install_and_remove_leave_every_result_unchanged():
    ops = _one_op_per_kind()
    before = _bindings()
    _, plain, oks = run_pass(ops)
    assert all(oks)
    tracer = tracing.Tracer()
    installation = tracing.install(tracer)
    try:
        assert _bindings() != before
        _, traced, oks = run_pass(ops, tracer)
    finally:
        installation.remove()
    assert all(oks)
    assert traced == plain
    assert _bindings() == before
    _, after, _ = run_pass(ops)
    assert after == plain
    assert {span[tracing.LAYER] for span in tracer.spans} == {*tracing.LAYERS, "numpy"}
    assert tracer.counters["groups.mul_calls"] > 0
