"""Run one workload in this process and print its raw measurements as JSON.

Started by run.py, once per set-up sample with ``--setup-only`` and once for
the measured run.  The clock for ``setup_s`` starts before numpy and harmop
are imported and stops before the first timed operation.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
MIN_PASSES = 3


def signature_digest(sig) -> str:
    text = json.dumps(sig, sort_keys=True, default=lambda o: o.item())  # numpy scalars
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None when unavailable."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        if ".so" not in path:
            continue
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_requested": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run_pass(ops, tracer=None):
    """Time every operation once; return (times, signatures, verdicts)."""
    times, sigs, oks = [], [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # an operation that raises is a failed operation
            result = exc
        times.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.op = None
        if isinstance(result, Exception):
            sigs.append(f"raised {type(result).__name__}: {result}")
            oks.append(False)
            continue
        try:
            ok, sig = op.check(result)
        except Exception as exc:
            ok, sig = False, f"check raised {type(exc).__name__}: {exc}"
        sigs.append(sig)
        oks.append(bool(ok))
    return times, sigs, oks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import harmop

    if Path(harmop.__file__).resolve().parent != src / "harmop":
        print(f"worker: harmop imported from {harmop.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    inputs_dir = OUT / "inputs" / f"{args.workload}-seed{args.seed}"
    ops = workloads.build(args.workload, args.seed, inputs_dir)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    digests = None
    if args.seed == workloads.DEFAULT_SEED:
        digests = json.loads((HERE / "digests.json").read_text())[args.workload]
    failures: dict[tuple[str, int], str] = {}

    def gate(sigs, oks, label, reference):
        for i, (sig, ok) in enumerate(zip(sigs, oks)):
            if not ok:
                why = str(sig)
            elif digests is not None and signature_digest(sig) != digests[i]:
                why = "digest mismatch"
            elif reference is not None and sig != reference[i]:
                why = "verdict differs from the first pass"
            else:
                continue
            failures[label, i] = f"{ops[i].name}: {why}"

    passes = []
    first_sigs = None
    start = time.perf_counter()
    while True:
        gc.collect()
        times, sigs, oks = run_pass(ops)
        gate(sigs, oks, f"pass {len(passes)}", first_sigs)
        first_sigs = first_sigs or sigs
        passes.append(times)
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + 0.5 * elapsed / len(passes) >= args.seconds:
            break
    attempted = len(ops) * len(passes)
    # each operation's latency is its median over the passes, which drops the
    # passes a burst of machine noise slowed down
    latencies = [statistics.median(col) for col in zip(*passes)]

    layers = None
    if args.trace:
        import tracing

        gc.collect()
        tracer = tracing.Tracer()
        installation = tracing.install(tracer)
        try:
            times, sigs, oks = run_pass(ops, tracer)
        finally:
            installation.remove()
        gate(sigs, oks, "traced pass", first_sigs)
        attempted += len(times)
        layers = tracing.layer_metrics(tracer)
        layers["trace.overhead_s"] = sum(times) - sum(latencies)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    print(json.dumps({
        "setup_s": setup_s,
        "latencies": latencies,
        "pass_walls": [sum(times) for times in passes],
        "attempted": attempted,
        "failed": len(failures),
        "failures": [f"{label} op {i} {why}" for (label, i), why in list(failures.items())[:20]],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "environment": environment(),
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
