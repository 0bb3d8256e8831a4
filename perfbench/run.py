"""harmop benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload commutant-zoo --seed 1 --seconds 30 --trace 0

Each workload runs in a process of its own (worker.py) with the BLAS thread
count pinned to the number of usable cores, which is OpenBLAS's own default.
Set-up is sampled in SETUP_SAMPLES separate processes and reported as the
median.  The run then repeats the workload's batch of operations, at least
three times, until ``--seconds`` is used up.  Each operation's latency is its
median over the passes; ``wall_s`` is their sum and ``op_s.p50``/``op_s.p90``
are percentiles over the operations.  ``--trace 1`` adds one traced pass after the
untraced ones and reports the per-layer metrics instead of the end-to-end
ones.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import COMPUTED_BYTES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
DEADLINE_S = 170  # a run must end within 180 s; a stuck worker is killed before that
WORKLOADS = ("commutant-zoo", "predual-ideals", "subgroup-lattice")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_s.p50": "s", "op_s.p90": "s",
                    "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name in COMPUTED_BYTES:
        return "B-computed"
    if name.endswith("_s"):
        return "s"
    if name == "linalg.max_rows":
        return "rows"
    if name == "cli.report_bytes":
        return "B"
    return "count"


def worker(args, extra, env, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run.py: worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "harmop" / "__init__.py").is_file():
        print(f"run.py: no harmop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)

    deadline = time.monotonic() + DEADLINE_S
    setups = [worker(args, ["--setup-only"], env, deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    raw = worker(args, [], env, deadline)
    setups.append(raw["setup_s"])

    latencies = raw["latencies"]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(latencies),
        "op_s.p50": statistics.median(latencies),
        "op_s.p90": deciles[8],
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    per_op = f"{len(latencies)} operations, each its median over {len(raw['pass_walls'])} passes"
    counts = {
        "setup_s": f"median of {len(setups)} set-ups",
        "wall_s": f"sum over {per_op}",
        "op_s.p50": per_op,
        "op_s.p90": f"{per_op}; {sum(t > deciles[8] for t in latencies)} beyond",
        "peak_rss_mb": "worker process",
    }
    failed_frac = raw["failed"] / raw["attempted"]

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("environment " + json.dumps(raw["environment"], sort_keys=True))
    for name, value in e2e.items():
        print(f"  {name:<12} {value:12.6f} {END_TO_END_UNITS[name]:<3} ({counts[name]})")
    print(f"  {'failed_frac':<12} {failed_frac:12.6f} -   "
          f"({raw['failed']} of {raw['attempted']} operations attempted)")
    for line in raw["failures"]:
        print(f"  FAILED {line}")

    if args.trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in raw["layers"].items()}
        print("  per-layer metrics of the traced pass; B-computed counters are derived "
              "from shapes and arguments, and they and the call counts repeat exactly "
              "for a fixed seed:")
        for name, m in metrics.items():
            print(f"    {name:<34} {m['value']:>16.6f} {m['unit']}")
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in e2e.items()}

    result = {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  environment=raw["environment"], setup_samples=setups,
                  pass_walls=raw["pass_walls"], failures=raw["failures"])
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
