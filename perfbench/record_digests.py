"""Record the per-operation signature digests of every workload at the
default seed into digests.json, the oracle run.py gates that seed against.

    python3 perfbench/record_digests.py

Run it only when a change is meant to alter check names, verdicts or
dimensions, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from worker import OUT, run_pass, signature_digest  # noqa: E402


def main() -> int:
    digests = {}
    for name in workloads.WORKLOADS:
        ops = workloads.build(name, workloads.DEFAULT_SEED,
                              OUT / "inputs" / f"{name}-seed{workloads.DEFAULT_SEED}")
        _, sigs, oks = run_pass(ops)
        if not all(oks):
            bad = [ops[i].name for i, ok in enumerate(oks) if not ok]
            print(f"{name}: failing operations {bad}; nothing recorded", file=sys.stderr)
            return 1
        digests[name] = [signature_digest(sig) for sig in sigs]
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
