"""Write the stored reference groups of the benchmark's workloads.

    python3 perfbench/record_references.py [WORKLOAD ...]

Computes with the pure Smith kernel, whatever is built, and certifies each
computation as the benchmark does before writing ``references/<name>.json``.
Re-record only for a change that is meant to change the groups, and say so
in the change; a benchmark failure is never a reason to re-record.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

os.environ["CHROMHOM_PURE_SNF"] = "1"

import worker  # noqa: E402  (puts src/ on sys.path)
from tracing import NullTracer  # noqa: E402
from workloads import WORKLOAD_FACTORIES, build  # noqa: E402

HERE = Path(__file__).resolve().parent


def main(argv: list[str]) -> int:
    names = argv or list(WORKLOAD_FACTORIES)
    for name in names:
        workload = build(name)
        _, _, records = worker.run_pass(workload, 1, NullTracer())
        bad = [r for r in records if r["failures"]]
        if bad:
            print(f"{name}: not recorded, checks failed: {bad[0]['failures']}",
                  file=sys.stderr)
            return 1
        # one computation per line: [i, j, free rank, torsion] per group
        rows = ",\n".join(
            f"  {json.dumps(r['label'])}: {json.dumps(r['groups'])}" for r in records
        )
        path = HERE / "references" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(
            f'{{"workload": "{name}", "kernel": "pure", "groups": {{\n{rows}\n}}}}\n'
        )
        print(f"{name}: {len(records)} computations -> {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
