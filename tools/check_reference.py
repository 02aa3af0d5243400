"""Check every benchmark catalogue op against its recorded outcome.

    python3 tools/check_reference.py

Each op of every workload's catalogue (perfbench/workloads.py) runs once
through perfbench/worker.py's run_op, with the package's caches cleared
before it, as perfbench/make_reference.py ran it.  perfbench/run.py's
check then judges its outcome against perfbench/reference.json, by the
rules the benchmark applies.  Prints "N/N catalogue ops match", names each
mismatch on stderr and exits 1 if there is any.
"""

from __future__ import annotations

import json
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    with open(os.path.join(PERFBENCH, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    total, bad = 0, []
    for workload in workloads.WORKLOADS:
        records = []
        for op in workloads.catalogue(workload):
            for clear in worker._cache_clearers():
                clear()
            records.append(dict(worker.run_op(op["argv"]), usage=op["usage"]))
        total += len(records)
        bad += [f"{workload}: {name}: {why}" for name, why in run.check(records, reference[workload])]
    if bad:
        print("\n".join(bad), file=sys.stderr)
    print(f"{total - len(bad)}/{total} catalogue ops match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
