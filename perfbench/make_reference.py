"""Record the expected outcome of every catalogue op in reference.json.

    python3 perfbench/make_reference.py

Each op of every workload's catalogue runs once through worker.run_op, with
the package's caches cleared before it; its exit code and stdout digest
become the reference that run.py checks against.
Run it only on code whose outputs are known to be right; it refuses a
catalogue in which an op raises, an invalid argv lacks a one-line 'error:'
message, or a valid one is rejected with exit 2.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import worker  # noqa: E402
import workloads  # noqa: E402


def main():
    reference, bad = {}, []
    for workload in workloads.WORKLOADS:
        table = {}
        for op in workloads.catalogue(workload):
            for clear in worker._cache_clearers():
                clear()
            rec = worker.run_op(op["argv"])
            name = workloads.key(op["argv"])
            if rec["error"]:
                bad.append(f"{name}: raises {rec['error']}")
            elif op["usage"] and not workloads.one_line_error(rec):
                bad.append(f"{name}: invalid argv without a one-line error")
            elif not op["usage"] and rec["rc"] == 2:
                bad.append(f"{name}: rejected: {rec['stderr'].strip()}")
            table[name] = [rec["rc"], rec["digest"]]
        reference[workload] = dict(sorted(table.items()))
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print({w: len(t) for w, t in reference.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
