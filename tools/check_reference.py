"""Check every benchmark catalogue op against its recorded outcome.

    python3 tools/check_reference.py

Each op of every workload's catalogue (perfbench/workloads.py) runs once
through perfbench/worker.py's run_op, with the package's caches cleared
before it, as perfbench/make_reference.py ran it.  Its exit code and stdout
digest must equal the entry in perfbench/reference.json, it must not raise,
and an invalid argv must end in exit 2 with a one-line 'error:' message.
Prints "N/N catalogue ops match", names each mismatch on stderr and exits 1
if there is any.
"""

from __future__ import annotations

import json
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import worker  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    with open(os.path.join(PERFBENCH, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    total, bad = 0, []
    for workload in workloads.WORKLOADS:
        for op in workloads.catalogue(workload):
            for clear in worker._cache_clearers():
                clear()
            rec = worker.run_op(op["argv"])
            name = workloads.key(op["argv"])
            want = reference[workload].get(name)
            total += 1
            if rec["error"]:
                bad.append(f"{workload}: {name}: raises {rec['error']}")
            elif want is None:
                bad.append(f"{workload}: {name}: not in reference.json")
            elif [rec["rc"], rec["digest"]] != want:
                bad.append(f"{workload}: {name}: exit {rec['rc']} digest {rec['digest']}, "
                           f"expected exit {want[0]} digest {want[1]}")
            elif op["usage"] and not workloads.one_line_error(rec):
                bad.append(f"{workload}: {name}: invalid argv without a one-line error")
    if bad:
        print("\n".join(bad), file=sys.stderr)
    print(f"{total - len(bad)}/{total} catalogue ops match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
