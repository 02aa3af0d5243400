"""The lacunary benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the package is imported from src/.
Set-up is timed in fresh interpreters, each after a bare one; the ops run
in one more fresh process (worker.py), one client in a closed loop.  Every
op's exit code and stdout digest are then checked against reference.json.
The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json under --trace 0 and its
per-layer metrics under --trace 1.  The line before it records the machine,
the seed and what failed.  --smoke runs every workload on one op per
stratum, in both modes, and checks that a corrupted reference digest is
reported as a failure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import workloads  # noqa: E402

SETUP_PAIRS = 20        # bare and workload interpreters timed for setup_s
DEADLINE_S = 175        # the whole run, set-up and checks included


def _spawn(args, timeout):
    """Run python3 with args in a fresh interpreter; (parsed stdout, start time)."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT,
                          stdout=subprocess.PIPE, timeout=timeout, check=True)
    return json.loads(proc.stdout), start


def setup_seconds(pairs):
    """(setup_s, raw median set-up, raw median bare start): each of pairs
    fresh worker.py --setup-only is timed right after a bare interpreter,
    from spawn to ready; see calibrate.py."""
    _spawn([WORKER, "--setup-only"], 60)   # fills __pycache__ where bytecode is written
    setups, bares = [], []
    for _ in range(pairs):
        ready, start = _spawn(["-c", calibrate.BARE], 60)
        bares.append(ready - start)
        out, start = _spawn([WORKER, "--setup-only"], 60)
        setups.append(out["ready"] - start)
    setup, bare = statistics.median(setups), statistics.median(bares)
    return setup * calibrate.START_REFERENCE_S / bare, setup, bare


def check(records, reference):
    """[(argv, reason)] for every op whose outcome is wrong."""
    failures = []
    for r in records:
        want = reference.get(workloads.key(r["argv"]))
        if r["error"]:
            why = "uncaught " + r["error"]
        elif want is None:
            why = "no reference outcome"
        elif [r["rc"], r["digest"]] != want:
            why = f"exit {r['rc']} digest {r['digest']}, expected exit {want[0]} digest {want[1]}"
        elif r["usage"] and not workloads.one_line_error(r):
            why = "usage error without a one-line 'error:' message"
        else:
            continue
        failures.append((workloads.key(r["argv"]), why))
    return failures


def end_to_end(records, setup_s, peak_rss_mb):
    times = [r["scaled"] for r in records]
    return {
        "setup_s": setup_s,
        "ops_per_s": len(times) / sum(times),
        "op_p50_s": statistics.median(times),
        "op_p90_s": statistics.quantiles(times, n=10)[-1],
        "peak_rss_mb": peak_rss_mb,
    }


def measure(workload, seed, seconds, trace, per_stratum=None, setup_pairs=SETUP_PAIRS):
    """(result line, run record, worker output) of one run."""
    began = time.monotonic()
    setup_s, setup_raw, bare_raw = setup_seconds(setup_pairs)
    args = [WORKER, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if per_stratum:
        args += ["--per-stratum", str(per_stratum)]
    out, _ = _spawn(args, DEADLINE_S - (time.monotonic() - began))

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)[workload]
    records = out["records"]
    failures = check(records, reference)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if trace:
        values, wanted = out["layers"], spec["per_layer"]
    else:
        values, wanted = end_to_end(records, setup_s, out["peak_rss_mb"]), spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics,
    }
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": out["python"],
        "numpy": out["numpy"],
        "passes": out["passes"],
        "ops": len(records),
        "failed_frac": len(failures) / len(records),
        "failures": failures[:20],
        "escaped": [[workloads.key(p["argv"]), p["error"] or p["stderr"].strip()]
                    for p in out["probes"] if not workloads.one_line_error(p)],
        "setup_raw_s": setup_raw,
        "bare_start_raw_s": bare_raw,
        "op_raw_seconds": sum(r["seconds"] for r in records),
    }
    return result, record, out


def smoke():
    """Every workload and metric name on a tiny deck; a corrupted reference
    digest must count as a failed op.  Exit status 1 on any problem."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)
    for workload in workloads.WORKLOADS:
        missing = [op for op in workloads.catalogue(workload)
                   if workloads.key(op["argv"]) not in recorded[workload]]
        workloads.deck(workload, 1, 0)   # every stratum's pool holds its count
        if missing:
            problems.append(f"{workload}: {len(missing)} catalogue ops lack a reference outcome")
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, record, out = measure(workload, 1, 0, trace, per_stratum=1, setup_pairs=1)
            print(json.dumps({"record": record}))
            print(json.dumps(result))
            if set(result["metrics"]) != {m["name"] for m in spec[key]}:
                problems.append(f"{workload} trace {trace}: metric names differ")
            if not result["correct"]:
                problems.append(f"{workload} trace {trace}: {result['failed']} ops failed")
        reference = {workloads.key(r["argv"]): [r["rc"], r["digest"]] for r in out["records"]}
        first = out["records"][0]
        reference[workloads.key(first["argv"])][1] = "corrupted"
        failed = check(out["records"], reference)
        if not failed:
            problems.append(f"{workload}: a corrupted reference digest went unnoticed")
        frac = len(failed) / len(out["records"])
        print(f"{workload}: corrupted digest gives failed_frac {frac:.3f}")
    for problem in problems:
        print("SMOKE FAIL:", problem)
    print("smoke:", "FAIL" if problems else "OK")
    return 1 if problems else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "lacunary", "cli.py")):
        print(f"error: no lacunary sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        p.error("--workload is required")
    result, record, _ = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
