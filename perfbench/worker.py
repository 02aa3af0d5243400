"""The workload process: one client running ops in a closed loop.

It imports lacunary.cli and builds its parser first of all, so that READY
marks the end of set-up in a fresh interpreter.  Then it runs whole passes
of the seeded deck, each op a call of ``lacunary.cli.main(argv)`` with
stdout and stderr captured, until another pass would overrun --seconds
(but at least two).
With --trace 1 it runs pass 0 only, each op once untraced and once traced.
It writes one JSON document to stdout; run.py checks and summarises it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --setup-only
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import lacunary.cli  # noqa: E402

lacunary.cli.build_parser()
READY = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from importlib import metadata  # noqa: E402

import calibrate  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
CALIBRATE_EVERY_S = 0.2     # op time between two calibration samples


def _drop_seconds(value):
    if isinstance(value, dict):
        return {k: _drop_seconds(v) for k, v in value.items() if k != "seconds"}
    if isinstance(value, list):
        return [_drop_seconds(v) for v in value]
    return value


def digest(argv, text):
    """First 16 hex digits of the SHA-256 of stdout.  verify --json is
    hashed without its per-check timings."""
    if argv[0] == "verify":
        try:
            text = json.dumps(_drop_seconds(json.loads(text)), sort_keys=True)
        except ValueError:      # not JSON: hashed as printed
            pass
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_op(argv, main=lacunary.cli.main):
    """One CLI call with stdout and stderr captured; only the call is timed."""
    out, err = io.StringIO(), io.StringIO()
    rc = error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except Exception as exc:  # an escape is recorded and the loop goes on
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    text = out.getvalue()
    return {
        "argv": argv,
        "rc": rc,
        "error": error,
        "seconds": seconds,
        "bytes": len(text.encode()),
        "digest": digest(argv, text),
        "stderr": err.getvalue()[-1000:],
    }


def _cache_clearers():
    """cache_clear of every functools cache in the package: a CLI call
    starts in a fresh process, so each op starts with empty caches."""
    found = []
    for name, mod in list(sys.modules.items()):
        if name == "lacunary" or name.startswith("lacunary."):
            for value in vars(mod).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear) and clear not in found:
                    found.append(clear)
    return found


class Scaler:
    """Adds "scaled", the op time in reference seconds, to each record.
    A calibration sample is taken after every CALIBRATE_EVERY_S of op time;
    the ops between samples j and j+1 are scaled by the median of samples
    j-1 to j+2, which damps the noise of single samples and still follows
    drift within a second."""

    def __init__(self, first):
        self.samples = [first]
        self.batches = [[]]     # batches[j]: records between samples j and j+1
        self.since = 0.0

    def add(self, record):
        self.batches[-1].append(record)
        self.since += record["seconds"]
        if self.since >= CALIBRATE_EVERY_S:
            self.sample()

    def sample(self):
        self.samples.append(calibrate.sample())
        self.batches.append([])
        self.since = 0.0

    def finish(self):
        for j, batch in enumerate(self.batches):
            factor = calibrate.REFERENCE_S / statistics.median(self.samples[max(0, j - 1):j + 3])
            for record in batch:
                record["scaled"] = record["seconds"] * factor


def _heap_trimmer():
    """Make freed heap go back to the system between ops, as if each op ran
    in a fresh process; returns malloc_trim, or None off glibc."""
    try:
        return ctypes.CDLL(None).malloc_trim
    except AttributeError:
        return None


def run(args):
    first = calibrate.sample()
    clearers = _cache_clearers()
    trim = _heap_trimmer()

    def one(argv, main=lacunary.cli.main):
        # A CLI call starts in a fresh process: empty caches, no garbage,
        # and no freed heap kept from earlier calls.
        for clear in clearers:
            clear()
        gc.collect()
        if trim is not None:
            trim(0)
        return run_op(argv, main)

    records = []
    passes = 0
    layers = None
    if args.trace:
        import tracing

        # Pass 0 once more, each op untraced and traced in turn; which of the
        # two goes first alternates, so warm-up favours neither.
        tracer = tracing.Tracer()
        ops = workloads.deck(args.workload, args.seed, 0, args.per_stratum)
        for i, op in enumerate(ops):
            for traced in ((True, False) if i % 2 else (False, True)):
                if traced:
                    tracer.enable()
                    rec = one(op["argv"], lambda argv, i=i: tracer.main(i, argv))
                    tracer.disable()
                else:
                    rec = one(op["argv"])
                records.append(dict(rec, usage=op["usage"], stratum=op["stratum"], traced=traced))
        passes = 1
    else:
        elapsed = 0.0
        scaler = Scaler(first)
        while True:
            start = time.perf_counter()
            for op in workloads.deck(args.workload, args.seed, passes, args.per_stratum):
                records.append(dict(one(op["argv"]), usage=op["usage"], stratum=op["stratum"],
                                    traced=False))
                scaler.add(records[-1])
            scaler.sample()
            took = time.perf_counter() - start
            elapsed += took
            passes += 1
            # At least two passes, so that every run has 100 ops or more.
            if passes >= 2 and elapsed + took > args.seconds:
                break
        scaler.finish()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    probes = [one(argv) for argv in workloads.PROBES[args.workload]]
    escaped = sum(not workloads.one_line_error(p) for p in probes)

    if args.trace:
        traced = [r for r in records if r["traced"]]
        untraced = [r for r in records if not r["traced"]]
        layers = tracing.layer_metrics(
            tracer, ops,
            output_bytes=sum(r["bytes"] for r in traced),
            traced_s=sum(r["seconds"] for r in traced),
            untraced_s=sum(r["seconds"] for r in untraced),
            escaped=escaped,
        )
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl"))

    return {
        "passes": passes,
        "records": records,
        "probes": probes,
        "peak_rss_mb": peak_rss_mb,
        "layers": layers,
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
    }


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--per-stratum", type=int, default=None)
    args = p.parse_args()
    if args.setup_only:
        print(json.dumps({"ready": READY}))
        return
    if args.workload is None:
        p.error("--workload is required")
    print(json.dumps(run(args)))


if __name__ == "__main__":
    main()
