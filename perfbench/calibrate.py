"""Machine-speed calibration.

On a shared 2-CPU cloud VM the speed of a fixed piece of Python drifts by
15-40% over a few minutes with the load of other tenants.  Reported times
are therefore scaled by a reference that drifts with the machine but not
with lacunary, so that a change to lacunary shows in full and drift cancels.
Raw times are kept in the run record.

* Op times: a fixed pure-Python kernel that uses nothing from lacunary is
  timed between stretches of work (``sample``), and a time t is reported as
  t * REFERENCE_S / k, with k the median of the kernel times around it
  (worker.Scaler).
* Set-up times: the kernel does not follow the cost of starting a process
  (exec, page faults, reading files); scaled by it, the set-up medians of
  eight runs spread almost three times as much as unscaled (README.md).
  Each set-up is instead paired with the start of a bare interpreter just
  before it (``BARE``), and the median set-up time m_s is reported as
  m_s * START_REFERENCE_S / m_b, with m_b the median bare start
  (run.setup_seconds).
"""

from __future__ import annotations

import time

# About the kernel's time and a bare interpreter's start on a 2-CPU x86-64
# cloud VM with Python 3.11; they only fix the scale of the reported numbers.
REFERENCE_S = 0.004
START_REFERENCE_S = 0.04

# A bare interpreter: it prints the time at which it is ready, as worker.py
# --setup-only does once lacunary.cli is imported.
BARE = "import time; print(time.monotonic())"


def _kernel():
    # Integer arithmetic, dict updates, tuple and list building and calls:
    # the mix of the package's inner loops.
    counts = {}
    rows = []
    x = 1
    for i in range(12000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        key = x & 0x3FF
        counts[key] = counts.get(key, 0) + 1
        rows.append((key, i & 7))
    return len(counts) + len(rows)


def sample():
    """Best of three kernel times, in seconds."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best
