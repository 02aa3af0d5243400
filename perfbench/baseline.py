"""Re-measure the baseline points listed in ROADMAP.md, one at a time.

    python3 perfbench/baseline.py

Prints one line per point: cf_expand and convergents for the Mersenne
series at windows 2^12 and 2^14, build_dfao at 1/4099 and 1/10007,
Dyadic.from_rational(1, 1000003) with its traced peak allocation, and the
import time of lacunary.cli in fresh interpreters.  BASELINE.md compares
the results with ROADMAP.md.  Takes about 40 s.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from lacunary.automaton import build_dfao, orbit  # noqa: E402
from lacunary.bits import EpsilonSpec, LambdaSpec  # noqa: E402
from lacunary.contfrac import build_F, cf_expand, convergents  # noqa: E402
from lacunary.dyadic import Dyadic  # noqa: E402


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def main():
    for window in (1 << 12, 1 << 14):
        f = build_F(LambdaSpec.mersenne(), EpsilonSpec.zero(), window)
        cf, t_cf = timed(cf_expand, f)
        _, t_conv = timed(convergents, cf)
        print(f"cf_expand mersenne window 2^{window.bit_length() - 1}: {t_cf:.2f} s, "
              f"{len(cf.quotients)} quotients; convergents {t_conv:.2f} s")
    for den in (4099, 10007):
        w = Dyadic.from_rational(1, den)
        (pre, cyc), t_orbit = timed(orbit, w)
        d, t_build = timed(build_dfao, w)
        print(f"build_dfao 1/{den}: period {len(cyc)}, {len(d)} states, {t_build:.2f} s "
              f"(orbit alone {t_orbit:.2f} s)")
    tracemalloc.start()
    w, t_rat = timed(Dyadic.from_rational, 1, 1000003)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(f"from_rational(1, 1000003): {t_rat:.2f} s under tracemalloc, "
          f"peak {peak / 2**20:.0f} MiB, {len(w.per)} period digits")
    _, t_rat = timed(Dyadic.from_rational, 1, 1000003)
    print(f"from_rational(1, 1000003): {t_rat:.2f} s untraced")
    code = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, 'src'); "
            "import lacunary.cli; print(time.perf_counter() - t)")
    samples = [float(subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                                    capture_output=True, text=True).stdout)
               for _ in range(7)]
    code_np = "import time; t = time.perf_counter(); import numpy; print(time.perf_counter() - t)"
    np_samples = [float(subprocess.run([sys.executable, "-c", code_np], check=True,
                                       capture_output=True, text=True).stdout)
                  for _ in range(7)]
    print(f"import lacunary.cli: median {statistics.median(samples) * 1000:.0f} ms of 7, "
          f"numpy alone {statistics.median(np_samples) * 1000:.0f} ms")


if __name__ == "__main__":
    main()
