"""The cost bounds CI holds the CLI to: one table, one runner.

    python3 tools/bounds.py

Each row of ROWS runs once, in a fresh interpreter that imports the
package from this checkout's src/, with stdout sent to /dev/null.  The row
fails when the run outlives its timeout (it is then killed), ends with an
exit code other than the expected one, peaks above its peak-MB bound, or,
for a refusal, prints anything but its one stderr line.  Peak memory is the
child's own ru_maxrss, read by os.wait4 as the child is reaped.

Prints one line per row (name, exit code, seconds, peak MB), then the
child's stderr indented under it.  Every row runs even after a failure;
then each failed row is named and the exit code is 1.
"""

from __future__ import annotations

import os
import signal
import sys
import tempfile
import time
from typing import NamedTuple

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# The child's program: lacunary.cli.main over the row's argv.
CLI = "import sys, lacunary.cli; sys.exit(lacunary.cli.main(sys.argv[1:]))"

# build_dfao, or signed_dfao for the tag "signed", timed alone, in-process:
# imports and output do not count against the bound.  argv is the omega,
# the tag, the bound in seconds and, for "signed", the eps spec.
BUILD = """
import sys, time
import numpy
from lacunary.automaton import build_dfao, signed_dfao
from lacunary.bits import parse_epsilon_spec
from lacunary.dyadic import parse_omega
w, tag, bound = parse_omega(sys.argv[1]), sys.argv[2], float(sys.argv[3])
eps = parse_epsilon_spec(sys.argv[4]) if tag == "signed" else None
start = time.perf_counter()
d = signed_dfao(w, eps) if tag == "signed" else build_dfao(w, tag)
took = time.perf_counter() - start
print(f'{len(d)} states in {took:.2f} s', file=sys.stderr)
sys.exit(took > bound)
"""


class Row(NamedTuple):
    name: str
    argv: tuple[str, ...]
    timeout: float              # wall seconds
    peak_mb: float | None = None
    exit: int = 0
    stderr: str | None = None   # the one line a refusal prints
    code: str = CLI


ROWS = [
    # Stern tables cost their output, not their start (10^5 terms from n = 10^15).
    Row("stern-u-from-1e15",
        ("stern", "u", "--from", "1000000000000000", "--to", "1000000000100000"), 60),
    # Stern tables past int64 cost their output too (10^5 terms from n = 2^100,
    # Python-int arrays).
    Row("stern-u-from-2^100",
        ("stern", "u", "--from", "1267650600228229401496703205376",
         "--to", "1267650600228229401496703305376"), 60),
    # Carlitz tables cost their rows, not their start (10^5 values from n = 10^15).
    Row("carlitz-from-1e15",
        ("stern", "carlitz", "--from", "1000000000000000", "--to", "1000000000100000"), 10),
    # Stern tables are written as they are formed (2,000,001 values as JSON).
    Row("stern-u-json-2e6", ("stern", "u", "--from", "0", "--to", "2000000", "--json"), 60),
    # The largest --csv table is written a chunk of rows at a time (2^22 rows).
    Row("stern-u-csv-2^22", ("stern", "u", "--from", "0", "--to", "4194303", "--csv"), 30,
        peak_mb=100),
    # cf --json is written as it is formed (2^14 window).
    Row("cf-json-2^14", ("cf", "--precision", "16384", "--json"), 60, peak_mb=150),
    # cf text costs its quotients, a shared SparsePoly per distinct one (2^20
    # window, 524,289 quotients).
    Row("cf-text-2^20", ("cf", "--precision", "1048576"), 10, peak_mb=120),
    # Automaton cost follows the machine, not a hidden factor (200,007 states
    # minimised to 100,005).
    Row("automaton-g-minimize",
        ("automaton", "build", "--omega", "rat:1/100003", "--tag", "g", "--minimize"), 60),
    # Automaton JSON costs its states (200,007 states).
    Row("automaton-g-json",
        ("automaton", "build", "--omega", "rat:1/100003", "--tag", "g", "--export", "json"), 30,
        peak_mb=100),
    # A whole automaton is two integer arrays, and a minimized one forms no
    # label text unless exported (2,000,007 states minimised to 1,000,005).
    Row("automaton-f-minimize-1e6",
        ("automaton", "build", "--omega", "rat:1/1000003", "--tag", "f", "--minimize"), 45,
        peak_mb=375),
    # A kernel automaton's first pass is numbered in closed form, not state by
    # state (2,000,007 states built in at most 1.2 s) ...
    Row("build-dfao-f-1e6-in-1.2s", ("rat:1/1000003", "f", "1.2"), 20, code=BUILD),
    # ... and the CLI lists them.
    Row("automaton-f-1e6", ("automaton", "build", "--omega", "rat:1/1000003", "--tag", "f"), 10),
    # A signed product is numbered a level at a time, not state by state
    # (8,000,034 states built in at most 3 s) ...
    Row("signed-dfao-1e6-in-3s", ("rat:1/1000003", "signed", "3", "period:0,1"), 30, code=BUILD),
    # ... and the CLI lists them, holding no Python object per state.
    Row("automaton-signed-1e6",
        ("automaton", "build", "--omega", "rat:1/1000003", "--tag", "signed",
         "--eps", "period:0,1"), 10, peak_mb=500),
    # Automaton verify costs --upto, not the period (1,000,003 numerators).
    Row("automaton-verify-1e6",
        ("automaton", "verify", "--omega", "rat:1/1000003", "--upto", "16"), 10, peak_mb=100),
    # A whole automaton refuses an orbit over 2^20 numerators before any
    # closure (1,048,589).
    Row("automaton-orbit-cap", ("automaton", "build", "--omega", "rat:1/1048589"), 5,
        peak_mb=90, exit=2,
        stderr="error: the shift orbit of 1/1048589 has more than 1048576 numerators, "
               "the cap of a whole automaton"),
    # A-number cost follows its output, not its term count (2^24 terms).
    Row("anumber-int0-2^24", ("qseries", "anumber", "--omega", "int:0", "--terms", "16777216"),
        20),
    # anumber --digits is capped before the sum (2^24 terms of rat:1/3 take
    # over 100 s).
    Row("anumber-digits-cap",
        ("qseries", "anumber", "--omega", "rat:1/3", "--terms", "16777216", "--digits", "4097"),
        5, exit=2, stderr="error: --digits must be at most 4096 (2^12), got 4097"),
    # The A-number sum is reduced already, so it takes no gcd (2^20 terms of rat:1/3).
    Row("anumber-1/3-2^20", ("qseries", "anumber", "--omega", "rat:1/3", "--terms", "1048576"),
        10),
    # Relation search costs its truncation, not its square (2^20 terms of Q_{1/3}).
    Row("algrel-1/3-2^20", ("automaton", "algrel", "--omega", "rat:1/3", "--trunc", "1048576"),
        60),
]


class Run(NamedTuple):
    exit: int | None            # None when killed at the timeout
    seconds: float
    peak_mb: float
    stderr: str


def run(row: Row) -> Run:
    """Runs row's child to its end or its timeout and reaps it with
    os.wait4, whose rusage is that child's alone (RUSAGE_CHILDREN would
    keep the largest peak of every earlier row)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-c", row.code, *row.argv]
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, env, file_actions=[
            (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
        ])
        while True:
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done:
                code = os.waitstatus_to_exitcode(status)
                break
            if time.perf_counter() - start > row.timeout:
                os.kill(pid, signal.SIGKILL)
                _, _, usage = os.wait4(pid, 0)
                code = None
                break
            time.sleep(0.005)
        seconds = time.perf_counter() - start
        err.seek(0)
        text = err.read().decode(errors="replace")
    return Run(code, seconds, usage.ru_maxrss / 1024, text)


def problems(row: Row, result: Run) -> list[str]:
    """What makes result break row's bounds; empty when it keeps them."""
    found = []
    if result.exit is None:
        found.append(f"killed at the {row.timeout:g} s timeout")
    elif result.exit != row.exit:
        found.append(f"exit {result.exit}, expected {row.exit}")
    if row.peak_mb is not None and result.peak_mb > row.peak_mb:
        found.append(f"peak {result.peak_mb:.0f} MB over {row.peak_mb:g} MB")
    if row.stderr is not None and result.stderr.splitlines() != [row.stderr]:
        found.append(f"stderr is not the one line {row.stderr!r}")
    return found


def main(rows=ROWS) -> int:
    failed = []
    for row in rows:
        result = run(row)
        found = problems(row, result)
        shown = "killed" if result.exit is None else result.exit
        print(f"{row.name}: exit {shown}, {result.seconds:.2f} s, {result.peak_mb:.0f} MB"
              + "".join(f"; FAIL: {p}" for p in found), flush=True)
        for line in result.stderr.splitlines():
            print(f"    {line}")
        if found:
            failed.append(row.name)
    if failed:
        print(f"{len(failed)}/{len(rows)} rows failed: {', '.join(failed)}")
        return 1
    print(f"{len(rows)}/{len(rows)} rows within bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
