"""Comparison harness against bundled OEIS b-file snapshots.

Each profile states how an OEIS index m maps onto one of our sequences,
including the index shifts (+1 for two of the signed sequences) and the
row linearization for the three binomial triangles, whose fixture values
are compared through their parity.  Fixtures live in the package's
fixtures/ directory; nothing here touches the network.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from importlib import resources
from itertools import islice
from math import isqrt

from .dyadic import Dyadic, kernel_value
from .stern import alpha, beta, gamma, stern_u


def _bfile_entries(lines):
    """The entries of parse_bfile, one at a time, from an iterable of lines
    with or without their newline: a malformed line raises only when it is
    reached."""
    for raw in lines:
        raw = raw.rstrip("\n")
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"malformed b-file line: {raw!r}")
        try:
            yield int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"malformed b-file line: {raw!r}") from None


def parse_bfile(text: str) -> list:
    """OEIS b-file lines "n a(n)"; '#' comments and blank lines ignored."""
    return list(_bfile_entries(text.splitlines()))


def _triangle(tag: str, first_row: int):
    """m -> kernel_value(n, k, tag) over a triangle read by rows n >=
    first_row, positions k <= n - first_row; its entries are numbered from
    first_row, as the OEIS numbers them."""

    def value(m: int) -> int:
        i = m - first_row
        t = (isqrt(8 * i + 1) - 1) // 2
        return kernel_value(Dyadic.from_int(t + first_row), i - t * (t + 1) // 2, tag)

    return value


_MOD2 = lambda v: v % 2  # noqa: E731
_ID = lambda v: v  # noqa: E731


@dataclass(frozen=True)
class OeisProfile:
    seq_id: str
    description: str
    min_index: int
    compute: object          # m -> our value
    reduce_fixture: object   # fixture value -> comparable value


PROFILES = {
    "A002487": OeisProfile(
        "A002487", "Stern-Brocot diatomic sequence; a(m) = u_{m-1}", 0,
        lambda m: stern_u(m - 1), _ID,
    ),
    "A049347": OeisProfile(
        "A049347", "period-3 sequence 1,-1,0; a(m) = gamma(m)", 0,
        lambda m: gamma(m), _ID,
    ),
    "A005590": OeisProfile(
        "A005590", "a(m) = alpha(m-1), the shifted Thue-Morse convolution", 1,
        lambda m: alpha(m - 1), _ID,
    ),
    "A177219": OeisProfile(
        "A177219", "a(m) = beta(m-1), the mirrored Thue-Morse convolution", 1,
        lambda m: beta(m - 1), _ID,
    ),
    "A168561": OeisProfile(
        "A168561", "triangle C((n+k)/2, k) by rows; parity = half-sum kernel", 0,
        _triangle("f", 0), _MOD2,
    ),
    "A085478": OeisProfile(
        "A085478", "triangle C(n+k, 2k) by rows; parity = even kernel", 0,
        _triangle("g", 0), _MOD2,
    ),
    "A078812": OeisProfile(
        "A078812", "triangle C(n+k, 2k+1) by rows n>=1; parity = odd kernel", 1,
        _triangle("h", 1), _MOD2,
    ),
}


@dataclass(frozen=True)
class CheckReport:
    seq_id: str
    compared: int
    ok: bool
    first_mismatch: object   # None or (index, fixture value, our value)

    def summary(self) -> str:
        if self.ok:
            return f"{self.seq_id}: OK ({self.compared} entries)"
        m, want, got = self.first_mismatch
        return f"{self.seq_id}: MISMATCH at {m}: fixture {want}, computed {got}"


def fixture_path(seq_id: str):
    name = "b" + seq_id[1:] + ".txt"
    return resources.files("lacunary").joinpath("fixtures", name)


def check_oeis(seq_id: str, bfile_text: str | None = None, limit: int | None = None) -> CheckReport:
    """Compare the named sequence against a b-file (the bundled fixture by
    default) over the overlapping index range, or its first limit entries:
    the b-file is parsed no further, and the fixture read line by line no
    further, so a malformed line after them is never seen."""
    if seq_id not in PROFILES:
        raise ValueError(f"no profile for {seq_id}")
    if limit is not None and limit < 1:
        raise ValueError("limit must be positive")
    prof = PROFILES[seq_id]
    with (nullcontext(bfile_text.splitlines()) if bfile_text is not None
          else fixture_path(seq_id).open(encoding="utf-8")) as lines:
        entries = list(islice((e for e in _bfile_entries(lines) if e[0] >= prof.min_index),
                              limit))
    if not entries:
        raise ValueError(f"empty overlap for {seq_id}")
    # the Stern scalars recurse once per binary digit of the index
    for m, _ in entries:
        if m.bit_length() > 64:
            raise ValueError(f"b-file index {m} has more than 64 bits")
    for m, v in entries:
        ours = prof.compute(m)
        if prof.reduce_fixture(v) != ours:
            return CheckReport(seq_id, len(entries), False, (m, v, ours))
    return CheckReport(seq_id, len(entries), True, None)
