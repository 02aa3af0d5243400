"""Ultimate-periodicity detection on finite sequence prefixes."""

from __future__ import annotations


def detect_ultimate_period(seq, max_period: int, max_preperiod: int):
    """Smallest (preperiod_length, period_tuple) consistent with the whole
    prefix, or None if no period <= max_period with preperiod <= max_preperiod
    fits.  Periods are tried in increasing length; for each, the minimal
    preperiod is taken.  A claimed period is checked against every available
    term, never just a window.

    Requires len(seq) >= max_preperiod + 2 * max_period so that a full period
    is compared against its successor beyond any allowed preperiod.
    """
    seq = list(seq)
    n = len(seq)
    if max_period < 1:
        raise ValueError("max_period must be positive")
    if max_preperiod < 0:
        raise ValueError("max_preperiod must be nonnegative")
    if n < max_preperiod + 2 * max_period:
        raise ValueError(
            f"insufficient data: need {max_preperiod + 2 * max_period} terms, have {n}"
        )
    for p in range(1, max_period + 1):
        mismatch = -1
        for i in range(n - p - 1, -1, -1):
            if seq[i] != seq[i + p]:
                mismatch = i
                break
        r = mismatch + 1
        if r <= max_preperiod:
            return (r, tuple(seq[r:r + p]))
    return None
