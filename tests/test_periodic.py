"""Ultimate-period detection on finite prefixes."""

import pytest

from lacunary.periodic import detect_ultimate_period


def build(pre, cycle, total):
    out = list(pre)
    while len(out) < total:
        out.extend(cycle)
    return out[:total]


class TestDetect:
    def test_pure_period(self):
        seq = build([], [1, 0, 1], 60)
        assert detect_ultimate_period(seq, 8, 16) == (0, (1, 0, 1))

    def test_preperiod(self):
        seq = build([7, 7, 7, 2], [0, 5], 64)
        assert detect_ultimate_period(seq, 8, 16) == (4, (0, 5))

    def test_minimal_period_wins(self):
        # period 4 pattern that is really period 2
        seq = build([], [3, 1, 3, 1], 48)
        assert detect_ultimate_period(seq, 8, 8) == (0, (3, 1))

    def test_constant(self):
        assert detect_ultimate_period([4] * 40, 4, 8) == (0, (4,))

    def test_none_when_period_exceeds_bound(self):
        seq = build([], list(range(11)), 110)
        assert detect_ultimate_period(seq, 10, 20) is None

    def test_none_when_preperiod_exceeds_bound(self):
        seq = build([9] * 30, [1], 90)
        assert detect_ultimate_period(seq, 4, 8) is None

    def test_aperiodic(self):
        seq = [n.bit_count() & 1 for n in range(120)]
        assert detect_ultimate_period(seq, 8, 30) is None

    def test_insufficient_data(self):
        with pytest.raises(ValueError, match=r"^insufficient data: need 16 terms, have 3$"):
            detect_ultimate_period([1, 2, 3], 4, 8)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            detect_ultimate_period([1] * 50, 0, 8)
        with pytest.raises(ValueError):
            detect_ultimate_period([1] * 50, 4, -1)
