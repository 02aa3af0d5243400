"""B-file parsing and the bundled sequence cross-checks."""

import contextlib
import dataclasses
import re

import pytest

import lacunary.oeis
from lacunary.oeis import PROFILES, check_oeis, fixture_path, parse_bfile


class TestParseBfile:
    def test_basic(self):
        assert parse_bfile("0 1\n1 1\n2 2\n") == [(0, 1), (1, 1), (2, 2)]

    def test_comments_and_blanks(self):
        text = "# header\n\n  \n3 -5\n# trailing\n4 0\n"
        assert parse_bfile(text) == [(3, -5), (4, 0)]

    def test_malformed_extra_field(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_bfile("0 1 junk\n")

    def test_malformed_non_integer(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_bfile("0 x\n")


class TestCheckOeis:
    @pytest.mark.parametrize("seq_id", sorted(PROFILES))
    def test_bundled_fixture_matches(self, seq_id):
        report = check_oeis(seq_id)
        assert report.ok, report.summary()
        assert report.compared > 50
        assert "OK" in report.summary()

    def test_doctored_mismatch_is_located(self):
        text = fixture_path("A002487").read_text()
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        idx, val = lines[7].split()
        lines[7] = f"{idx} {int(val) + 1}"
        report = check_oeis("A002487", bfile_text="\n".join(lines))
        assert not report.ok
        assert report.first_mismatch[0] == int(idx)
        assert report.first_mismatch[1] == int(val) + 1
        assert "MISMATCH" in report.summary()

    def test_limit_truncates(self):
        report = check_oeis("A002487", limit=10)
        assert report.ok and report.compared == 10

    # A002487 from index 0: five entries, then a malformed line
    LATE_JUNK = "0 0\n1 1\n2 1\n3 2\n4 1\n5 three\n"

    def test_limit_stops_before_a_late_malformed_line(self):
        report = check_oeis("A002487", bfile_text=self.LATE_JUNK, limit=5)
        assert report.ok and report.compared == 5

    def test_late_malformed_line_read_without_limit(self):
        with pytest.raises(ValueError, match="malformed"):
            check_oeis("A002487", bfile_text=self.LATE_JUNK)

    def test_malformed_line_within_limit_raises(self):
        with pytest.raises(ValueError, match="malformed"):
            check_oeis("A002487", bfile_text=self.LATE_JUNK, limit=6)
        with pytest.raises(ValueError, match="malformed"):
            check_oeis("A002487", bfile_text="0 0\n1 1 1\n2 1\n", limit=2)

    def test_fixture_read_no_further_than_the_limit(self, monkeypatch):
        lines, drawn = ["# A002487\n", *self.LATE_JUNK.splitlines(keepends=True)], []

        class Fixture:
            """A bundled fixture whose lines are handed out one at a time."""

            def open(self, **kwargs):
                return contextlib.nullcontext(drawn.append(line) or line for line in lines)

        monkeypatch.setattr(lacunary.oeis, "fixture_path", lambda seq_id: Fixture())
        report = check_oeis("A002487", limit=5)
        assert report.ok and report.compared == 5
        assert drawn[-1] == "4 1\n"
        # the newline is not part of the line the message quotes
        with pytest.raises(ValueError, match=re.escape("malformed b-file line: '5 three'")):
            check_oeis("A002487")

    def test_entries_below_min_index_not_counted(self):
        # A078812 starts at index 1: the index-0 line is dropped, and the
        # limit of 2 reaches the entries at 1 and 2 before the junk
        text = "0 999\n1 1\n2 2\njunk\n"
        report = check_oeis("A078812", bfile_text=text, limit=2)
        assert report.ok and report.compared == 2

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError, match="limit must be positive"):
            check_oeis("A002487", limit=-1)

    def test_zero_limit_rejected(self):
        # an empty slice must be blamed on the limit, not on the b-file
        with pytest.raises(ValueError, match="limit must be positive"):
            check_oeis("A002487", limit=0)

    def test_empty_overlap(self):
        with pytest.raises(ValueError, match="empty overlap"):
            check_oeis("A078812", bfile_text="0 1\n")

    @pytest.mark.parametrize("seq_id", sorted(PROFILES))
    def test_index_past_64_bits_rejected(self, seq_id, monkeypatch):
        # refused before any value is computed, also after a valid entry
        prof = PROFILES[seq_id]
        calls = []
        monkeypatch.setitem(PROFILES, seq_id, dataclasses.replace(
            prof, compute=lambda m: calls.append(m) or prof.compute(m)))
        text = f"{prof.min_index} 0\n{1 << 64} 0\n"
        with pytest.raises(ValueError, match=f"b-file index {1 << 64} has more than 64 bits"):
            check_oeis(seq_id, bfile_text=text)
        assert calls == []

    @pytest.mark.parametrize("seq_id", sorted(PROFILES))
    def test_index_of_64_bits_compared(self, seq_id):
        m = (1 << 64) - 1
        report = check_oeis(seq_id, bfile_text=f"{m} 0\n{m} 1\n")
        # the same index with two values: one of them is not ours
        assert report.compared == 2 and not report.ok
        assert report.first_mismatch[0] == m

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="no profile"):
            check_oeis("A000001")

    def test_min_index_respected(self):
        # the triangle with odd lower entries only starts at row index 1
        text = "0 999\n1 1\n"
        report = check_oeis("A078812", bfile_text=text)
        assert report.ok and report.compared == 1
