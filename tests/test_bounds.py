"""tools/bounds.py: the CI bound table and its runner."""

import importlib.util
import os
import re

import pytest

import lacunary.cli

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "bounds.py")
_spec = importlib.util.spec_from_file_location("bounds", _PATH)
bounds = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bounds)

CHEAP = ("stern", "u", "--to", "4")


def test_every_failure_names_its_row_and_every_row_runs(capsys):
    rows = [
        bounds.Row("peak-1mb", CHEAP, 30, peak_mb=1),
        bounds.Row("exit-2-on-success", CHEAP, 30, exit=2),
        bounds.Row("within", CHEAP, 30, peak_mb=500),
        bounds.Row("timeout-0.01s", CHEAP, 0.01),
        bounds.Row("refusal-without-stderr", CHEAP, 30, stderr="error: x"),
    ]
    assert bounds.main(rows) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == ("4/5 rows failed: peak-1mb, exit-2-on-success, "
                         "timeout-0.01s, refusal-without-stderr")
    by_name = {line.split(":")[0]: line for line in lines[:-1]}
    assert list(by_name) == [row.name for row in rows]
    assert "FAIL" not in by_name["within"]
    assert "FAIL: peak" in by_name["peak-1mb"]
    assert "FAIL: exit 0, expected 2" in by_name["exit-2-on-success"]
    assert "exit killed" in by_name["timeout-0.01s"]
    assert "FAIL: stderr" in by_name["refusal-without-stderr"]


def test_a_refusal_row_within_its_bounds(capsys):
    row = bounds.Row("refusal", ("stern", "u", "--from", "0", "--to", "-1"), 30, exit=2,
                     stderr="error: empty range: --from 0 > --to -1")
    assert bounds.main([row]) == 0
    row_line, echoed, summary = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"refusal: exit 2, \d+\.\d\d s, \d+ MB", row_line)
    assert echoed == "    error: empty range: --from 0 > --to -1"
    assert summary == "1/1 rows within bounds"


@pytest.mark.parametrize("row", [r for r in bounds.ROWS if r.code == bounds.CLI],
                         ids=lambda r: r.name)
def test_every_row_argv_parses(row):
    try:
        args = lacunary.cli.build_parser().parse_args(list(row.argv))
    except SystemExit as exc:
        pytest.fail(f"{row.name}: {' '.join(row.argv)} exits {exc.code} in the parser")
    assert args.command == row.argv[0]
