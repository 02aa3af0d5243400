"""The one JSON layout against its oracle, json.dumps(..., sort_keys=True,
indent=2), and the chunked row formatter against one %-format per row."""

import json
from unittest import mock

import numpy as np
from hypothesis import given, strategies as st

from lacunary import jsontext
from lacunary.jsontext import SLOT, TEXT, document, layout, rows, separator, template


def _dumps(value, level=0) -> str:
    """The oracle: json.dumps of value as it reads nested level deep (JSON
    text has no raw newline inside a string, so each line break is one)."""
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + "  " * level)


# quotes, backslashes, braces, percent signs, control characters other than
# the slot markers, and non-ASCII (a surrogate pair included)
_TEXT = st.text(st.sampled_from('ab{}%"\\\x02\x1f\n\t\x7fé \U0001d11e'), max_size=6)
_SCALAR = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _TEXT)


def _containers(inner):
    return (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
            | st.dictionaries(_TEXT, inner, max_size=4))


_VALUE = st.recursive(_SCALAR, _containers, max_leaves=12)
# long lists of strings take the layout's one all-str branch
_VALUES = _VALUE | st.lists(_TEXT, min_size=50, max_size=300)
_LEVEL = st.integers(0, 4)


@given(_VALUES, _LEVEL)
def test_layout_matches_json_dumps(value, level):
    assert layout(value, level) == _dumps(value, level)


def _slots(skeleton, depth=0):
    """(marker, depth) of each slot of skeleton in the order json.dumps with
    sort_keys meets them."""
    if skeleton in (SLOT, TEXT):
        yield skeleton, depth
    elif isinstance(skeleton, dict):
        for key in sorted(skeleton):
            yield from _slots(skeleton[key], depth + 1)
    elif isinstance(skeleton, (list, tuple)):
        for entry in skeleton:
            yield from _slots(entry, depth + 1)


def _filled(skeleton, values):
    """skeleton with each slot replaced by the next of values."""
    if skeleton in (SLOT, TEXT):
        return next(values)
    if isinstance(skeleton, dict):
        return {key: _filled(skeleton[key], values) for key in sorted(skeleton)}
    if isinstance(skeleton, (list, tuple)):
        return [_filled(entry, values) for entry in skeleton]
    return skeleton


_SKELETON = st.recursive(_SCALAR | st.sampled_from([SLOT, TEXT]), _containers, max_leaves=12)
# text that needs no escaping, as a TEXT slot takes it: decimal numerals
_PLAIN = st.from_regex(r"-?[0-9]+(/[0-9]+)?", fullmatch=True)


@given(_SKELETON, _LEVEL, st.data())
def test_template_matches_json_dumps(skeleton, level, data):
    values, args = [], []
    for marker, depth in _slots(skeleton):
        if marker == SLOT:
            values.append(data.draw(_VALUE))
            args.append(_dumps(values[-1], level + depth))
        else:
            values.append(data.draw(_PLAIN))
            args.append(values[-1])
    want = _dumps(_filled(skeleton, iter(values)), level)
    assert template(skeleton, level) % tuple(args) == want


_CHUNK = st.integers(1, 5)


@given(st.dictionaries(_TEXT, _VALUE, max_size=4),
       st.dictionaries(_TEXT, st.lists(_VALUE, max_size=5) | st.lists(_TEXT, max_size=300),
                       max_size=3),
       _CHUNK)
def test_document_matches_json_dumps(values, lists, chunk):
    lists = {k: v for k, v in lists.items() if k not in values}
    with mock.patch.object(jsontext, "CHUNK", chunk):
        pieces = list(document(values, {
            k: rows("%s", separator(1), ([_dumps(e, 2) for e in v],)) for k, v in lists.items()
        }))
    assert all(isinstance(p, str) for p in pieces)
    assert "".join(pieces) == _dumps({**values, **lists}) + "\n"


# forms of one to three slots, with braces, a %+d and a literal %% among them
_FORMS = st.sampled_from(["%d", '"%d"', "%d,%d\n", "{%s: %+d}%%", "  %d: out %+d, 0 -> %d"])


@given(_FORMS, st.sampled_from(["", ",", ", ", separator(1)]), st.data(), _CHUNK)
def test_rows_match_one_format_per_row(form, sep, data, chunk):
    width = form.count("%") - 2 * form.count("%%")
    n = data.draw(st.integers(0, 12))
    # lists, a range column as the tables' index, int64 arrays, or the rows
    # of one 2-D array as an automaton's transposed table
    kind = data.draw(st.sampled_from(["lists", "range", "arrays", "table"]))
    bound = 1 << 62 if kind in ("arrays", "table") else 1 << 70
    columns = tuple(data.draw(st.lists(st.integers(-bound, bound), min_size=n, max_size=n))
                    for _ in range(width))
    want = sep.join(form % row for row in zip(*columns))
    if kind == "range":
        start = data.draw(st.integers(-bound, bound))
        columns = (range(start, start + n),) + columns[1:]
        want = sep.join(form % row for row in zip(*columns))
    elif kind == "arrays":
        columns = tuple(np.array(c, dtype=np.int64) for c in columns)
    elif kind == "table":
        columns = np.array(columns, dtype=np.int64).reshape(width, n)
    with mock.patch.object(jsontext, "CHUNK", chunk):
        pieces = list(rows(form, sep, columns))
    assert len(pieces) == -(-n // chunk)
    assert "".join(pieces) == want
