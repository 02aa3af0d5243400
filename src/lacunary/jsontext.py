"""The one JSON layout of the package: the text of json.dumps(value,
sort_keys=True, indent=2), without the pure-Python encoder indent selects;
and the one way a long table is formatted, a chunk of rows per %-format."""

import json
from json.encoder import encode_basestring_ascii as encode

#: Template slots: a SLOT takes JSON text, a TEXT a str() put inside quotes
#: unescaped.  No other string of a skeleton may hold either.
SLOT, TEXT = "\x00", "\x01"

#: Rows per piece of rows(): one piece of a table's text is held at a time.
CHUNK = 1 << 12


def separator(level: int) -> str:
    """The text between two entries of a container nested level deep."""
    return ",\n" + "  " * (level + 1)


def layout(value, level: int = 0) -> str:
    """json.dumps(value, sort_keys=True, indent=2) of a JSON value with str
    keys, as it reads nested level deep."""
    if isinstance(value, str):
        return encode(value)
    if isinstance(value, dict):
        entries = [f"{encode(k)}: {layout(value[k], level + 1)}" for k in sorted(value)]
    elif isinstance(value, (list, tuple)):
        if set(map(type, value)) == {str}:  # an orbit in meta: encoded in C
            entries = map(encode, value)
        else:
            entries = [layout(x, level + 1) for x in value]
    else:
        return json.dumps(value)
    brackets = "{}" if isinstance(value, dict) else "[]"
    body = separator(level).join(entries)
    if not body:
        return brackets
    return f"{brackets[0]}\n{'  ' * (level + 1)}{body}\n{'  ' * level}{brackets[1]}"


def template(skeleton, level: int = 0) -> str:
    """The %-form of layout(skeleton, level): a %s for each SLOT and TEXT of
    skeleton in the order the layout meets them, every other % doubled."""
    text = layout(skeleton, level).replace("%", "%%")
    return text.replace(encode(SLOT), "%s").replace(encode(TEXT)[1:-1], "%s")


def led(sep: str, pieces):
    """The pieces of a text joined by sep, each but the first led by sep, so
    that the pieces written one after another are the whole text."""
    pieces = iter(pieces)
    first = next(pieces, None)
    if first is not None:
        yield first
        yield from map(sep.__add__, pieces)


def rows(form: str, sep: str, columns):
    """The text sep.join(form % row for row in zip(*columns)), a piece of at
    most CHUNK rows at a time, as led(sep, ...) gives it; CHUNK is read when
    rows is called.  The columns are equal-length sequences or numpy arrays,
    a chunk of an array taken as Python scalars by tolist(), or functions
    column(i, j) giving a column's rows i..j-1 as a list, called a chunk at
    a time; the first column is a sequence.  A piece is one %-format, its
    rows' arguments interleaved by slice assignment, so no row costs a
    Python call."""
    return led(sep, _formatted(form, sep, columns, CHUNK))


def _formatted(form: str, sep: str, columns, chunk: int):
    """The pieces of rows(form, sep, columns), chunk rows each, not yet led."""
    width, n = len(columns), len(columns[0])
    full = min(chunk, n)
    whole = sep.join([form] * full)
    for i in range(0, n, chunk):
        m = min(chunk, n - i)
        if width == 1:  # nothing to interleave
            args = _part(columns[0], i, m)
        else:
            args = [None] * (m * width)
            for j, column in enumerate(columns):
                args[j::width] = _part(column, i, m)
        text = whole if m == full else sep.join([form] * m)
        yield text % tuple(args)


def _part(column, i: int, m: int):
    """column[i:i + m], a numpy array's as a list, a function's as
    column(i, i + m)."""
    if callable(column):
        return column(i, i + m)
    part = column[i:i + m]
    return part.tolist() if hasattr(part, "tolist") else part


def document(values: dict, lists: dict):
    """The text print(layout({**values, **lists})) writes, a piece at a time:
    lists[key] yields its list's entries as layout(entry, 2) gives them, in
    pieces as led(separator(1), ...) gives them (rows with that separator
    does), drawn only as the pieces are.  No key may hold SLOT or TEXT."""
    keys = sorted({**values, **lists})
    frame = (template(dict.fromkeys(keys, SLOT)) % ((SLOT,) * len(keys))).split(SLOT)
    head, tail = (template([SLOT], 1) % SLOT).split(SLOT)
    for key, piece in zip(keys, frame):
        yield piece
        # a key of values, like an empty list, has no pieces
        pieces = iter(lists.get(key, ()))
        first = next(pieces, None)
        if first is None:
            yield layout(values.get(key, []), 1)
        else:
            yield head + first
            yield from pieces
            yield tail
    yield frame[-1] + "\n"
