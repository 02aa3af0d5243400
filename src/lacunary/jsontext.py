"""The one JSON layout of the package: the text of json.dumps(value,
sort_keys=True, indent=2), without the pure-Python encoder indent selects."""

import json
from json.encoder import encode_basestring_ascii as encode

#: Template slots: a SLOT takes JSON text, a TEXT a str() put inside quotes
#: unescaped.  No other string of a skeleton may hold either.
SLOT, TEXT = "\x00", "\x01"


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


def template(skeleton, level: int = 0):
    """The str.format of layout(skeleton, level), with a slot for each SLOT
    and TEXT of skeleton in the order the layout meets them."""
    text = layout(skeleton, level).replace("{", "{{").replace("}", "}}")
    return text.replace(encode(SLOT), "{}").replace(encode(TEXT)[1:-1], "{}").format


def document(values: dict, lists: dict):
    """The text print(layout({**values, **lists})) writes, a piece at a time:
    lists[key] yields its list's entries as layout(entry, 2) gives them, drawn
    only as the pieces are, one piece per entry.  No key may hold SLOT or TEXT."""
    keys = sorted({**values, **lists})
    frame = template(dict.fromkeys(keys, SLOT))(*[SLOT] * len(keys)).split(SLOT)
    head, tail = template([SLOT], 1)(SLOT).split(SLOT)
    for key, piece in zip(keys, frame):
        yield piece
        # a key of values, like an empty list, has no entries
        entries = iter(lists.get(key, ()))
        first = next(entries, None)
        if first is None:
            yield layout(values.get(key, []), 1)
        else:
            yield head + first
            yield from map(separator(1).__add__, entries)
            yield tail
    yield frame[-1] + "\n"
