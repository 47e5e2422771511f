"""Text rendering shared by the CLI and the golden tests: aligned plain-text
tables and the ``--json`` document writer.  The writer takes tables only as
``Records`` of columns, and lays out every item of one from one skeleton."""

from __future__ import annotations

from _json import encode_basestring_ascii as _quote  # json.encoder's own
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, repeat


def render_table(columns: Sequence[str], rows: Iterable[Sequence[int]]) -> str:
    """Align world-table levels under a header row; two spaces between columns.

    Each column is as wide as its name or its widest distinct level, and
    every row goes through one ``%``-template.  The output is byte-stable:
    same columns and rows, same text.
    """
    rows = list(map(tuple, rows))
    levels = [set(column) for column in zip(*rows)] or [()] * len(columns)
    widths = [max([len(name), *map(len, map(str, column))])
              for name, column in zip(columns, levels)]
    template = "  ".join(f"%-{width}d" for width in widths)
    head = "  ".join(map(str.ljust, columns, widths))
    return "\n".join(map(str.rstrip, [head, *map(template.__mod__, rows)])) + "\n"


class Records:
    """A list of dicts with the same keys (with ``keys`` None, of lists), held
    as its ``columns``, each of length ``size``, so no dict is built."""

    def __init__(self, keys: Sequence[str] | None, columns: Iterable[Sequence], size: int):
        self.keys = None if keys is None else tuple(keys)
        self.columns = list(columns)
        self.size = size


def json_chunks(value: object, level: int = 0) -> Iterator[str]:
    """Exactly ``json.dumps(value, indent=2, sort_keys=True)``, with each
    ``Records`` written as its list of dicts (or of lists), but faster, in
    pieces written at indent ``level``: each member of a dict on its own,
    and any other value in one piece.

    CPython serves an indented ``json.dumps`` with its pure-Python encoder,
    one call per value.  The documents here are mostly ``Records`` tables,
    written by ``_table`` from one item skeleton: one strided fill per
    column, or one join of the skeleton with the rendered columns, so most
    values cost no Python call.  Everything else recurses, and a value of no
    type named here goes to ``json.dumps``, which also raises its
    ``TypeError`` for a value JSON cannot hold.
    """
    if not isinstance(value, dict) or not value:
        yield _encode(value, level)
        return
    inner = "\n" + "  " * (level + 1)
    head = "{" + inner
    for key, item in sorted(value.items()):
        yield f"{head}{_key(key)}: "
        yield from json_chunks(item, level + 1)
        head = "," + inner
    yield "\n" + "  " * level + "}"


_SCALARS = {
    str: _quote,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _encode(value: object, level: int) -> str:
    """``value`` written at indent ``level``; its items go one level deeper."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    if isinstance(value, dict):
        return "".join(json_chunks(value, level)) if value else "{}"
    if isinstance(value, Records):
        return _table(value, level) if value.size else "[]"
    if isinstance(value, (list, tuple)):
        return _wrap("[]", [_encode(v, level + 1) for v in value], level) if value else "[]"
    import json  # only the two fallbacks need it, so start-up does without it
    return json.dumps(value)


def _wrap(brackets: str, items: list[str], level: int) -> str:
    """Rendered ``items`` inside ``brackets``, the whole written at indent
    ``level``.  The brackets go onto the first and last items, which the
    list gives up, so the one join is the only copy of the body."""
    inner = "\n" + "  " * (level + 1)
    items[0] = brackets[0] + inner + items[0]
    items[-1] += "\n" + "  " * level + brackets[1]
    return ("," + inner).join(items)


def _key(key: object) -> str:
    """A dict key as ``json`` writes it: non-string scalars become strings."""
    if not isinstance(key, str):
        if key is not None and not isinstance(key, (int, float)):
            raise TypeError(
                "keys must be str, int, float, bool or None, "
                f"not {type(key).__name__}"
            )
        import json
        key = json.dumps(key)
    return _quote(key)


def _table(items: Records, level: int) -> str:
    """A non-empty ``Records`` table written at indent ``level``.

    Its columns are labelled in sorted-key order by their quoted keys and
    ": " (unless it holds lists).  One item's text, split at each column's
    slot, is the skeleton ``pieces``: the separator before the item and the
    first label, each later label, and the item's end.  Bytes columns of
    one-digit levels (a world table's) are one ``_fill``; any other table
    is the pieces interleaved with its rendered columns (``_column``) by
    one join.  Either way ``[`` replaces the first item's separator.
    """
    keys, columns, brackets = items.keys, items.columns, "{}"
    if keys is None:
        labels, brackets = [""] * len(columns), "[]"
    else:
        order = sorted(range(len(keys)), key=keys.__getitem__)
        labels = [_quote(keys[i]) + ": " for i in order]
        columns = list(map(columns.__getitem__, order))
    if not columns:
        return _wrap("[]", [brackets] * items.size, level)
    item = _wrap(brackets, [label + "\0" for label in labels], level + 1)
    pieces = f",\n{'  ' * (level + 1)}{item}".split("\0")
    tail = "\n" + "  " * level + "]"
    if all(type(c) is bytes and not c.translate(None, bytes(range(10))) for c in columns):
        return _fill(pieces, columns, tail)
    rendered = (_column(column, level + 2) for column in columns)
    slots = [*chain.from_iterable(zip(map(repeat, pieces), rendered)), repeat(pieces[-1])]
    return "[" + "".join(chain.from_iterable(zip(*slots)))[1:] + tail


_ASCII_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


def _fill(pieces: Sequence[str], columns: Sequence[bytes], tail: str) -> str:
    """A JSON list of one item per row, each the ASCII ``pieces`` with the
    row's level of each column between two of them, repeated in one buffer;
    each column goes into its slots by one strided assignment, so no row is
    formatted.  ``[`` replaces the first item's separator; ``tail`` ends it."""
    unit = "0".join(pieces).encode()
    buf = bytearray(unit) * len(columns[0])
    slot = -1
    for piece, column in zip(pieces, columns):
        slot += len(piece) + 1
        buf[slot::len(unit)] = column.translate(_ASCII_DIGITS)
    buf[:1] = b"["
    buf += tail.encode()
    return buf.decode()


# item types that equal no item of another of them, so that a tuple of them
# is a dict key that never stands for a differently written value
_KEYABLE = {str, int, type(None)}


def _column(column: Sequence[object], level: int) -> Iterable[str]:
    """The rendered values of one table column, written at indent ``level``.

    Bytes and plain ints (bools are not ints here) are written by
    ``int.__repr__``.  A column of one type among str, bool and None, or of
    tuples whose items are all strings, ints or None (the statements'
    ``given`` sets), is written one distinct value at a time.  Any other
    column, lists included, goes value by value.
    """
    kinds = {int} if type(column) is bytes else set(map(type, column))
    if kinds == {int}:
        return map(int.__repr__, column)
    if len(kinds) == 1 and kinds <= {str, bool, type(None)} or kinds == {tuple} and set(
            map(type, chain.from_iterable(column))) <= _KEYABLE:
        written = {value: _encode(value, level) for value in set(column)}
        return map(written.__getitem__, column)
    return map(_encode, column, repeat(level))
