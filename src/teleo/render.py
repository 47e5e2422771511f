"""Text rendering shared by the CLI and the golden tests: aligned plain-text
tables and the ``--json`` document writer."""

from __future__ import annotations

import itertools
import json
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from typing import Iterable, Sequence


def render_table(columns: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Align values under a header row; two spaces between columns.

    The output is byte-stable: same columns and rows, same text.
    """
    rows = [[str(v) for v in row] for row in rows]
    widths = [len(c) for c in columns]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    for row in [list(columns)] + rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def render_json(doc: object) -> str:
    """Exactly ``json.dumps(doc, indent=2, sort_keys=True)``, but faster.

    CPython serves an indented ``json.dumps`` with its pure-Python encoder,
    one call per value.  The documents here are mostly tables: lists whose
    items share one shape, either lists of one length or dicts with the same
    keys.  Such a list gets one ``%``-template for all its items, with ``%d``
    for a column of plain ints, so most values cost a C-level format instead
    of a Python call.  Its other columns are encoded column by column: one
    ``map`` for a column of strings, bools or Nones, and each distinct value
    once for a column of flat lists (``_column``).  Everything else recurses,
    and a value of no type named here goes to ``json.dumps``, which also
    raises its ``TypeError`` for a value JSON cannot hold.
    """
    return _encode(doc, 0)


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
        if not value:
            return "{}"
        pairs = sorted(value.items())
        items = [f"{_key(k)}: {_encode(v, level + 1)}" for k, v in pairs]
        return _wrap("{}", items, level)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        rows = _table(value, level + 1)
        if rows is None:
            rows = [_encode(v, level + 1) for v in value]
        return _wrap("[]", rows, level)
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
        key = json.dumps(key)
    return _quote(key)


def _table(items: Sequence[object], level: int) -> list[str] | None:
    """The rendered items of a list whose items share one shape, written at
    indent ``level`` through one template; None for any other list."""
    kind = type(items[0])
    if len(set(map(type, items))) != 1:
        return None
    if kind is dict:
        keys = items[0].keys()
        same = map(keys.__eq__, map(dict.keys, items))
        if set(map(type, keys)) != {str} or not all(same):
            return None
        keys = sorted(keys)
        # a key is template text, so its own % signs are escaped
        labels = [_quote(k).replace("%", "%%") + ": " for k in keys]
        columns = [list(map(itemgetter(k), items)) for k in keys]
    elif kind is list or kind is tuple:
        if len(set(map(len, items))) != 1:
            return None
        labels = [""] * len(items[0])
        columns = zip(*items)
    else:
        return None
    if not labels:
        return None
    fields, values = [], []
    for label, column in zip(labels, columns):
        kinds = set(map(type, column))
        if kinds == {int}:  # bools are not ints here
            fields.append(label + "%d")
            values.append(column)
        else:
            fields.append(label + "%s")
            values.append(_column(column, kinds, level + 1))
    template = _wrap("{}" if kind is dict else "[]", fields, level)
    return list(map(template.__mod__, zip(*values)))


# item types that equal no item of another of them, so that a tuple of them
# is a dict key that never stands for a differently written value
_KEYABLE = {str, int, type(None)}


def _column(column: Sequence[object], kinds: set[type], level: int) -> list[str]:
    """The rendered values of one table column whose values have the types
    ``kinds``, written at indent ``level``.

    A column of one scalar type is written by one C-level ``map``; a column
    of lists and tuples whose items are all strings, ints or None is written
    one distinct value at a time.  Any other column goes value by value.
    """
    if kinds == {str}:
        return list(map(_quote, column))
    if kinds == {bool}:
        return list(map(("false", "true").__getitem__, column))
    if kinds == {type(None)}:
        return ["null"] * len(column)
    if kinds <= {list, tuple}:
        items = set(map(type, itertools.chain.from_iterable(column)))
        if items <= _KEYABLE:
            keys = list(map(tuple, column))
            written = {key: _encode(key, level) for key in set(keys)}
            return list(map(written.__getitem__, keys))
    return [_encode(v, level) for v in column]
