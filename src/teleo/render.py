"""Text rendering shared by the CLI and the golden tests: aligned plain-text
tables and the ``--json`` document writer."""

from __future__ import annotations

import itertools
from _json import encode_basestring_ascii as _quote  # json.encoder's own
from typing import Iterable, Iterator, Sequence


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
    """A list of dicts with the same keys, held as the keys and one row of
    values per dict: written as that list, but no dict is built."""

    def __init__(self, keys: Sequence[str], rows: Sequence[Sequence[object]]):
        self.keys, self.rows = tuple(keys), rows

    def __len__(self) -> int:
        return len(self.rows)


def json_chunks(value: object, level: int = 0) -> Iterator[str]:
    """Exactly ``json.dumps(value, indent=2, sort_keys=True)``, with each
    ``Records`` written as its list of dicts, but faster, in pieces written
    at indent ``level``: each member of a dict on its own, and any other
    value in one piece.

    CPython serves an indented ``json.dumps`` with its pure-Python encoder,
    one call per value.  The documents here are mostly tables (``Records``
    and lists of lists of one length), whose rows go through one
    ``%``-template (``_table``), so most values cost a C-level format instead
    of a Python call.  Everything else recurses, and a value of no type
    named here goes to ``json.dumps``, which also raises its ``TypeError``
    for a value JSON cannot hold.
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
    if isinstance(value, (list, tuple, Records)):
        if not value:
            return "[]"
        rows = _table(value, level + 1)
        if rows is None:
            rows = [_encode(v, level + 1) for v in value]
        return _wrap("[]", rows, level)
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


def _table(items: Sequence[object], level: int) -> list[str] | None:
    """The rendered items of ``Records`` or of a list of lists of one
    length, written at indent ``level``; None for any other list.

    Either is labels and columns from one transpose: a ``Records`` table's
    columns in sorted-key order, each labelled by its quoted key and ": ",
    or the list's columns in their order, unlabelled.  A column of plain
    ints (bools are not ints here) is a ``%d`` field, any other a ``%s``
    field encoded by ``_column``, and one template writes every item.
    """
    if isinstance(items, Records):
        keys = items.keys
        if not keys:
            return ["{}"] * len(items)
        order = sorted(range(len(keys)), key=keys.__getitem__)
        # a key is template text, so its own % signs are escaped
        labels = [_quote(keys[i]).replace("%", "%%") + ": " for i in order]
        source = list(zip(*items.rows))
        columns, brackets = list(map(source.__getitem__, order)), "{}"
    else:
        if type(items[0]) not in (list, tuple) or len(set(map(type, items))) != 1:
            return None
        if len(set(map(len, items))) != 1 or not items[0]:
            return None
        labels, columns, brackets = [""] * len(items[0]), list(zip(*items)), "[]"
    for i, column in enumerate(columns):  # each label becomes its field
        kinds = set(map(type, column))
        labels[i] += "%d" if kinds == {int} else "%s"
        if kinds != {int}:
            columns[i] = _column(column, kinds, level + 1)
    template = _wrap(brackets, labels, level)
    return list(map(template.__mod__, zip(*columns)))


# item types that equal no item of another of them, so that a tuple of them
# is a dict key that never stands for a differently written value
_KEYABLE = {str, int, type(None)}


def _column(column: Sequence[object], kinds: set[type], level: int) -> list[str]:
    """The rendered values of one table column whose values have the types
    ``kinds``, written at indent ``level``.

    A column of one type among str, bool and None, or of tuples whose items
    are all strings, ints or None (the statements' ``given`` sets), is
    written one distinct value at a time.  Any other column, lists included,
    goes value by value.
    """
    if not (len(kinds) == 1 and kinds <= {str, bool, type(None)} or kinds == {tuple}
            and set(map(type, itertools.chain.from_iterable(column))) <= _KEYABLE):
        return [_encode(v, level) for v in column]
    written = {value: _encode(value, level) for value in set(column)}
    return list(map(written.__getitem__, column))
