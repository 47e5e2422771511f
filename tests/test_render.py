"""The JSON writer's tables (``teleo.render._table``) and its plain lists.

Only ``Records`` reach ``_table``, and every item of one is laid out from
one skeleton.  A table whose columns are all bytes of levels 0-9 is one
buffer, each column written into its slots by one strided slice assignment
(``_fill``); any other is the skeleton joined with its rendered columns.
Any other list is written item by item.  These tests check every path
against ``json.dumps(..., indent=2, sort_keys=True)``, and check which
values take which path.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

import teleo.render
from teleo.render import Records

from support import plain_document, render_json


def _expected(doc) -> str:
    return json.dumps(plain_document(doc), indent=2, sort_keys=True)


def _counted(monkeypatch, name):
    """The number of calls to ``teleo.render``'s ``name`` made so far, as a
    one-item list."""
    count = [0]
    function = getattr(teleo.render, name)

    def counting(*args):
        count[0] += 1
        return function(*args)

    monkeypatch.setattr(teleo.render, name, counting)
    return count


@pytest.fixture
def fills(monkeypatch):
    return _counted(monkeypatch, "_fill")


_keys = st.text(st.sampled_from('ab%"é\\\x00 d'), min_size=1, max_size=4)


@st.composite
def _digit_tables(draw, max_size=300):
    """``Records`` of one-digit bytes columns, with keys (any characters a
    key may hold, ``%`` and ``"`` among them) or without, nested in dicts
    and lists to some depth."""
    size = draw(st.integers(1, max_size))
    width = draw(st.integers(1, 5))
    keys = draw(st.none() | st.lists(_keys, min_size=width, max_size=width, unique=True))
    columns = draw(st.lists(st.binary(min_size=size, max_size=size).map(
        lambda b: bytes(x % 10 for x in b)), min_size=width, max_size=width))
    doc = Records(keys, columns=columns, size=size)
    for nest in draw(st.lists(st.sampled_from(["dict", "list"]), max_size=3)):
        doc = {"k": doc, "a": 1} if nest == "dict" else [doc, 2]
    return doc


@settings(max_examples=150, deadline=None)
@given(_digit_tables())
def test_one_digit_tables_write_what_the_stdlib_encoder_writes(doc):
    assert render_json(doc) == _expected(doc)


@pytest.mark.parametrize(
    "doc",
    [
        pytest.param(Records(("%d", '"q"', "é", "%%s", "a\x00"),
                             columns=[b"\x01\x02", b"\x00\x09", b"\x03\x03", b"\x05\x06",
                                      b"\x07\x08"], size=2),
                     id="keys-with-percent-quote-and-non-ascii"),
        pytest.param(Records(("only",), columns=[b"\x00\x09\x05"], size=3), id="one-keyed-column"),
        pytest.param(Records(None, columns=[b"\x07"], size=1), id="one-column-one-row"),
        pytest.param([Records(None, columns=[b"\x01\x02", b"\x03\x04"], size=2)],
                     id="list-of-lists-in-a-list"),
        pytest.param({"a": {"b": [Records(("x", "y"), columns=[b"\x01\x02", b"\x03\x04"],
                                          size=2)]}}, id="objects-three-levels-down"),
        pytest.param(Records(("b", "a"), columns=[bytes(i % 10 for i in range(257)),
                                                  bytes(i % 7 for i in range(257))], size=257),
                     id="two-keyed-columns-257-rows"),
    ],
)
def test_one_digit_cases(doc, fills):
    assert render_json(doc) == _expected(doc)
    assert fills[0] == 1


@pytest.mark.parametrize(
    "doc",
    [
        pytest.param(Records(("a", "b"), columns=[b"\x01\x0a", b"\x02\x03"], size=2),
                     id="keyed-level-10"),
        pytest.param(Records(None, columns=[b"\x02\x03", b"\x0a\x01"], size=2),
                     id="lists-level-10"),
        pytest.param(Records(None, columns=[b"\x02\x03", (1, 2)], size=2),
                     id="lists-int-column"),
        pytest.param(Records(("%d",), columns=[b"\xff\x00"], size=2), id="keyed-level-255"),
        pytest.param(Records(("a", "b"), columns=[b"", b""], size=0), id="keyed-no-rows"),
        pytest.param({"k": [Records(None, columns=[b"", b""], size=0)]}, id="lists-no-rows"),
    ],
)
def test_tables_beyond_one_digit_or_without_rows_take_no_fill(doc, fills):
    assert render_json(doc) == _expected(doc)
    assert fills[0] == 0


@pytest.mark.parametrize(
    "doc",
    [
        pytest.param([[1, 2], [3, -(2**70)], [0, 2**64]], id="equal-length-int-rows"),
        pytest.param([("A", "B"), ("A", "é"), ("%d", "%")], id="string-pairs"),
        pytest.param([[[1, [2]], [3, []]], [[True, None], [{"a": [1]}, "x"]]], id="nested"),
        pytest.param([[], [[]], [[], []], {}], id="empty"),
        pytest.param([(), ()], id="empty-tuples"),
    ],
)
def test_plain_lists_are_written_item_by_item(doc, monkeypatch):
    tables = _counted(monkeypatch, "_table")
    assert render_json({"k": doc}) == _expected({"k": doc})
    assert tables[0] == 0


def _column_cases():
    """One ``Records`` per kind of column that ``_column`` renders, keyed
    and as lists."""
    columns = {
        "bytes-levels-10-255": b"\x0a\xff\x00\x80",
        "ints-past-64-bits": (2**64, -(2**64) - 1, 0, 2**70),
        "bools": (True, False, False, True),
        "nulls": (None,) * 4,
        "strings": ("%d", "é", "%%s", "ключ\n"),
        "keyable-tuples": (("A", "B"), (), ("A", "B"), (None, 0, "%s")),
        "lists": ([1, [2]], [], ["é"], [True, None]),
        "floats": (0.5, -1.0, 1e300, 0.1),
        "mixed": (1, True, None, "1"),
    }
    for name, column in columns.items():
        yield pytest.param(Records(("%k", "a"), [column, b"\x01" * 4], 4), id=f"keyed-{name}")
        yield pytest.param(Records(None, [b"\x02" * 4, column], 4), id=f"lists-{name}")


@pytest.mark.parametrize("doc", list(_column_cases()))
def test_every_column_kind_joins_like_the_stdlib_encoder(doc, fills):
    assert render_json({"a": [doc]}) == _expected({"a": [doc]})
    assert fills[0] == 0


@pytest.mark.parametrize(
    "doc",
    [
        pytest.param(Records(("a", "b"), [b"\x0a\xff", (1, -(2**64))], 2), id="keyed"),
        pytest.param(Records(None, [(0, 2**70, 3), b"\x00\x0c\x01"], 3), id="lists"),
    ],
)
def test_int_and_bytes_columns_cost_no_call_per_value(doc, monkeypatch):
    encodes = _counted(monkeypatch, "_encode")
    assert render_json({"k": doc}) == _expected({"k": doc})
    assert encodes[0] == 1  # the table itself
