"""The strided fill of one-digit world tables (``teleo.render._fill``).

A table whose columns are all bytes of levels 0-9 is written without a
template: one item per row in one buffer, each column written into its
slots by one strided slice assignment.  These tests check that path
against ``json.dumps(..., indent=2, sort_keys=True)``, and check which
tables take it.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

import teleo.render
from teleo.render import Records

from support import plain_document, render_json


def _expected(doc) -> str:
    return json.dumps(plain_document(doc), indent=2, sort_keys=True)


@pytest.fixture
def fills(monkeypatch):
    """The number of ``_fill`` calls made so far, as a one-item list."""
    count = [0]
    fill = teleo.render._fill

    def counting(*args):
        count[0] += 1
        return fill(*args)

    monkeypatch.setattr(teleo.render, "_fill", counting)
    return count


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
