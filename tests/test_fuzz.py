"""Mutation fuzz of the two text inputs: model specs and CSV datasets.

Each example applies a few character insertions, replacements and deletions
to a valid document.  Loading a mutated spec must either succeed or raise a
SpecSyntaxError that names a line; loading a mutated dataset must either
succeed or raise a TeleoError.  Any other exception would reach the command
line as a traceback instead of an ``error:`` line.  Half of the mutations
land next to a digit, where the integer readers are, and the alphabet mixes
ASCII syntax with characters that ``str`` methods treat as digits or
whitespace but ``int`` does not read as ASCII: a superscript two, an
Arabic-Indic three, a no-break space, a byte-order mark and a carriage
return.  It also holds a digit run longer than ``int`` reads from text.

Wide ranges are drawn apart from the mutations: domains and counts of
binary parents either small or past the size cap.  Each such spec loads, or
fails at once with an error that names the size, which is known from the
domain widths alone.
"""

import math
import time
from pathlib import Path

from hypothesis import given, settings, strategies as st

from teleo.errors import BudgetError, SpecSyntaxError, TeleoError
from teleo.identification import load_dataset
from teleo.model import MAX_WORLDS
from teleo.speclang import load_model

SPEC = (Path(__file__).resolve().parents[1] / "models" / "heating.tele").read_text()
CSV = "W,H,T,B,count\n1,0,1,0,5\n0,1,1,1,5\n0,0,0,0,2\n"
SCM = load_model(SPEC).scm

# no digit above 1 is inserted, so a mutated domain stays small; the run of
# 5,000 zeros makes an integer past Python's limit on digits read from text
ALPHABET = ["\u00b2", "\u0663", "\u00a0", "\ufeff", "\r", "\n", " ", "0", "1",
            "-", ".", ",", "#", "(", ")", ";", "=", "W", "0" * 5000]
FUZZ = settings(max_examples=300, deadline=None, derandomize=True)


@st.composite
def mutated(draw, text: str) -> str:
    digits = [i for i, ch in enumerate(text) if ch.isdigit()]
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            pos = draw(st.sampled_from(digits)) + draw(st.integers(0, 1))
        else:
            pos = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(["insert", "replace", "delete"]))
        if op == "insert":
            text = text[:pos] + draw(st.sampled_from(ALPHABET)) + text[pos:]
        elif op == "replace":
            text = text[:pos] + draw(st.sampled_from(ALPHABET)) + text[pos + 1 :]
        else:
            text = text[:pos] + text[pos + 1 :]
        digits = [i for i, ch in enumerate(text) if ch.isdigit()] or [0]
    return text


@FUZZ
@given(mutated(SPEC))
def test_mutated_spec_loads_or_raises_teleo_error(text):
    try:
        load_model(text)
    except SpecSyntaxError as exc:
        assert exc.line >= 1


@FUZZ
@given(mutated(CSV))
def test_mutated_csv_loads_or_raises_teleo_error(text):
    try:
        load_dataset(text, SCM)
    except TeleoError:
        pass


# a size under the cap stays small, so no example builds much
WIDTHS = st.integers(2, 4) | st.integers(MAX_WORLDS + 1, 10**40)
BINARY_PARENTS = st.integers(1, 6) | st.integers(25, 64)


@FUZZ
@given(st.lists(st.tuples(st.integers(-(10**40), 10**40), WIDTHS), min_size=1, max_size=4))
def test_wide_ranges_load_or_name_their_level_count(ranges):
    spec = "".join(f"var V{i} in {lo}..{lo + w - 1}\n" for i, (lo, w) in enumerate(ranges))
    wide = [(i, w) for i, (_, w) in enumerate(ranges) if w > MAX_WORLDS]
    start = time.perf_counter()
    try:
        worlds = load_model(spec).scm.worlds
    except SpecSyntaxError as exc:
        (i, w), *_ = wide
        assert str(exc) == (
            f"line {i + 1}: the level count of V{i} is {w}, over the cap of {MAX_WORLDS}"
        )
        assert isinstance(exc.__cause__, BudgetError) and exc.__cause__.size == w
    else:
        assert not wide and len(worlds) == math.prod(w for _, w in ranges)
    assert time.perf_counter() - start < 1


@FUZZ
@given(BINARY_PARENTS, st.booleans())
def test_many_binary_variables_load_or_name_their_size(k, summed):
    names = [f"X{i}" for i in range(k)]
    spec = "".join(f"var {n} in 0..1\n" for n in names)
    if summed:
        spec += f"var Y in 0..{k}\n" + "".join(f"edge {n} -> Y\n" for n in names)
        spec += f"mech Y = sum({', '.join(names)})\n"
    start = time.perf_counter()
    try:
        worlds = load_model(spec).scm.worlds
    except SpecSyntaxError as exc:
        assert summed and exc.line == 2 * k + 2 and exc.__cause__.size == 2**k
    except BudgetError as exc:
        assert not summed and str(exc) == (
            f"the world count is {2**k}, over the cap of {MAX_WORLDS}"
        )
    else:
        assert k <= 24 and len(worlds) == 2**k
    assert time.perf_counter() - start < 1
