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
return.
"""

from pathlib import Path

from hypothesis import given, settings, strategies as st

from teleo.errors import SpecSyntaxError, TeleoError
from teleo.identification import load_dataset
from teleo.speclang import load_model

SPEC = (Path(__file__).resolve().parents[1] / "models" / "heating.tele").read_text()
CSV = "W,H,T,B,count\n1,0,1,0,5\n0,1,1,1,5\n0,0,0,0,2\n"
SCM = load_model(SPEC).scm

# no digit above 1 is inserted, so a mutated domain stays small
ALPHABET = ["\u00b2", "\u0663", "\u00a0", "\ufeff", "\r", "\n", " ", "0", "1",
            "-", ".", ",", "#", "(", ")", ";", "=", "W"]
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
