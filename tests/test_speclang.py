from pathlib import Path

import pytest

from teleo.errors import SpecSyntaxError
from teleo.model import enumerate_worlds
from teleo.speclang import load_model, parse_model, print_model
from teleo.teleology import compatible_worlds

from support import value_sets

MODELS = Path(__file__).resolve().parents[1] / "models"

ROOM = (MODELS / "heating.tele").read_text()

MINI = """\
var X in 0..1
var Y in 0..1

edge X -> Y

mech Y = table(X) { (0)->1; (1)->0 }

do X
final flip { effects: Y; goal: Y = 1 }
"""


class TestParsing:
    def test_room_spec_reproduces_the_world_table(self):
        compiled = load_model(ROOM)
        assert value_sets(enumerate_worlds(compiled.scm)) == {
            (0, 0, 0, 0),
            (1, 0, 1, 0),
            (0, 1, 1, 1),
            (1, 1, 2, 1),
        }

    def test_room_spec_finals(self):
        compiled = load_model(ROOM)
        assert list(compiled.finals) == ["warm", "mild", "notcold", "cheap", "costly"]
        assert value_sets(compatible_worlds(compiled.finals["warm"])) == {
            (1, 0, 1, 0),
            (0, 1, 1, 1),
        }
        assert compiled.rest == 0
        assert compiled.document.do_target == "H"

    def test_table_mechanism_and_conjunction(self):
        compiled = load_model(
            MINI.replace("goal: Y = 1", "goal: Y = 1 and Y != 0")
        )
        f = compiled.finals["flip"]
        # Y = not X, so only the X=0 world can satisfy Y=1
        assert value_sets(compatible_worlds(f)) == {(0, 1)}

    def test_table_parents_default_to_edge_order(self):
        text = MINI.replace("table(X)", "table")
        compiled = load_model(text)
        assert compiled.scm.mechanisms["Y"].table == {(0,): 1, (1,): 0}

    def test_multi_parent_table(self):
        text = """\
var A in 0..1
var B in 0..1
var C in 0..1
edge A -> C
edge B -> C
mech C = table(B, A) { (0,0)->0; (0,1)->1; (1,0)->1; (1,1)->0 }
"""
        compiled = load_model(text)
        # xor, with the key order (B, A) as declared
        assert value_sets(enumerate_worlds(compiled.scm)) == {
            (0, 0, 0),
            (0, 1, 1),
            (1, 0, 1),
            (1, 1, 0),
        }


def err(text: str) -> SpecSyntaxError:
    with pytest.raises(SpecSyntaxError) as exc:
        parse_model(text)
    return exc.value


class TestDiagnostics:
    def test_missing_mechanism_names_the_variable(self):
        e = err("var W in 0..1\nvar T in 0..2\nedge W -> T\n")
        assert "T" in str(e) and "mechanism" in str(e)

    def test_cycle_blames_the_closing_edge(self):
        e = err(
            "var H in 0..1\nvar T in 0..2\n"
            "edge H -> T\nedge T -> H\n"
            "mech T = sum(H)\n"
        )
        assert e.line == 4 and "cycle" in str(e)

    def test_cycle_blames_the_closing_edge_not_the_last_edge(self):
        e = err(
            "var A in 0..1\nvar B in 0..1\nvar C in 0..1\nvar D in 0..1\n"
            "edge A -> B\nedge B -> C\nedge C -> A\nedge D -> A\n"
        )
        assert e.line == 7 and "cycle" in str(e)

    def test_missing_mechanisms_blame_the_first_edge(self):
        # B is declared before C, but the edge into C comes first
        e = err(
            "var A in 0..1\nvar B in 0..1\nvar C in 0..1\n"
            "edge A -> C\nedge A -> B\n"
        )
        assert e.line == 4 and "C has parents but no mechanism" in str(e)

    def test_duplicate_variable(self):
        e = err("var W in 0..1\nvar W in 0..1\n")
        assert e.line == 2 and "duplicate" in str(e)

    def test_undeclared_edge_endpoint(self):
        e = err("var W in 0..1\nedge W -> T\n")
        assert e.line == 2 and "undeclared" in str(e)

    def test_sum_outside_domain_suggests_widening(self):
        e = err(
            "var A in 0..1\nvar B in 0..1\nvar S in 0..1\n"
            "edge A -> S\nedge B -> S\nmech S = sum(A, B)\n"
        )
        assert e.line == 6 and "widen" in str(e)

    def test_non_total_table(self):
        e = err(
            "var X in 0..1\nvar Y in 0..1\nedge X -> Y\n"
            "mech Y = table { (0)->0 }\n"
        )
        assert e.line == 4 and "not total" in str(e)

    def test_table_row_outside_parent_domain(self):
        e = err(
            "var X in 0..1\nvar Y in 0..1\nedge X -> Y\n"
            "mech Y = table { (0)->0; (1)->0; (2)->0 }\n"
        )
        assert "outside" in str(e)

    def test_mechanism_parent_mismatch(self):
        e = err(
            "var X in 0..1\nvar Z in 0..1\nvar Y in 0..1\nedge X -> Y\n"
            "mech Y = sum(Z)\n"
        )
        assert e.line == 5 and "do not match" in str(e)

    def test_mechanism_for_exogenous(self):
        e = err("var X in 0..1\nmech X = table { (0)->0 }\n")
        assert "exogenous" in str(e)

    def test_unsatisfiable_goal(self):
        e = err(MINI.replace("goal: Y = 1", "goal: Y = 5"))
        assert "cannot be satisfied" in str(e)

    def test_goal_outside_effects(self):
        e = err(
            MINI.replace("effects: Y; goal: Y = 1", "effects: Y; goal: X = 1")
        )
        assert "outside the intended effects" in str(e)

    def test_final_requires_do(self):
        e = err(MINI.replace("do X\n", ""))
        assert "do declaration" in str(e)

    def test_second_do_rejected(self):
        e = err(MINI + "do Y\n")
        assert "one intervention" in str(e)

    def test_rest_must_name_the_do_variable(self):
        e = err(MINI + "rest Y = 0\n")
        assert "do variable" in str(e)

    def test_rest_level_in_domain(self):
        e = err(MINI + "rest X = 7\n")
        assert "outside domain" in str(e)

    def test_syntax_error_carries_line_and_column(self):
        e = err("var W in 0..\n")
        assert e.line == 1 and e.column is not None

    def test_unknown_statement(self):
        e = err("vra W in 0..1\n")
        assert "unknown statement" in str(e)

    def test_duplicate_final(self):
        e = err(MINI + "final flip { effects: Y; goal: Y = 0 }\n")
        assert "duplicate final" in str(e)

    def test_single_level_domain_rejected(self):
        e = err("var W in 3..3\n")
        assert "two increasing levels" in str(e)

    @pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])
    def test_non_ascii_digit_is_a_syntax_error(self, digit):
        # str.isdigit() holds for both; int() rejects the first and reads
        # the second as 3, so only ASCII digits count as integers
        e = err(f"var W in 0..{digit}\n")
        assert e.line == 1 and "expected an integer" in str(e)


class TestRoundTrip:
    CORPUS = [ROOM, MINI, MINI.replace("table(X)", "table")]

    @pytest.mark.parametrize("text", CORPUS, ids=["room", "mini", "mini-implicit"])
    def test_parse_print_parse_is_identity(self, text):
        doc = parse_model(text)
        assert parse_model(print_model(doc)) == doc

    def test_printer_is_stable(self):
        doc = parse_model(ROOM)
        assert print_model(parse_model(print_model(doc))) == print_model(doc)

    def test_sum_notation_survives_round_trip(self):
        doc = parse_model(ROOM)
        printed = print_model(doc)
        assert "mech T = sum(W, H)" in printed
        assert "mech B = sum(H)" in printed
