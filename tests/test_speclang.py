from pathlib import Path

import pytest

import teleo.model
import teleo.speclang
from teleo.errors import ModelStructureError, SpecSyntaxError
from teleo.model import CausalDag, Scm, Variable, enumerate_worlds
from teleo.speclang import CompiledSpec, load_model, print_model
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
        assert compiled.mstar.target == "H"

    def test_each_table_is_checked_once_at_its_statement(self, monkeypatch):
        checked = []

        def counting(mech, variables):
            # a check that runs raises or marks the mechanism anew; one that
            # finds the mark for these variables returns without either
            mark = mech.__dict__.get("_checked")
            try:
                check_table(mech, variables)
            except ModelStructureError:
                checked.append(mech.child)
                raise
            if mech.__dict__["_checked"] is not mark:
                checked.append(mech.child)

        check_table = teleo.model.check_table
        monkeypatch.setattr(teleo.model, "check_table", counting)
        monkeypatch.setattr(teleo.speclang, "check_table", counting)
        compiled = load_model(ROOM)
        # the base model and the surgered model keep the mechanisms and the
        # variables their statements were checked against
        assert checked == ["T", "B"]
        assert compiled.mstar.model.mechanisms == compiled.scm.mechanisms
        # the same mechanisms over a narrower domain are checked again
        scm = compiled.scm
        narrow = [Variable("T", (0, 1)) if v.name == "T" else v for v in scm.variables]
        with pytest.raises(ModelStructureError, match=r"value 2 outside domain \(0, 1\)"):
            Scm(scm.dag, narrow, scm.mechanisms)
        assert checked[2:] == ["T"]

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
        load_model(text)
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


def fault(name: str, text: str, message: str):
    return pytest.param(text, message, id=name)


# MINI's statements sit on lines 1-2 (var), 4 (edge), 6 (mech), 8 (do) and
# 9 (final).  One spec per rule, each breaking that rule alone.
SINGLE_FAULTS = [
    # the document's own rules, checked by the parser
    fault("syntax", "var W in 0..\n", "line 1, column 13: expected an integer"),
    fault(
        "integer-past-the-digit-limit",
        "var W in 0.." + "9" * 5000 + "\n",
        "line 1, column 13: integer literal of 5000 characters is too long",
    ),
    fault(
        "unknown-statement",
        "vra W in 0..1\n",
        "line 1, column 1: unknown statement 'vra'",
    ),
    fault(
        "indented-unknown-statement",
        "   vra W in 0..1\n",
        "line 1, column 4: unknown statement 'vra'",
    ),
    fault(
        "mechanism-form",
        MINI.replace("table(X)", "max(X)"),
        "line 6, column 13: unknown mechanism form 'max' (use sum or table)",
    ),
    fault(
        "comparison-operator",
        MINI.replace("Y = 1", "Y ~ 1"),
        "line 9, column 34: expected a comparison operator (=, !=, <, <=, >, >=)",
    ),
    fault(
        "one-level-domain",
        "var W in 3..3\n",
        "line 1, column 14: domain 3..3 needs at least two increasing levels",
    ),
    fault(
        "duplicate-variable",
        "var W in 0..1\nvar W in 0..1\n",
        "line 2: duplicate variable 'W'",
    ),
    fault(
        "undeclared-endpoint",
        "var W in 0..1\nedge W -> T\n",
        "line 2: undeclared variable 'T'",
    ),
    fault("self-loop", "var W in 0..1\nedge W -> W\n", "line 2: self-loop on 'W'"),
    fault(
        "duplicate-edge",
        MINI.replace("edge X -> Y\n", "edge X -> Y\nedge X -> Y\n"),
        "line 5: duplicate edge X -> Y",
    ),
    fault(
        "cycle",
        MINI.replace("edge X -> Y\n", "edge X -> Y\nedge Y -> X\n"),
        "line 5: edge closes a cycle",
    ),
    fault(
        "duplicate-mechanism",
        MINI.replace("\ndo X", "mech Y = sum(X)\ndo X"),
        "line 7: duplicate mechanism for 'Y'",
    ),
    fault(
        "row-width",
        MINI.replace("(1)->0", "(1,0)->0"),
        "line 6: row (1, 0) has 2 values for 1 parents of Y",
    ),
    fault(
        "duplicate-row",
        MINI.replace("(1)->0", "(0)->0"),
        "line 6: duplicate table row (0,)",
    ),
    fault(
        "missing-mechanism",
        MINI.replace("mech Y", "# mech Y"),
        "line 4: Y has parents but no mechanism",
    ),
    fault("second-do", MINI + "do Y\n", "line 10: only one intervention per model"),
    fault(
        "second-rest",
        MINI + "rest X = 0\nrest X = 1\n",
        "line 11: only one rest declaration",
    ),
    fault("rest-undeclared", MINI + "rest Q = 0\n", "line 10: undeclared variable 'Q'"),
    fault(
        "rest-not-the-do-variable",
        MINI + "rest Y = 0\n",
        "line 10: rest level must name the do variable",
    ),
    fault(
        "rest-level-outside-domain",
        MINI + "rest X = 7\n",
        "line 10: rest level 7 outside domain (0, 1)",
    ),
    fault(
        "final-without-do",
        MINI.replace("do X\n", ""),
        "line 8: final 'flip' needs a do declaration",
    ),
    fault(
        "duplicate-final",
        MINI + "final flip { effects: Y; goal: Y = 0 }\n",
        "line 10: duplicate final block 'flip'",
    ),
    fault(
        "repeated-effect",
        MINI.replace("effects: Y;", "effects: Y, Y;"),
        "line 9: repeated intended effect",
    ),
    # the rules of the model objects, reported at the line of their statement
    fault(
        "mechanism-for-undeclared",
        MINI.replace("mech Y", "mech Q"),
        "line 6: unknown variable 'Q'",
    ),
    fault(
        "mechanism-for-exogenous",
        "var X in 0..1\nmech X = table { (0)->0 }\n",
        "line 2: X has no inbound edges; exogenous variables take no mechanism",
    ),
    fault(
        "parent-mismatch",
        "var X in 0..1\nvar Z in 0..1\nvar Y in 0..1\nedge X -> Y\nmech Y = sum(Z)\n",
        "line 5: mechanism parents (Z) do not match the edges into Y (X)",
    ),
    fault(
        "repeated-parent-in-table",
        MINI.replace("(X) { (0)->1; (1)->0 }", "(X, X) { (0,0)->0; (1,1)->0 }"),
        "line 6: repeated parent in mechanism for Y",
    ),
    fault(
        "repeated-parent-in-sum",
        "var X in 0..1\nvar Y in 0..2\nedge X -> Y\nmech Y = sum(X, X)\n",
        "line 4: repeated parent in mechanism for Y",
    ),
    fault(
        "sum-outside-domain",
        "var A in 0..1\nvar B in 0..1\nvar S in 0..1\n"
        "edge A -> S\nedge B -> S\nmech S = sum(A, B)\n",
        "line 6: sum 2 of {'A': 1, 'B': 1} is outside domain (0, 1) of S; "
        "widen the domain",
    ),
    fault(
        "row-outside-parent-domains",
        MINI.replace("(1)->0", "(1)->0; (2)->0"),
        "line 6: row (2,) is outside the parent domains of Y",
    ),
    fault(
        "value-outside-domain",
        MINI.replace("(1)->0", "(1)->7"),
        "line 6: value 7 outside domain (0, 1) of Y",
    ),
    fault(
        "table-not-total",
        MINI.replace("; (1)->0", ""),
        "line 6: mechanism for Y is not total: no entry for parent values (1,)",
    ),
    fault(
        "do-undeclared",
        MINI.replace("do X", "do Q"),
        "line 8: unknown intervention target 'Q'",
    ),
    fault(
        "effect-undeclared",
        MINI.replace("effects: Y;", "effects: Y, Q;"),
        "line 9: unknown intended effect 'Q'",
    ),
    fault(
        "goal-undeclared",
        MINI.replace("goal: Y = 1", "goal: Q = 1"),
        "line 9: goal mentions Q outside the intended effects",
    ),
    fault(
        "goal-outside-effects",
        MINI.replace("goal: Y = 1", "goal: X = 1"),
        "line 9: goal mentions X outside the intended effects",
    ),
    fault(
        "goal-unsatisfiable",
        MINI.replace("goal: Y = 1", "goal: Y = 5"),
        "line 9: goal Y=5 cannot be satisfied by any level of Y",
    ),
    fault(
        "effect-not-a-descendant",
        MINI.replace("do X", "do Y").replace("Y; goal: Y", "X; goal: X"),
        "line 9: intended effects must be causal descendants of Y; X are not",
    ),
    fault(
        # X -> Y -> Z, do X: reversing toward X for Z alone adds Z -> X
        "reversal-closes-a-cycle",
        "var X in 0..1\nvar Y in 0..1\nvar Z in 0..1\nedge X -> Y\nedge Y -> Z\n"
        "mech Y = sum(X)\nmech Z = sum(Y)\ndo X\n"
        "final deep { effects: Z; goal: Z = 1 }\n",
        "line 9: reversing arrows toward X for effects {Z} breaks the graph: "
        "graph has a cycle through X, Y, Z",
    ),
]


@pytest.mark.parametrize("text, message", SINGLE_FAULTS)
def test_each_rule_reports_its_statement(text, message):
    assert str(err(text)) == message


class TestRoundTrip:
    CORPUS = [ROOM, MINI, MINI.replace("table(X)", "table")]

    @pytest.mark.parametrize("text", CORPUS, ids=["room", "mini", "mini-implicit"])
    def test_parse_print_parse_is_identity(self, text):
        spec = load_model(text)
        assert load_model(print_model(spec)) == spec

    def test_printer_is_stable(self):
        printed = print_model(load_model(ROOM))
        assert print_model(load_model(printed)) == printed

    def test_sum_notation_survives_round_trip(self):
        printed = print_model(load_model(ROOM))
        assert "mech T = sum(W, H)" in printed
        assert "mech B = sum(H)" in printed

    def test_table_that_sums_its_key_prints_as_sum(self):
        text = MINI.replace("(0)->1; (1)->0", "(1)->1; (0)->0")
        spec = load_model(text)
        printed = print_model(spec)
        assert "mech Y = sum(X)" in printed
        assert load_model(printed) == spec

    def test_other_tables_print_their_sorted_rows(self):
        text = MINI.replace("(0)->1; (1)->0", "(1)->0; (0)->1")
        printed = print_model(load_model(text))
        assert "mech Y = table(X) { (0)->1; (1)->0 }" in printed

    def test_effects_print_in_declaration_order(self):
        text = (
            "var X in 0..1\nvar Y in 0..1\nvar Z in 0..1\n"
            "edge X -> Y\nedge X -> Z\n"
            "mech Y = table(X) { (0)->1; (1)->0 }\nmech Z = sum(X)\n"
            "do X\nfinal both { effects: Z, Y; goal: Z = 1 and Y = 0 }\n"
        )
        spec = load_model(text)
        printed = print_model(spec)
        assert printed.endswith(
            "final both { effects: Y, Z; goal: Z = 1 and Y = 0 }\n"
        )
        assert load_model(printed) == spec

    def test_a_domain_with_a_gap_is_refused_without_a_line(self):
        # a model built in code has no statements, so no line to blame
        scm = Scm(CausalDag(("X",), ()), (Variable("X", (0, 2)),), {})
        with pytest.raises(ModelStructureError) as exc:
            print_model(CompiledSpec(scm, None, {}, None))
        assert type(exc.value) is ModelStructureError
        assert str(exc.value) == "domain of X is not a contiguous range"
