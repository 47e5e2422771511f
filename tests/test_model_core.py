import pytest
from fractions import Fraction
from pathlib import Path

from teleo.errors import EmptyTableError, ModelStructureError, UnknownVariableError
from teleo.identification import DependenceCheck, RankingSummary
from teleo.model import (
    CausalDag,
    IndependenceStatement,
    Mechanism,
    Record,
    Scm,
    Variable,
    WorldTable,
    conditional_distribution,
    enumerate_worlds,
)

from teleo.reduction import build_reduction
from teleo.speclang import load_model
from teleo.teleology import Comparison, build_final_model

from support import chain_scm, m1_scm, value_sets, verify_mechanism_consistency

HEATING = Path(__file__).resolve().parents[1] / "models" / "heating.tele"

M1_WORLDS = {(0, 0, 0, 0), (1, 0, 1, 0), (0, 1, 1, 1), (1, 1, 2, 1)}


class TestStructuralValidation:
    def test_domain_needs_two_levels(self):
        with pytest.raises(ModelStructureError):
            Variable("X", (0,))

    def test_domain_strictly_increasing(self):
        with pytest.raises(ModelStructureError):
            Variable("X", (0, 0))
        with pytest.raises(ModelStructureError):
            Variable("X", (1, 0))

    def test_edge_endpoints_must_be_nodes(self):
        with pytest.raises(ModelStructureError):
            CausalDag(("A",), (("A", "B"),))

    def test_no_self_loops(self):
        with pytest.raises(ModelStructureError):
            CausalDag(("A", "B"), (("A", "A"),))

    def test_no_duplicate_edges(self):
        with pytest.raises(ModelStructureError):
            CausalDag(("A", "B"), (("A", "B"), ("A", "B")))

    def test_cycle_detected(self):
        with pytest.raises(ModelStructureError, match="cycle"):
            CausalDag(("A", "B"), (("A", "B"), ("B", "A")))

    def test_missing_mechanism_names_the_node(self):
        x = Variable("X", (0, 1))
        y = Variable("Y", (0, 1))
        dag = CausalDag(("X", "Y"), (("X", "Y"),))
        with pytest.raises(ModelStructureError, match="Y"):
            Scm(dag, (x, y), {})

    def test_mechanism_on_exogenous_rejected(self):
        x = Variable("X", (0, 1))
        y = Variable("Y", (0, 1))
        dag = CausalDag(("X", "Y"), (("X", "Y"),))
        mechs = {
            "Y": Mechanism("Y", ("X",), {(0,): 0, (1,): 1}),
            "X": Mechanism("X", ("Y",), {(0,): 0, (1,): 1}),
        }
        with pytest.raises(ModelStructureError, match="X"):
            Scm(dag, (x, y), mechs)

    def test_mechanism_filed_under_a_non_node_rejected(self):
        x = Variable("X", (0, 1))
        y = Variable("Y", (0, 1))
        dag = CausalDag(("X", "Y"), (("X", "Y"),))
        mechs = {
            "Y": Mechanism("Y", ("X",), {(0,): 0, (1,): 1}),
            "Q": Mechanism("Q", ("X",), {(0,): 0, (1,): 1}),
        }
        with pytest.raises(
            ModelStructureError, match="^mechanism filed under Q, which is not a node$"
        ):
            Scm(dag, (x, y), mechs)

    def test_non_total_mechanism_rejected(self):
        x = Variable("X", (0, 1))
        y = Variable("Y", (0, 1))
        dag = CausalDag(("X", "Y"), (("X", "Y"),))
        with pytest.raises(ModelStructureError, match="no entry"):
            Scm(dag, (x, y), {"Y": Mechanism("Y", ("X",), {(0,): 0})})

    def test_mechanism_output_outside_domain(self):
        x = Variable("X", (0, 1))
        y = Variable("Y", (0, 1))
        dag = CausalDag(("X", "Y"), (("X", "Y"),))
        with pytest.raises(ModelStructureError, match="outside domain"):
            Scm(dag, (x, y), {"Y": Mechanism("Y", ("X",), {(0,): 0, (1,): 7})})

    def test_repeated_parent_rejected(self):
        with pytest.raises(ModelStructureError, match="repeated parent"):
            Mechanism("C", ("A", "A"), {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0})

    def test_sum_constructor_rejects_out_of_domain(self):
        x = Variable("X", (0, 1))
        y = Variable("Y", (0, 1))
        narrow = Variable("S", (0, 1))
        with pytest.raises(ModelStructureError, match="outside domain"):
            Mechanism.sum_of(narrow, (x, y))


class TestEnumerateWorlds:
    def test_room_model_reproduces_the_four_worlds(self):
        table = enumerate_worlds(m1_scm())
        assert value_sets(table) == M1_WORLDS
        assert table.columns == ("W", "H", "T", "B")

    def test_worlds_sorted_lexicographically(self):
        table = enumerate_worlds(m1_scm())
        assert list(table.rows) == sorted(table.rows)

    def test_single_exogenous_variable(self):
        x = Variable("X", (0, 1))
        scm = Scm(CausalDag(("X",), ()), (x,), {})
        assert value_sets(enumerate_worlds(scm)) == {(0,), (1,)}

    def test_identity_chain(self):
        # hand-propagation: X=0 gives Y=Z=0, X=1 gives Y=Z=1
        table = enumerate_worlds(chain_scm())
        assert value_sets(table) == {(0, 0, 0), (1, 1, 1)}

    def test_an_empty_model_has_the_one_empty_world(self):
        # the product of no domains is one combination, as a projection
        # onto no columns keeps one () row
        table = enumerate_worlds(Scm(CausalDag((), ()), (), {}))
        assert (table.columns, table.rows) == ((), ((),))
        assert table == enumerate_worlds(m1_scm()).project(())

    def test_world_count_is_product_of_exogenous_domains(self):
        assert len(enumerate_worlds(m1_scm())) == 2 * 2

    def test_mechanism_consistency(self):
        scm = m1_scm()
        assert verify_mechanism_consistency(scm, enumerate_worlds(scm))


class TestWorldTable:
    def test_deduplication(self):
        table = WorldTable(("A",), ((0,), (0,)))
        assert len(table) == 1
        assert table.columns == ("A",) and table.rows == ((0,),)

    def test_world_column_mismatch_rejected(self):
        with pytest.raises(ModelStructureError):
            WorldTable(("A",), ((0, 1),))
        with pytest.raises(ModelStructureError):
            WorldTable(("A", "A"), ((0, 1),))

    def test_unsorted_and_repeated_rows_are_sorted_and_deduplicated(self):
        rows = [(1, 0), (0, 1), (1, 0), (0, 0), (0, 1)]
        table = WorldTable(("A", "B"), rows)
        assert table.rows == ((0, 0), (0, 1), (1, 0))
        assert WorldTable(("A", "B"), [(0, 0), (0, 0)]).rows == ((0, 0),)
        assert WorldTable(("A", "B"), iter(rows)) == table
        assert WorldTable(("A", "B"), [list(r) for r in rows]) == table

    def test_rows_that_strictly_increase_are_kept_in_order(self):
        rows = ((0, 0), (0, 1), (1, 0))
        table = WorldTable(("A", "B"), rows)
        assert table.rows == rows
        assert WorldTable(("A", "B"), [[0, 0], [0, 1]]).rows == ((0, 0), (0, 1))

    @pytest.mark.parametrize(
        "rows", [[(0,)], [(0, 0), (0,)], [(0, 0), (1, 1), (0, 0, 0)], [(1, 1), ()]]
    )
    def test_a_row_of_another_width_is_named(self, rows):
        bad = next(r for r in rows if len(r) != 2)
        message = f"row {bad} does not match table columns ('A', 'B')"
        with pytest.raises(ModelStructureError) as exc:
            WorldTable(("A", "B"), rows)
        assert str(exc.value) == message

    def test_projection(self):
        table = enumerate_worlds(m1_scm()).project(("W", "B"))
        assert value_sets(table) == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_outside_keeps_the_rows_the_other_table_lacks(self):
        table = enumerate_worlds(m1_scm())
        warm = table.filter({"T": lambda t: t == 1})
        rest = table.outside(warm)
        assert rest.columns == table.columns
        assert rest.rows == ((0, 0, 0, 0), (1, 1, 2, 1))
        assert warm.outside(table).rows == ()
        assert table.outside(table.filter({})).rows == ()

    def test_outside_needs_equal_columns(self):
        table = enumerate_worlds(m1_scm())
        with pytest.raises(ModelStructureError, match="cannot compare"):
            table.outside(table.project(("W", "H", "B", "T")))

    def test_scm_enumerates_its_worlds_once(self):
        scm = m1_scm()
        assert scm.worlds is scm.worlds
        assert scm.worlds == enumerate_worlds(scm)


class TestUniformIndependence:
    def test_weather_and_heating_independent_in_base_model(self):
        table = enumerate_worlds(m1_scm())
        assert table.factorizes(IndependenceStatement("W", "H"))

    def test_goal_filter_makes_them_dependent(self):
        table = enumerate_worlds(m1_scm()).filter({"T": lambda t: t == 1})
        assert value_sets(table) == {(1, 0, 1, 0), (0, 1, 1, 1)}
        assert not table.factorizes(IndependenceStatement("W", "H"))

    def test_point_mass_factorizes(self):
        table = enumerate_worlds(m1_scm()).filter({n: (lambda v: v == 0) for n in "WHTB"})
        assert value_sets(table) == {(0, 0, 0, 0)}
        assert table.factorizes(IndependenceStatement("W", "H"))
        assert table.factorizes(IndependenceStatement("T", "B"))

    def test_empty_table_is_degenerate(self):
        table = enumerate_worlds(m1_scm()).filter({"W": lambda w: False})
        with pytest.raises(EmptyTableError):
            table.factorizes(IndependenceStatement("W", "H"))

    def test_conditional_strata(self):
        # given T, the two T=1 worlds anti-correlate W and H
        table = enumerate_worlds(m1_scm())
        stmt = IndependenceStatement("W", "H", frozenset({"T"}))
        assert not table.factorizes(stmt)

    def test_unknown_variable(self):
        table = enumerate_worlds(m1_scm())
        with pytest.raises(UnknownVariableError):
            table.factorizes(IndependenceStatement("W", "Q"))

    def test_statement_invariants(self):
        with pytest.raises(ModelStructureError):
            IndependenceStatement("W", "W")
        with pytest.raises(ModelStructureError):
            IndependenceStatement("W", "H", frozenset({"W"}))


class TestCausalDagIndex:
    def test_ready_ties_go_to_the_earliest_declared_node(self):
        dag = CausalDag(("C", "B", "A"), (("A", "B"),))
        assert dag.topological_order() == ("C", "A", "B")

    def test_cycle_message_names_the_nodes_on_it(self):
        with pytest.raises(ModelStructureError, match="cycle through B, C$"):
            CausalDag(("A", "B", "C"), (("A", "B"), ("B", "C"), ("C", "B")))

    def test_ancestors_of_a_set_and_descendants_of_a_node(self):
        dag = CausalDag(("W", "H", "T", "B"), (("W", "T"), ("H", "T"), ("H", "B")))
        assert dag.ancestors({"T", "B"}) == {"W", "H"}
        assert dag.ancestors(()) == set()
        assert dag.descendants("H") == ("T", "B")

    def test_unknown_node_is_reported(self):
        dag = CausalDag(("A", "B"), (("A", "B"),))
        for query in (dag.parents, dag.children, dag.descendants):
            with pytest.raises(UnknownVariableError):
                query("Q")
        with pytest.raises(UnknownVariableError):
            dag.ancestors({"A", "Q"})

    def test_equality_hash_and_repr_use_nodes_and_edges_only(self):
        a = CausalDag(("A", "B"), [("A", "B")])
        b = CausalDag(("A", "B"), (("A", "B"),))
        assert a == b and hash(a) == hash(b)
        assert a != CausalDag(("A", "B"), ())
        assert repr(a) == "CausalDag(nodes=('A', 'B'), edges=(('A', 'B'),))"


class TestDistributions:
    def test_marginal_is_exact(self):
        table = enumerate_worlds(m1_scm())
        assert table.distribution("T") == {
            0: Fraction(1, 4),
            1: Fraction(1, 2),
            2: Fraction(1, 4),
        }

    def test_conditional_distribution(self):
        table = enumerate_worlds(m1_scm())
        assert conditional_distribution(table, "B", {"H": 1}) == {1: Fraction(1)}

    def test_conditional_on_impossible_observation(self):
        table = enumerate_worlds(m1_scm())
        with pytest.raises(EmptyTableError):
            conditional_distribution(table, "B", {"T": 2, "H": 0})


class _Point(Record):
    x: int
    y: int = 0


class _Pair(Record):
    x: int
    y: int = 0


class TestRecords:
    """The one value-object base: fields, defaults, equality, hashing,
    ``repr`` and immutability."""

    def heating(self):
        return load_model(HEATING.read_text())

    def test_an_instance_refuses_assignment_and_deletion(self):
        records = [Variable("X", (0, 1)), _Point(1), m1_scm(), Comparison("X", "=", 1)]
        for record in records:
            for name in (*type(record)._fields, "anything_else"):
                with pytest.raises(AttributeError, match="is immutable"):
                    setattr(record, name, None)
                with pytest.raises(AttributeError, match="is immutable"):
                    delattr(record, name)
        assert records[0] == Variable("X", (0, 1))

    def test_a_final_model_compares_and_hashes_without_its_name(self):
        warm = self.heating().finals["warm"]
        renamed = build_final_model(warm.mstar, warm.intended_effects, warm.goal, "other")
        unnamed = build_final_model(warm.mstar, warm.intended_effects, warm.goal)
        assert warm == renamed == unnamed
        # the hash reads the same key, but a final model's base model holds
        # dicts, so it has none
        assert warm._key() == renamed._key() == unnamed._key()
        with pytest.raises(TypeError, match="unhashable"):
            hash(warm)
        assert repr(warm).endswith(", name='warm')")
        assert repr(unnamed).endswith(", name=None)")
        assert repr(warm).startswith("FinalModel(mstar=MStarModel(base=Scm(dag=")

    def test_records_of_two_classes_are_never_equal(self):
        assert _Point(1).__eq__(_Pair(1)) is NotImplemented
        assert _Point(1) != _Pair(1) and not _Point(1) == _Pair(1)
        assert _Point(1) != (1, 0)
        assert _Point(1) == _Point(1, 0) and _Point(1) != _Point(1, 1)

    def test_records_that_hold_dicts_are_unhashable(self):
        compiled = self.heating()
        reduction = build_reduction(compiled.finals["warm"], compiled.rest)
        for record in (compiled.scm, reduction, compiled):
            with pytest.raises(TypeError, match="unhashable"):
                hash(record)

    def test_a_compiled_spec_can_be_changed(self):
        compiled = self.heating()
        compiled.finals = {}
        assert compiled.finals == {} and compiled != self.heating()

    def test_keyword_positional_and_default_construction_agree(self):
        stmt = IndependenceStatement("A", "B")
        assert stmt == IndependenceStatement("A", "B", frozenset())
        assert stmt == IndependenceStatement(x="A", y="B", given=())
        assert stmt.given == frozenset()
        check = DependenceCheck(stmt, True, False)
        assert check == DependenceCheck(stmt, True, False, ())
        assert check == DependenceCheck(
            observed_independent=False, statement=stmt, expected_independent=True
        )
        assert check.skipped_strata == ()
        summary = RankingSummary(None, 2)
        assert summary == RankingSummary(winner=None, exit_code=2, tied=())
        assert _Point(1) == _Point(x=1) == _Point(1, y=0) == _Point(y=0, x=1)
        assert repr(_Point(x=1)) == "_Point(x=1, y=0)"

    @pytest.mark.parametrize(
        "args, kwargs",
        [((), {}), ((), {"y": 1}), ((1, 2, 3), {}), ((1,), {"x": 2}), ((1,), {"z": 2})],
    )
    def test_a_call_python_would_refuse_raises_type_error(self, args, kwargs):
        # a missing, surplus, repeated or unknown argument
        with pytest.raises(TypeError, match=r"^_Point\(\) takes x, y$"):
            _Point(*args, **kwargs)

    def test_model_names_are_built_once_outside_equality_and_repr(self):
        scm = m1_scm()
        assert scm.names == ("W", "H", "T", "B")
        assert scm.names is scm.names
        assert "names" not in repr(scm) and "_by_name" not in repr(scm)
