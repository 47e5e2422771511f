import pytest
from fractions import Fraction

from teleo.errors import EmptyTableError, ModelStructureError, UnknownVariableError
from teleo.model import (
    CausalDag,
    IndependenceStatement,
    Mechanism,
    Scm,
    Variable,
    WorldTable,
    conditional_distribution,
    enumerate_worlds,
    uniform_independent,
    verify_mechanism_consistency,
)

from support import chain_scm, m1_scm, value_sets

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
        assert uniform_independent(table, IndependenceStatement("W", "H"))

    def test_goal_filter_makes_them_dependent(self):
        table = enumerate_worlds(m1_scm()).filter({"T": lambda t: t == 1})
        assert value_sets(table) == {(1, 0, 1, 0), (0, 1, 1, 1)}
        assert not uniform_independent(table, IndependenceStatement("W", "H"))

    def test_point_mass_factorizes(self):
        table = enumerate_worlds(m1_scm()).filter({n: (lambda v: v == 0) for n in "WHTB"})
        assert value_sets(table) == {(0, 0, 0, 0)}
        assert uniform_independent(table, IndependenceStatement("W", "H"))
        assert uniform_independent(table, IndependenceStatement("T", "B"))

    def test_empty_table_is_degenerate(self):
        table = enumerate_worlds(m1_scm()).filter({"W": lambda w: False})
        with pytest.raises(EmptyTableError):
            uniform_independent(table, IndependenceStatement("W", "H"))

    def test_conditional_strata(self):
        # given T, the two T=1 worlds anti-correlate W and H
        table = enumerate_worlds(m1_scm())
        stmt = IndependenceStatement("W", "H", frozenset({"T"}))
        assert not uniform_independent(table, stmt)

    def test_unknown_variable(self):
        table = enumerate_worlds(m1_scm())
        with pytest.raises(UnknownVariableError):
            uniform_independent(table, IndependenceStatement("W", "Q"))

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
