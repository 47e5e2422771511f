import re

import pytest

from teleo.errors import DegenerateReductionError, ModelStructureError, ReductionError
from teleo.intervention import do_surgery
from teleo.model import (
    CausalDag,
    Mechanism,
    Scm,
    Variable,
    enumerate_worlds,
    verify_mechanism_consistency,
)
from teleo.reduction import (
    build_reduction,
    compare_structures,
    project_reduction,
    reduction_worlds,
    rename_variable,
    splice_out,
)
from teleo.speclang import load_model
from teleo.teleology import build_final_model, compatible_worlds, goal

from support import chain_scm, m1_scm, value_sets, world_set


@pytest.fixture(scope="module")
def warm():
    m = do_surgery(m1_scm(), "H")
    return build_final_model(m, ("T",), goal("T", "=", 1), "warm")


@pytest.fixture(scope="module")
def warm_reduction(warm):
    return build_reduction(warm, rest_level=0)


class TestBuildReduction:
    def test_world_table_is_computed_once_per_reduction(self, warm_reduction):
        table = reduction_worlds(warm_reduction)
        assert table is reduction_worlds(warm_reduction)
        assert table == enumerate_worlds(warm_reduction.scm)

    def test_room_model_unrolls_to_two_worlds(self, warm_reduction):
        table = reduction_worlds(warm_reduction)
        assert table.columns == ("W", "T0", "I", "H", "T1", "B")
        assert value_sets(table) == {(1, 1, 0, 0, 1, 0), (0, 0, 1, 1, 1, 1)}

    def test_reduction_is_a_well_formed_model(self, warm_reduction):
        scm = warm_reduction.scm
        assert verify_mechanism_consistency(scm, enumerate_worlds(scm))
        assert scm.dag.parents("I") == ("T0",)
        assert scm.dag.parents("H") == ("I",)

    def test_action_mechanism_is_identity(self, warm_reduction):
        assert warm_reduction.scm.mechanisms["H"].table == {(0,): 0, (1,): 1}

    def test_projection_matches_the_goal_worlds(self, warm, warm_reduction):
        projected = reduction_worlds(warm_reduction).project(("W", "H", "T1", "B"))
        assert value_sets(projected) == value_sets(compatible_worlds(warm))

    def test_chain_reduction_hand_computed(self):
        # X -> Y -> Z, do(Y), goal Z=1, rest Y=0: the pre-state Z0 is 0 in
        # both contexts, so the intention always fires and Y goes to 1
        m = do_surgery(chain_scm(), "Y")
        f = build_final_model(m, ("Z",), goal("Z", "=", 1))
        r = build_reduction(f, rest_level=0)
        table = reduction_worlds(r)
        assert table.columns == ("X", "Z0", "I", "Y", "Z1")
        assert value_sets(table) == {(0, 0, 1, 1, 1), (1, 0, 1, 1, 1)}

    def test_goal_satisfied_at_rest_never_triggers_intention(self):
        # B = H, rest H=0: the bill is already cheap, I stays 0 everywhere
        m = do_surgery(m1_scm(), "H")
        f = build_final_model(m, ("B",), goal("B", "=", 0), "cheap")
        r = build_reduction(f, rest_level=0)
        table = reduction_worlds(r)
        assert set(table.column("I")) == {0}
        assert set(table.column("H")) == {r.rest}
        assert table.column("B0") == table.column("B1")

    def test_unachievable_goal_is_degenerate(self):
        x = Variable("X", (0, 1))
        y = Variable("Y", (0, 1))
        z = Variable("Z", (0, 1, 2))
        dag = CausalDag(("X", "Y", "Z"), (("X", "Y"), ("Y", "Z")))
        scm = Scm(
            dag,
            (x, y, z),
            {
                "Y": Mechanism("Y", ("X",), {(0,): 0, (1,): 1}),
                "Z": Mechanism("Z", ("Y",), {(0,): 0, (1,): 1}),
            },
        )
        m = do_surgery(scm, "Y")
        f = build_final_model(m, ("Z",), goal("Z", "=", 2))
        with pytest.raises(DegenerateReductionError):
            build_reduction(f)

    @pytest.mark.parametrize(
        "domains, table, goal_level, message",
        [
            # U=0: the goal is reached by A=1, so I fires; U=1: no level
            # reaches it, so I idles; both contexts measure G=0 at rest
            (
                "var U in 0..1\nvar A in 0..1\nvar G in 0..1",
                "(0,0)->0; (0,1)->0; (1,0)->1; (1,1)->0",
                1,
                "intention is not a function of the pre-action goal "
                "measurements: contexts with pre-state (0,) disagree",
            ),
            # pre-states 1 (U=0 fires, U=2 idles) and 0 (U=1 fires, U=3
            # idles) both disagree; the first in product order is blamed
            (
                "var U in 0..3\nvar A in 0..1\nvar G in 0..2",
                "(0,0)->1; (0,1)->0; (0,2)->1; (0,3)->0; "
                "(1,0)->2; (1,1)->2; (1,2)->1; (1,3)->0",
                2,
                "intention is not a function of the pre-action goal "
                "measurements: contexts with pre-state (0,) disagree",
            ),
            # U=0 is met first by A=1, U=1 only by A=2
            (
                "var U in 0..1\nvar A in 0..2\nvar G in 0..2",
                "(0,0)->0; (0,1)->2; (1,0)->1; (1,1)->2; (2,0)->1; (2,1)->1",
                1,
                "no single action level realizes the intention: [1, 2]",
            ),
        ],
        ids=["one-pre-state", "first-in-product-order", "two-action-levels"],
    )
    def test_intention_must_be_one_function_of_the_pre_state(
        self, domains, table, goal_level, message
    ):
        spec = (
            f"{domains}\nedge A -> G\nedge U -> G\n"
            f"mech G = table(A, U) {{ {table} }}\ndo A\n"
            f"final g {{ effects: G; goal: G = {goal_level} }}\n"
        )
        f = load_model(spec).finals["g"]
        with pytest.raises(ReductionError, match=f"^{re.escape(message)}$"):
            build_reduction(f)

    def test_rest_level_must_be_in_domain(self, warm):
        with pytest.raises(ReductionError, match="rest level"):
            build_reduction(warm, rest_level=9)

    def test_default_rest_is_domain_minimum(self, warm):
        assert build_reduction(warm).rest == 0


class TestSplicing:
    def test_splice_preserves_projected_worlds(self, warm_reduction):
        scm = warm_reduction.scm
        remaining = tuple(n for n in scm.names if n != "I")
        before = world_set(enumerate_worlds(scm).project(remaining))
        after = world_set(enumerate_worlds(splice_out(scm, "I")))
        assert before == after

    def test_splice_rejects_exogenous(self, warm_reduction):
        with pytest.raises(ModelStructureError):
            splice_out(warm_reduction.scm, "W")

    def test_rename_round_trip(self):
        scm = chain_scm()
        renamed = rename_variable(scm, "Y", "M")
        assert "M" in renamed.names and "Y" not in renamed.names
        back = rename_variable(renamed, "M", "Y")
        assert value_sets(enumerate_worlds(back)) == value_sets(enumerate_worlds(scm))

    def test_projection_collapses_to_base_variables(self, warm_reduction):
        projected = project_reduction(warm_reduction)
        assert set(projected.names) == {"W", "H", "T", "B"}
        # the weather now drives the heating directly
        assert set(projected.dag.edges) == {
            ("W", "H"),
            ("W", "T"),
            ("H", "T"),
            ("H", "B"),
        }
        assert value_sets(enumerate_worlds(projected).project(("W", "H", "T", "B"))) == {
            (0, 1, 1, 1),
            (1, 0, 1, 0),
        }


class TestStructuralComparison:
    def test_action_listens_to_different_variables(self, warm, warm_reduction):
        cmp = compare_structures(warm, warm_reduction)
        assert cmp.action_listens_final == ("T",)
        assert cmp.action_listens_reduction == ("W",)
        assert cmp.action_wiring_differs

    def test_edge_diff_is_nonempty(self, warm, warm_reduction):
        cmp = compare_structures(warm, warm_reduction)
        assert ("T", "H") in cmp.only_final
        assert ("W", "H") in cmp.only_reduction
        assert cmp.only_final or cmp.only_reduction

    def test_worlds_agree_when_one_level_achieves_the_goal(self, warm, warm_reduction):
        cmp = compare_structures(warm, warm_reduction)
        assert cmp.world_relation == "equal"
        assert cmp.worlds_only_final.rows == () and cmp.worlds_only_reduction.rows == ()

    def test_reduction_subsets_when_goal_is_loose(self):
        # T<2 holds at rest in both contexts, so the reduction never turns
        # the heating on and covers only part of the compatible set
        m = do_surgery(m1_scm(), "H")
        f = build_final_model(m, ("T",), goal("T", "<", 2), "mild")
        cmp = compare_structures(f, build_reduction(f, rest_level=0))
        assert cmp.world_relation == "subset"
        assert (0, 1, 1, 1) in value_sets(cmp.worlds_only_final)

    def test_some_separation_statements_flip(self, warm, warm_reduction):
        cmp = compare_structures(warm, warm_reduction)
        flips = {
            (s.x, s.y, tuple(sorted(s.given))): (a, b)
            for s, a, b in cmp.dsep_disagreements
        }
        # conditioning on T blocks W-H in the final dag but not in the
        # reduction, where W drives H directly
        assert flips[("W", "H", ("T",))] == (True, False)

    def test_degenerate_goal_makes_no_wiring_claim(self):
        # a goal that always holds leaves I and the action constant
        m = do_surgery(m1_scm(), "H")
        f = build_final_model(m, ("B",), goal("B", ">=", 0), "whatever")
        r = build_reduction(f, rest_level=0)
        cmp = compare_structures(f, r)
        assert cmp.action_listens_reduction == ()
        assert not cmp.action_wiring_differs
