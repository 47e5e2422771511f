import copy
from pathlib import Path

import pytest

import teleo.intervention
from teleo.errors import (
    ComparisonError,
    EnumerationBudgetError,
    GoalError,
    TeleologyError,
)
from teleo.identification import load_dataset, rank_hypotheses
from teleo.intervention import do_surgery, enumerate_worlds_star
from teleo.model import CausalDag, Mechanism, Scm, Variable
from teleo.speclang import load_model
from teleo.teleology import (
    Comparison,
    GoalPredicate,
    build_final_model,
    compatible_worlds,
    distinguishable,
    enumerate_goal_hypotheses,
    goal,
    implied_dependencies,
)

from support import chain_scm, m1_scm, value_sets

SPEC = Path(__file__).resolve().parents[1] / "models" / "heating.tele"


@pytest.fixture(scope="module")
def room_star():
    return do_surgery(m1_scm(), "H")


@pytest.fixture(scope="module")
def finals(room_star):
    return {
        "warm": build_final_model(room_star, ("T",), goal("T", "=", 1), "warm"),
        "mild": build_final_model(room_star, ("T",), goal("T", "<", 2), "mild"),
        "notcold": build_final_model(room_star, ("T",), goal("T", ">", 0), "notcold"),
        "cheap": build_final_model(room_star, ("B",), goal("B", "=", 0), "cheap"),
        "costly": build_final_model(room_star, ("B",), goal("B", "=", 1), "costly"),
    }


class TestFinalDagConstruction:
    def test_temperature_goal_reverses_one_arrow(self, finals):
        # the action listens to T: W->T stays, T->do(H), do(H)->B
        assert set(finals["warm"].final_dag.edges) == {
            ("W", "T"),
            ("T", "H"),
            ("H", "B"),
        }

    def test_bill_goal_listens_to_the_bill(self, finals):
        assert set(finals["cheap"].final_dag.edges) == {
            ("W", "T"),
            ("H", "T"),
            ("B", "H"),
        }

    def test_both_effects_intended(self, room_star):
        f = build_final_model(
            room_star, ("T", "B"), GoalPredicate((Comparison("T", "=", 1),))
        )
        assert set(f.final_dag.edges) == {("W", "T"), ("T", "H"), ("B", "H")}
        # direct-children reversal preserves the edge count
        assert len(f.final_dag.edges) == len(room_star.surgered_dag.edges)

    def test_non_adjacent_effect_adds_direct_arc(self):
        # chain X->Y->Z, do(X), intending both Y and Z: Y's arrow reverses,
        # Z gains a direct arc into the action, nothing is removed
        m = do_surgery(chain_scm(), "X")
        f = build_final_model(m, ("Y", "Z"), goal("Z", "=", 1))
        assert set(f.final_dag.edges) == {("Y", "X"), ("Y", "Z"), ("Z", "X")}
        assert len(f.final_dag.edges) == len(m.surgered_dag.edges) + 1

    def test_deep_effect_alone_creates_cycle(self):
        m = do_surgery(chain_scm(), "X")
        with pytest.raises(TeleologyError, match="cycle"):
            build_final_model(m, ("Z",), goal("Z", "=", 1))

    def test_intended_effects_must_be_descendants(self, room_star):
        with pytest.raises(TeleologyError, match="descendants"):
            build_final_model(room_star, ("W",), goal("W", "=", 1))

    def test_goal_must_stay_inside_intended_effects(self, room_star):
        with pytest.raises(TeleologyError, match="outside"):
            build_final_model(room_star, ("B",), goal("T", "=", 1))

    def test_unsatisfiable_goal_rejected(self, room_star):
        with pytest.raises(GoalError, match="satisfied"):
            build_final_model(room_star, ("T",), goal("T", "=", 5))

    def test_empty_intended_effects_rejected(self, room_star):
        with pytest.raises(TeleologyError):
            build_final_model(room_star, (), goal("T", "=", 1))

    def test_mechanisms_untouched_by_construction(self, room_star):
        before = copy.deepcopy(room_star.base.mechanisms)
        build_final_model(room_star, ("T",), goal("T", "=", 1))
        after = room_star.base.mechanisms
        assert {k: m.table for k, m in before.items()} == {
            k: m.table for k, m in after.items()
        }


class TestCompatibleWorlds:
    def test_temperature_goal_sets(self, finals):
        assert value_sets(compatible_worlds(finals["warm"])) == {
            (1, 0, 1, 0),
            (0, 1, 1, 1),
        }
        assert value_sets(compatible_worlds(finals["mild"])) == {
            (0, 0, 0, 0),
            (1, 0, 1, 0),
            (0, 1, 1, 1),
        }
        assert value_sets(compatible_worlds(finals["notcold"])) == {
            (1, 0, 1, 0),
            (0, 1, 1, 1),
            (1, 1, 2, 1),
        }

    def test_bill_goal_sets(self, finals):
        assert value_sets(compatible_worlds(finals["cheap"])) == {
            (0, 0, 0, 0),
            (1, 0, 1, 0),
        }
        assert value_sets(compatible_worlds(finals["costly"])) == {
            (0, 1, 1, 1),
            (1, 1, 2, 1),
        }

    def test_subset_of_intervention_worlds(self, finals):
        star = enumerate_worlds_star(finals["warm"].mstar).world_set
        for f in finals.values():
            assert compatible_worlds(f).world_set <= star

    def test_unreachable_goal_is_a_verdict_not_an_error(self):
        # Z inherits only 0/1 from Y, so Z=2 is satisfiable on the domain
        # but no possible world reaches it
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
        assert len(compatible_worlds(f)) == 0


class TestWorldTablesAreShared:
    def test_each_table_is_computed_once_per_object(self, finals):
        f = finals["warm"]
        assert compatible_worlds(f) is compatible_worlds(f)
        assert enumerate_worlds_star(f.mstar) is enumerate_worlds_star(f.mstar)

    def test_ranking_enumerates_once_per_surgered_model(self, monkeypatch):
        calls = []
        original = teleo.intervention.enumerate_worlds

        def counting(scm):
            calls.append(scm)
            return original(scm)

        monkeypatch.setattr(teleo.intervention, "enumerate_worlds", counting)
        compiled = load_model(SPEC.read_text())
        m = compiled.mstar
        candidates = [
            build_final_model(m, h.effects, h.goal, name=h.label)
            for h in enumerate_goal_hypotheses(m, max_effects=2)
        ]
        data = load_dataset("W,H,T,B\n1,0,1,0\n0,1,1,1\n", compiled.scm)
        ranking = rank_hypotheses(candidates, data)
        assert len(ranking) == len(candidates) > 1
        assert len(calls) == 1 and calls[0] is m.model


class TestImpliedDependencies:
    def lookup(self, reports, x, y, given=frozenset()):
        for r in reports:
            if {r.statement.x, r.statement.y} == {x, y} and r.statement.given == given:
                return r
        raise AssertionError("statement not reported")

    def test_temperature_goal_couples_weather_and_heating(self, finals):
        reports = implied_dependencies(finals["warm"])
        r = self.lookup(reports, "W", "H")
        assert not r.graph_separated  # chain W -> T -> do(H)
        assert not r.dist_independent

    def test_bill_goal_decouples_weather_and_heating(self, finals):
        reports = implied_dependencies(finals["cheap"])
        r = self.lookup(reports, "W", "H")
        assert r.graph_separated  # W and H meet at the collider T
        assert r.dist_independent

    def test_directed_chain_pair_is_dependent(self, finals):
        # W -> T -> do(H) -> B is a directed chain in the warm final dag
        reports = implied_dependencies(finals["warm"])
        r = self.lookup(reports, "W", "B")
        assert not r.graph_separated
        assert not r.dist_independent

    def test_report_covers_all_pairs_and_singletons(self, finals):
        reports = implied_dependencies(finals["warm"])
        # 6 pairs, each with {} plus two singleton conditioning sets
        assert len(reports) == 6 * 3


class TestDistinguishability:
    def test_temperature_vs_bill_goal(self, finals):
        v = distinguishable(finals["warm"], finals["cheap"])
        assert v.distinguishable
        assert {w.values for w in v.witnesses} == {(0, 0, 0, 0), (0, 1, 1, 1)}

    def test_identical_goals_not_distinguishable(self, room_star, finals):
        twin = build_final_model(room_star, ("T",), goal("T", "=", 1), "twin")
        v = distinguishable(finals["warm"], twin)
        assert not v.distinguishable
        assert v.witnesses == ()

    def test_never_hot_vs_never_cold(self, finals):
        v = distinguishable(finals["mild"], finals["notcold"])
        assert v.distinguishable
        assert {w.values for w in v.witnesses} == {(0, 0, 0, 0), (1, 1, 2, 1)}

    def test_symmetry(self, finals):
        a = distinguishable(finals["warm"], finals["cheap"])
        b = distinguishable(finals["cheap"], finals["warm"])
        assert a.distinguishable == b.distinguishable
        assert a.only_first == b.only_second and a.only_second == b.only_first

    def test_mismatched_bases_rejected(self, finals):
        other = do_surgery(chain_scm(), "Y")
        f = build_final_model(other, ("Z",), goal("Z", "=", 1))
        with pytest.raises(ComparisonError):
            distinguishable(finals["warm"], f)


class TestHypothesisEnumeration:
    def test_room_model_candidates(self, room_star):
        hyps = enumerate_goal_hypotheses(room_star, max_effects=1)
        labels = [h.label for h in hyps]
        assert labels == ["T=0", "T=1", "T=2", "B=0", "B=1"]
        # T=0 is reachable through the all-zero world, so it stays
        assert value_sets(next(h.worlds for h in hyps if h.label == "T=0")) == {
            (0, 0, 0, 0)
        }

    def test_chain_depth_candidates(self):
        # how deep does the intention reach along X -> Y -> Z?
        m = do_surgery(chain_scm(), "X")
        hyps = enumerate_goal_hypotheses(m, max_effects=2)
        assert {h.effects for h in hyps} == {("Y",), ("Z",), ("Y", "Z")}

    def test_fork_breadth_candidates(self):
        # which branch of the fork was the point?
        a = Variable("A", (0, 1))
        b = Variable("B", (0, 1))
        c = Variable("C", (0, 1))
        dag = CausalDag(("A", "B", "C"), (("A", "B"), ("A", "C")))
        ident = {(0,): 0, (1,): 1}
        scm = Scm(
            dag,
            (a, b, c),
            {"B": Mechanism("B", ("A",), ident), "C": Mechanism("C", ("A",), ident)},
        )
        m = do_surgery(scm, "A")
        hyps = enumerate_goal_hypotheses(m, max_effects=2)
        assert {h.effects for h in hyps} == {("B",), ("C",), ("B", "C")}

    def test_unreachable_candidates_dropped(self):
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
        hyps = enumerate_goal_hypotheses(m, max_effects=1)
        assert "Z=2" not in [h.label for h in hyps]

    def test_budget_cap(self):
        m = do_surgery(m1_scm(), "H")
        with pytest.raises(EnumerationBudgetError) as exc:
            enumerate_goal_hypotheses(m, max_effects=2, cap=3)
        assert exc.value.required > 3
        # the cap is checked before the surgered world table is built
        assert "worlds" not in m.__dict__

    def test_candidates_come_with_their_worlds(self, room_star):
        hyps = enumerate_goal_hypotheses(room_star, max_effects=2)
        star = enumerate_worlds_star(room_star).world_set
        for h in hyps:
            assert h.worlds.world_set <= star
            assert all(h.goal.holds(w) for w in h.worlds)
