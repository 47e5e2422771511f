from fractions import Fraction

import pytest

from teleo.errors import UnknownVariableError
from teleo.intervention import (
    do_surgery,
    enumerate_worlds_star,
    interventional_distribution,
)
from teleo.model import (
    CausalDag,
    Mechanism,
    Scm,
    Variable,
    conditional_distribution,
    enumerate_worlds,
)

from support import chain_scm, m1_scm, value_sets, world_set


class TestSurgery:
    def test_room_model_target_already_exogenous(self):
        scm = m1_scm()
        m = do_surgery(scm, "H")
        assert m.surgered_dag.edges == scm.dag.edges  # nothing to remove
        assert set(m.surgered_dag.nodes) == set(scm.dag.nodes)

    def test_chain_surgery_removes_only_inbound(self):
        m = do_surgery(chain_scm(), "Y")
        assert m.surgered_dag.edges == (("Y", "Z"),)
        assert m.surgered_dag.nodes == ("X", "Y", "Z")  # X stays in the model
        assert m.model.domain("X") == (0, 1)

    def test_target_becomes_exogenous(self):
        m = do_surgery(chain_scm(), "Y")
        assert "Y" in m.model.dag.exogenous()
        assert "Y" not in m.model.mechanisms

    def test_other_mechanisms_untouched(self):
        base = chain_scm()
        m = do_surgery(base, "Y")
        assert m.model.mechanisms["Z"].table == base.mechanisms["Z"].table

    def test_unknown_target(self):
        with pytest.raises(UnknownVariableError):
            do_surgery(m1_scm(), "Q")


class TestStarWorlds:
    def test_exogenous_target_reproduces_base_table(self):
        scm = m1_scm()
        star = enumerate_worlds_star(do_surgery(scm, "H"))
        assert world_set(star) == world_set(enumerate_worlds(scm))

    def test_chain_do_y_frees_both_settings(self):
        # 2 x 2 free settings of (X, Y); Z copies Y
        star = enumerate_worlds_star(do_surgery(chain_scm(), "Y"))
        assert value_sets(star) == {(0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 1, 1)}

    def test_world_count(self):
        star = enumerate_worlds_star(do_surgery(chain_scm(), "Y"))
        assert len(star) == 2 * 2


class TestInterventionalDistribution:
    def test_setting_heating_on_splits_temperature(self):
        m = do_surgery(m1_scm(), "H")
        assert interventional_distribution(m, 1, "T") == {
            1: Fraction(1, 2),
            2: Fraction(1, 2),
        }

    def test_setting_heating_off_pins_the_bill(self):
        m = do_surgery(m1_scm(), "H")
        assert interventional_distribution(m, 0, "B") == {0: Fraction(1)}

    def test_query_of_target_is_point_mass(self):
        m = do_surgery(m1_scm(), "H")
        assert interventional_distribution(m, 1, "H") == {1: Fraction(1)}

    def test_value_outside_domain(self):
        m = do_surgery(m1_scm(), "H")
        with pytest.raises(UnknownVariableError):
            interventional_distribution(m, 7, "T")


def confounded_pair() -> Scm:
    """A <- C -> B with identity mechanisms: seeing A=1 is not doing A=1."""
    c = Variable("C", (0, 1))
    a = Variable("A", (0, 1))
    b = Variable("B", (0, 1))
    dag = CausalDag(("C", "A", "B"), (("C", "A"), ("C", "B")))
    ident = {(0,): 0, (1,): 1}
    return Scm(
        dag,
        (c, a, b),
        {"A": Mechanism("A", ("C",), ident), "B": Mechanism("B", ("C",), ident)},
    )


class TestSeeVersusDo:
    def test_observation_and_intervention_differ_under_confounding(self):
        scm = confounded_pair()
        seeing = conditional_distribution(enumerate_worlds(scm), "B", {"A": 1})
        doing = interventional_distribution(do_surgery(scm, "A"), 1, "B")
        assert seeing == {1: Fraction(1)}
        assert doing == {0: Fraction(1, 2), 1: Fraction(1, 2)}
        assert seeing != doing
