import random

import pytest

from teleo.dsep import d_separated
from teleo.errors import UnknownVariableError
from teleo.model import CausalDag, IndependenceStatement

from support import all_statements, dsep_oracle, random_dag


def dag(nodes, edges):
    return CausalDag(tuple(nodes), tuple(edges))


def stmt(x, y, *given):
    return IndependenceStatement(x, y, frozenset(given))


class TestBlockingRules:
    def test_chain_blocked_by_middle(self):
        chain = dag("ABC", [("A", "B"), ("B", "C")])
        assert not d_separated(chain, stmt("A", "C"))
        assert d_separated(chain, stmt("A", "C", "B"))

    def test_fork_blocked_by_root(self):
        fork = dag("ABC", [("C", "A"), ("C", "B")])
        assert not d_separated(fork, stmt("A", "B"))
        assert d_separated(fork, stmt("A", "B", "C"))

    def test_collider_blocks_until_conditioned(self):
        collider = dag("ABC", [("A", "C"), ("B", "C")])
        assert d_separated(collider, stmt("A", "B"))
        assert not d_separated(collider, stmt("A", "B", "C"))

    def test_collider_opened_by_descendant(self):
        g = dag("ABCD", [("A", "C"), ("B", "C"), ("C", "D")])
        assert d_separated(g, stmt("A", "B"))
        assert not d_separated(g, stmt("A", "B", "D"))

    def test_disconnected_nodes_separated(self):
        g = dag("AB", [])
        assert d_separated(g, stmt("A", "B"))

    def test_adjacent_nodes_never_separated(self):
        g = dag("ABC", [("A", "B"), ("A", "C")])
        assert not d_separated(g, stmt("A", "B", "C"))

    def test_unknown_variable(self):
        g = dag("AB", [("A", "B")])
        with pytest.raises(UnknownVariableError):
            d_separated(g, stmt("A", "Q"))


class TestOracleAgreement:
    def test_agrees_with_trail_enumeration_oracle(self):
        rng = random.Random(20240817)
        for _ in range(60):
            g = random_dag(rng, rng.randint(2, 5), rng.random())
            for s in all_statements(g):
                assert d_separated(g, s) == dsep_oracle(g, s), (g.edges, s)

