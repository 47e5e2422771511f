import random

import pytest

from teleo.dsep import d_separated, reachable
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

    def test_collider_opened_by_a_descendant_two_levels_down(self):
        # A -> C <- B with C -> D -> E: the walk from A goes down to E, steps
        # up from it and climbs back to C, from which it reaches B
        g = dag("ABCDE", [("A", "C"), ("B", "C"), ("C", "D"), ("D", "E")])
        assert d_separated(g, stmt("A", "B"))
        assert not d_separated(g, stmt("A", "B", "E"))
        assert not d_separated(g, stmt("A", "B", "D", "E"))
        assert reachable(g, "A", frozenset("E")) == 0b11111
        assert reachable(g, "A", frozenset()) == 0b11101  # all but B

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

    def test_unknown_variable_is_named_before_and_after_a_walk(self):
        # the first unknown of x, y and Z is named, whether (x, Z) is walked
        # for the query or was walked for an earlier one
        g = dag("ABC", [("A", "B")])
        for query, name in (("QR", "Q"), ("ARQ", "R"), ("AQ", "Q")):
            with pytest.raises(UnknownVariableError, match=f"^unknown variable '{name}'$"):
                d_separated(g, stmt(*query))
        assert d_separated(g, stmt("A", "C"))
        with pytest.raises(UnknownVariableError, match="^unknown variable 'Q'$"):
            d_separated(g, stmt("A", "Q"))

    def test_unknown_conditioning_names_are_checked_in_sorted_order(self):
        # a set whose iteration order does not start at its least name, under
        # this process's hash seed; both entry points name the least one
        sets = (frozenset(f"Q{c}{i}" for i in range(5)) for c in "abcdefgh")
        names = next(s for s in sets if next(iter(s)) != min(s))
        g = dag("XY", [("X", "Y")])
        match = f"^unknown variable '{min(names)}'$"
        with pytest.raises(UnknownVariableError, match=match):
            d_separated(g, stmt("X", "Y", *names))
        with pytest.raises(UnknownVariableError, match=match):
            reachable(g, "X", names)


class TestOracleAgreement:
    def test_agrees_with_trail_enumeration_oracle(self):
        rng = random.Random(20240817)
        for _ in range(60):
            g = random_dag(rng, rng.randint(2, 5), rng.random())
            for s in all_statements(g):
                assert d_separated(g, s) == dsep_oracle(g, s), (g.edges, s)

