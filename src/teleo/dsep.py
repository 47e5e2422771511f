"""Graphical separation queries (d-separation) on causal DAGs.

The blocking rules are the standard ones: chains and forks are blocked by
conditioning on the middle node, colliders are open only when the collider
or one of its descendants is conditioned on.  Every query runs through one
pure-Python kernel, the "Reachable" algorithm of Koller & Friedman
(Probabilistic Graphical Models, Algorithm 3.1): walk (node, direction)
states outward from x along active trails.  The kernel keeps its states as
node bitmasks in the DAG's bit order (bit i is ``dag.nodes[i]``, see
``CausalDag``): the walk advances two frontier masks, the nodes entered
from a child (going up) and those entered from a parent (going down), one
hop at a time until neither has a node it has not had before.

One deviation from Reachable: it first marks the ancestors of Z, which
pass up from the down state as open colliders; here only Z's own nodes do.
The walk reaches the same nodes, because a node entered going down goes on
down to the first Z node of each directed path into Z, which steps up and
climbs back to it in the up state, with the same successors.

One walk from x given Z reaches every node d-connected to x given Z, so it
answers the query for every y at once.  ``reachable`` walks only on the
first query for its (x, Z): the reached mask is kept in the DAG's own memo
(``CausalDag._reachable``), keyed by (x, Z).  So the statement grid
(``teleology.implied_grid``) reads one mask per (x, Z) and tests each y's
bit, and two DAGs over the same nodes in the same order compare every y of
one (x, Z) by XOR-ing their two masks (``reduction.compare_structures``).
The memo lives and dies with its DAG, so two DAGs never share an entry,
whatever their nodes.  ``d_separated`` answers one statement from the same
memo.  It checks x and y itself, and ``reachable`` checks Z, in sorted
order, when it walks (so the unknown name reported does not hang on the
hash seed): a walked (x, Z) is made of nodes.
"""

from __future__ import annotations

from teleo.model import CausalDag, IndependenceStatement

__all__ = ["d_separated", "reachable"]


def d_separated(dag: CausalDag, stmt: IndependenceStatement) -> bool:
    """True iff every trail between the two variables is blocked given Z."""
    dag._at(stmt.x)  # x and y are checked here: a memo hit checks no name
    y = dag._at(stmt.y)
    return not reachable(dag, stmt.x, stmt.given) >> y & 1


def reachable(dag: CausalDag, x: str, given: frozenset[str]) -> int:
    """The mask of every node joined to ``x`` by a trail that is active
    given ``given``, ``x`` itself included; bit i is ``dag.nodes[i]``.

    Walked on the first call for its (x, given) and kept in the DAG's memo;
    an unknown name is looked for in x, then in ``sorted(given)``.
    """
    key = (x, given)
    reached = dag._reachable.get(key)
    if reached is None:
        start, z = dag._mask((x,)), dag._mask(sorted(given))
        reached = dag._reachable[key] = _walk(dag, start, z)
    return reached


def _walk(dag: CausalDag, start: int, z: int) -> int:
    """The Reachable walk from the node of ``start`` given the nodes of
    ``z``, on masks; returns every node it reaches."""
    parents, children, hop = dag._parents_masks, dag._children_masks, dag._hop
    # up holds the nodes entered from a child (x counts as one), down those
    # entered from a parent.  A node in Z passes nothing on (a chain or
    # fork through it is blocked) except, entered from a parent, up to its
    # own parents: a collider in Z, or the first Z node below one.
    up = seen_up = start
    down = seen_down = 0
    while up or down:
        to_up = hop(parents, (up & ~z) | (down & z))
        to_down = hop(children, (up | down) & ~z)
        up = to_up & ~seen_up
        seen_up |= up
        down = to_down & ~seen_down
        seen_down |= down
    return seen_up | seen_down
