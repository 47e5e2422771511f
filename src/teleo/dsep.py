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
(``CausalDag._reachable``), keyed by (x, Z), and ``d_separated`` tests y's
bit in it.  A statement grid over n variables thus walks at most once per
(x, Z) pair instead of once per statement, and two DAGs over the same
nodes in the same order compare every y of one (x, Z) by XOR-ing their two
masks.  The memo lives and dies with its DAG, so two DAGs never share an
entry, whatever their nodes.  ``d_separated`` reads the memo itself and
checks names only for a query it walks for (x and y, then Z in sorted
order, so the unknown name it reports does not hang on the hash seed): a
walked (x, Z) is made of nodes, so a later query with it checks y alone.
"""

from __future__ import annotations

from teleo.errors import UnknownVariableError
from teleo.model import CausalDag, IndependenceStatement

__all__ = ["d_separated", "reachable"]


def d_separated(dag: CausalDag, stmt: IndependenceStatement) -> bool:
    """True iff every trail between the two variables is blocked given Z."""
    position = dag._position
    reached = dag._reachable.get((stmt.x, stmt.given))
    if reached is None:
        for name in (stmt.x, stmt.y):  # reachable checks Z
            if name not in position:
                raise UnknownVariableError(f"unknown variable {name!r}")
        reached = reachable(dag, stmt.x, stmt.given)
    elif stmt.y not in position:  # x and Z are nodes: the walk was made from them
        raise UnknownVariableError(f"unknown variable {stmt.y!r}")
    return not reached >> position[stmt.y] & 1


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
