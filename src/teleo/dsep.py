"""Graphical separation queries (d-separation) on causal DAGs.

The blocking rules are the standard ones: chains and forks are blocked by
conditioning on the middle node, colliders are open only when the collider
or one of its descendants is conditioned on.  Every query runs through one
pure-Python kernel, the "Reachable" algorithm of Koller & Friedman
(Probabilistic Graphical Models, Algorithm 3.1): mark the conditioning set
and its ancestors, then walk (node, direction) states outward from x along
active trails.  Parent, child and ancestor lists come from the DAG's own
index (``CausalDag``).
"""

from __future__ import annotations

from teleo.errors import UnknownVariableError
from teleo.model import CausalDag, IndependenceStatement

__all__ = ["d_separated"]


def d_separated(dag: CausalDag, stmt: IndependenceStatement) -> bool:
    """True iff every trail between the two variables is blocked given Z."""
    # the walk subscripts the DAG's own parent and child lists: once the
    # names are checked every lookup succeeds, and a method call per step
    # made the kernel about a fifth slower
    parents, children = dag._parents, dag._children
    for name in (stmt.x, stmt.y, *stmt.given):
        if name not in parents:
            raise UnknownVariableError(f"unknown variable {name!r}")
    z = stmt.given

    # phase 1: nodes in Z or with a descendant in Z; a collider there is open
    opens_collider = dag.ancestors(z) | z

    # phase 2: walk (node, up) states from x, where up records that the node
    # was entered from a child and down that it was entered from a parent
    start = (stmt.x, True)
    seen = {start}
    todo = [start]
    while todo:
        v, up = todo.pop()
        if v == stmt.y:
            return False
        if up:
            if v in z:
                continue  # chain or fork through an observed node is blocked
            steps = [(p, True) for p in parents[v]]
            steps += [(c, False) for c in children[v]]
        else:
            steps = [] if v in z else [(c, False) for c in children[v]]
            if v in opens_collider:
                steps += [(p, True) for p in parents[v]]
        for state in steps:
            if state not in seen:
                seen.add(state)
                todo.append(state)
    return True
