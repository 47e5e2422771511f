"""Graphical separation queries (d-separation) on causal DAGs.

The blocking rules are the standard ones: chains and forks are blocked by
conditioning on the middle node, colliders are open only when the collider
or one of its descendants is conditioned on.  Every query runs through one
pure-Python kernel, the "Reachable" algorithm of Koller & Friedman
(Probabilistic Graphical Models, Algorithm 3.1): mark the conditioning set
and its ancestors, then walk (node, direction) states outward from x along
active trails.  The per-node parent and child lists are cached per DAG.
"""

from __future__ import annotations

from functools import lru_cache

from teleo.errors import UnknownVariableError
from teleo.model import CausalDag, IndependenceStatement

__all__ = ["d_separated"]


@lru_cache(maxsize=512)
def _adjacency(dag: CausalDag) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    """Parent and child lists of every node, cached per graph."""
    parents: dict[str, list[str]] = {n: [] for n in dag.nodes}
    children: dict[str, list[str]] = {n: [] for n in dag.nodes}
    for p, c in dag.edges:
        parents[c].append(p)
        children[p].append(c)
    return parents, children


def d_separated(dag: CausalDag, stmt: IndependenceStatement) -> bool:
    """True iff every trail between the two variables is blocked given Z."""
    parents, children = _adjacency(dag)
    for name in (stmt.x, stmt.y, *stmt.given):
        if name not in parents:
            raise UnknownVariableError(f"unknown variable {name!r}")
    z = stmt.given

    # phase 1: nodes in Z or with a descendant in Z; a collider there is open
    opens_collider = set(z)
    stack = list(z)
    while stack:
        for p in parents[stack.pop()]:
            if p not in opens_collider:
                opens_collider.add(p)
                stack.append(p)

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
