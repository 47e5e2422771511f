"""Shared test helpers: reference oracles and randomized model builders.

The d-separation oracle here is deliberately naive and independent of the
library's reachability kernel: it enumerates every simple trail and applies
the chain/fork/collider blocking rules trail by trail.  The graph oracles
read only an edge list, never a DAG's parent, child or order index:
reachability is a transitive closure, and the topological order is picked one
node at a time.  The factorization oracle likewise shares nothing with the
library's count cross-multiplication: it forms the conditional probabilities
as Fractions and compares them.

The world oracles are the row-wise reading of the library's columnar world
tables: one ``World`` per exogenous combination, each mechanism evaluated
world by world, goals checked comparison by comparison, projections made
world by world.  ``World`` is the oracles' row type; the library keeps every
set of worlds as a ``WorldTable``, and ``worlds_of`` reads one back as
``World``s.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from teleo.model import (
    CausalDag,
    IndependenceStatement,
    Mechanism,
    Scm,
    Variable,
    WorldTable,
    enumerate_worlds,
)
from teleo.errors import EmptyTableError, TeleologyError
from teleo.identification import DependenceCheck
from teleo.intervention import do_surgery
from teleo.teleology import Comparison, GoalPredicate, build_final_model

NAMES = tuple("ABCDEFGH")


@dataclass(frozen=True)
class World:
    """A total assignment of one level to every named variable."""

    names: tuple[str, ...]
    values: tuple[int, ...]

    def __getitem__(self, name: str) -> int:
        return self.values[self.names.index(name)]

    def as_dict(self) -> dict[str, int]:
        return dict(zip(self.names, self.values))

    def project(self, names: tuple[str, ...]) -> "World":
        return World(names, tuple(self[n] for n in names))


def worlds_of(table: WorldTable) -> list[World]:
    """The rows of a world table as ``World``s, in row order."""
    return [World(table.columns, values) for values in table.rows]


def world_set(table: WorldTable) -> frozenset[World]:
    return frozenset(worlds_of(table))


def reachability_oracle(edges) -> set[tuple[str, str]]:
    """Every (a, b) with a directed path of one or more of the ``(parent,
    child)`` edges from a to b, by repeated composition of the edge list
    until nothing is added.  The edges may form cycles."""
    reach = set(edges)
    while True:
        longer = {(a, d) for a, b in reach for c, d in edges if b == c}
        if longer <= reach:
            return reach
        reach |= longer


def topological_oracle(dag: CausalDag) -> tuple[str, ...]:
    """The order that repeatedly takes the earliest-declared node whose
    parents are all placed."""
    order: list[str] = []
    while len(order) < len(dag.nodes):
        order.append(
            next(
                n
                for n in dag.nodes
                if n not in order
                and all(p in order for p, c in dag.edges if c == n)
            )
        )
    return tuple(order)


def dsep_oracle(dag: CausalDag, stmt: IndependenceStatement) -> bool:
    """Brute-force d-separation: every simple trail must be blocked."""
    z = set(stmt.given)
    edge_set = set(dag.edges)
    ancestors_of_z = z | {a for a, b in reachability_oracle(dag.edges) if b in z}

    neighbors = {n: set() for n in dag.nodes}
    for p, c in dag.edges:
        neighbors[p].add(c)
        neighbors[c].add(p)

    trails: list[list[str]] = []

    def dfs(node: str, path: list[str], seen: set[str]) -> None:
        if node == stmt.y:
            trails.append(list(path))
            return
        for nb in sorted(neighbors[node]):
            if nb not in seen:
                seen.add(nb)
                path.append(nb)
                dfs(nb, path, seen)
                path.pop()
                seen.discard(nb)

    dfs(stmt.x, [stmt.x], {stmt.x})

    def active(trail: list[str]) -> bool:
        for i in range(1, len(trail) - 1):
            prev, v, nxt = trail[i - 1], trail[i], trail[i + 1]
            collider = (prev, v) in edge_set and (nxt, v) in edge_set
            if collider:
                if v not in ancestors_of_z:
                    return False
            elif v in z:
                return False
        return True

    return not any(active(t) for t in trails)


def factorization_oracle(
    columns: tuple[str, ...],
    rows,
    stmt: IndependenceStatement,
) -> tuple[bool, set[tuple[int, ...]]]:
    """Whether P(x, y | z) == P(x | z) * P(y | z) in every stratum z of the
    weighted ``(values, weight)`` rows, and the set of strata present."""
    ix, iy = columns.index(stmt.x), columns.index(stmt.y)
    keys = [columns.index(g) for g in sorted(stmt.given)]
    strata: dict[tuple[int, ...], list] = {}
    for values, weight in rows:
        strata.setdefault(tuple(values[k] for k in keys), []).append((values, weight))

    def prob(members, keep) -> Fraction:
        total = sum(w for _, w in members)
        return Fraction(sum(w for v, w in members if keep(v)), total)

    independent = True
    for members in strata.values():
        for a in {v[ix] for v, _ in members}:
            for b in {v[iy] for v, _ in members}:
                joint = prob(members, lambda v: v[ix] == a and v[iy] == b)
                px = prob(members, lambda v: v[ix] == a)
                py = prob(members, lambda v: v[iy] == b)
                if joint != px * py:
                    independent = False
    return independent, set(strata)


def worlds_oracle(scm: Scm) -> list[World]:
    """Every world of the model, built one exogenous combination at a time,
    sorted by value tuple."""
    order = scm.dag.topological_order()
    exogenous = scm.dag.exogenous()
    worlds = set()
    for combo in itertools.product(*(scm.domain(n) for n in exogenous)):
        assignment = dict(zip(exogenous, combo))
        for node in order:
            if node not in assignment:
                assignment[node] = scm.mechanisms[node].evaluate(assignment)
        worlds.add(World(scm.names, tuple(assignment[n] for n in scm.names)))
    return sorted(worlds, key=lambda w: w.values)


def filter_oracle(worlds: list[World], goal: GoalPredicate) -> list[World]:
    """The worlds in which every comparison of the goal holds."""
    return [w for w in worlds if all(c.holds(w[c.variable]) for c in goal.conjuncts)]


def project_oracle(worlds: list[World], names: tuple[str, ...]) -> list[World]:
    return sorted({w.project(names) for w in worlds}, key=lambda w: w.values)


def uniform_oracle(worlds: list[World], stmt: IndependenceStatement) -> bool:
    """Independence under the uniform distribution over ``worlds``."""
    if not worlds:
        raise EmptyTableError("no worlds")
    rows = [(w.values, 1) for w in worlds]
    return factorization_oracle(worlds[0].names, rows, stmt)[0]


def dependence_oracle(
    worlds: list[World], columns: tuple[str, ...], rows, stmt: IndependenceStatement
) -> DependenceCheck:
    """Expected (uniform over ``worlds``) against observed (the weighted
    ``(values, count)`` rows) independence, with the strata only the
    worlds show."""
    if not worlds:
        raise EmptyTableError("no worlds")
    expected, expected_strata = factorization_oracle(
        columns, [(w.values, 1) for w in worlds], stmt
    )
    observed, observed_strata = factorization_oracle(columns, rows, stmt)
    skipped = tuple(sorted(expected_strata - observed_strata))
    return DependenceCheck(stmt, expected, observed, skipped)


def all_statements(dag: CausalDag, max_given: int | None = None):
    """Every (x, y, Z) query over the DAG's nodes."""
    nodes = dag.nodes
    for x, y in itertools.combinations(nodes, 2):
        rest = [n for n in nodes if n not in (x, y)]
        limit = len(rest) if max_given is None else min(max_given, len(rest))
        for k in range(limit + 1):
            for given in itertools.combinations(rest, k):
                yield IndependenceStatement(x, y, frozenset(given))


def random_dag(rng: random.Random, n_nodes: int, edge_prob: float = 0.5) -> CausalDag:
    names = NAMES[:n_nodes]
    order = list(names)
    rng.shuffle(order)
    edges = []
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            if rng.random() < edge_prob:
                edges.append((order[i], order[j]))
    return CausalDag(names, tuple(edges))


def random_scm(
    rng: random.Random,
    max_vars: int = 5,
    max_levels: int = 3,
    edge_prob: float = 0.5,
    min_levels: int = 2,
) -> Scm:
    n = rng.randint(2, max_vars)
    dag = random_dag(rng, n, edge_prob)
    variables = tuple(
        Variable(name, tuple(range(rng.randint(min_levels, max_levels))))
        for name in dag.nodes
    )
    domains = {v.name: v.domain for v in variables}
    mechanisms = {}
    for node in dag.nodes:
        parents = dag.parents(node)
        if not parents:
            continue
        table = {
            combo: rng.choice(domains[node])
            for combo in itertools.product(*(domains[p] for p in parents))
        }
        mechanisms[node] = Mechanism(node, parents, table)
    return Scm(dag, variables, mechanisms)


def random_goal(rng: random.Random, scm: Scm, variables: tuple[str, ...]) -> GoalPredicate:
    """A satisfiable random conjunction over the given variables."""
    picked = rng.sample(variables, rng.randint(1, len(variables)))
    conjuncts = []
    for var in picked:
        domain = scm.domain(var)
        # anchor the constraint on a level that exists, so satisfiability
        # never needs a retry loop (domains always have a second level for !=)
        level = rng.choice(domain)
        op = rng.choice(["=", "<=", ">=", "!="])
        conjuncts.append(Comparison(var, op, level))
    goal = GoalPredicate(tuple(conjuncts))
    goal.validate(scm)
    return goal


def random_final(rng: random.Random, scm: Scm):
    """A random final model over a target that has descendants.

    Effects are drawn from the target's direct children; reversal can still
    close a cycle through a longer path, in which case None is returned
    (the construction error is the library's documented behaviour).
    """
    targets = [n for n in scm.dag.nodes if scm.dag.children(n)]
    if not targets:
        return None
    target = rng.choice(targets)
    m = do_surgery(scm, target)
    children = scm.dag.children(target)
    effects = tuple(rng.sample(children, rng.randint(1, len(children))))
    goal = random_goal(rng, scm, effects)
    try:
        return build_final_model(m, effects, goal)
    except TeleologyError:
        return None


def m1_scm() -> Scm:
    """The four-variable room model used throughout the golden tests."""
    w = Variable("W", (0, 1))
    h = Variable("H", (0, 1))
    t = Variable("T", (0, 1, 2))
    b = Variable("B", (0, 1))
    dag = CausalDag(("W", "H", "T", "B"), (("W", "T"), ("H", "T"), ("H", "B")))
    mechanisms = {
        "T": Mechanism.sum_of(t, (w, h)),
        "B": Mechanism.sum_of(b, (h,)),
    }
    return Scm(dag, (w, h, t, b), mechanisms)


def value_sets(table: WorldTable) -> set[tuple[int, ...]]:
    return set(table.rows)


def chain_scm() -> Scm:
    """X -> Y -> Z with identity mechanisms, all binary."""
    x = Variable("X", (0, 1))
    y = Variable("Y", (0, 1))
    z = Variable("Z", (0, 1))
    dag = CausalDag(("X", "Y", "Z"), (("X", "Y"), ("Y", "Z")))
    mechanisms = {
        "Y": Mechanism("Y", ("X",), {(0,): 0, (1,): 1}),
        "Z": Mechanism("Z", ("Y",), {(0,): 0, (1,): 1}),
    }
    return Scm(dag, (x, y, z), mechanisms)


__all__ = [
    "World",
    "worlds_of",
    "world_set",
    "reachability_oracle",
    "topological_oracle",
    "dsep_oracle",
    "factorization_oracle",
    "worlds_oracle",
    "filter_oracle",
    "project_oracle",
    "uniform_oracle",
    "dependence_oracle",
    "all_statements",
    "random_dag",
    "random_scm",
    "random_goal",
    "random_final",
    "m1_scm",
    "chain_scm",
    "value_sets",
    "enumerate_worlds",
]
