"""Discrete deterministic causal models and their possible-worlds semantics.

A model is a DAG over named variables with finite integer domains, plus one
deterministic mechanism (a total lookup table) per endogenous variable.
Exogenous variables range freely over their domains, so the set of worlds
consistent with the model is finite and enumerable: one world per combination
of exogenous values.

A world table is the one representation of a set of worlds: it stores
them as sorted, distinct integer value tuples and builds each variable's
column once, on first use.  Enumeration fills every endogenous column in one
pass per mechanism, goal filters test the goal variables' columns,
independence queries count column cells, and set comparisons take the rows
one table has and another lacks (``WorldTable.outside``).

World tables carry a uniform weighting over their members.  All probability
comparisons are exact.  Independence is decided by one count-weighted
kernel, ``factorization``, which cross-multiplies integer counts in every
conditioning stratum of a cell table: world tables count each world once,
datasets add their observed counts.  Distributions are returned as
Fractions.  There is no tolerance anywhere in this module.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from teleo.errors import (
    EmptyTableError,
    ModelStructureError,
    UnknownVariableError,
)

__all__ = [
    "Variable",
    "CausalDag",
    "Mechanism",
    "check_parents",
    "check_table",
    "Scm",
    "WorldTable",
    "IndependenceStatement",
    "statement_grid",
    "row_mask",
    "propagate",
    "enumerate_worlds",
    "factorization",
    "uniform_independent",
    "conditional_distribution",
    "verify_mechanism_consistency",
]


def _check_identifier(name: str) -> None:
    if not name or not name.replace("_", "a").isalnum() or name[0].isdigit():
        raise ModelStructureError(f"invalid variable name {name!r}")


@dataclass(frozen=True)
class Variable:
    """A named discrete variable with an ordered domain of integer levels."""

    name: str
    domain: tuple[int, ...]

    def __post_init__(self):
        _check_identifier(self.name)
        object.__setattr__(self, "domain", tuple(self.domain))
        if len(self.domain) < 2:
            raise ModelStructureError(
                f"variable {self.name}: domain must have at least 2 levels"
            )
        if any(b <= a for a, b in zip(self.domain, self.domain[1:])):
            raise ModelStructureError(
                f"variable {self.name}: domain levels must be strictly increasing"
            )


@dataclass(frozen=True)
class CausalDag:
    """Directed acyclic graph over variable names.

    ``nodes`` keeps declaration order, which fixes column order in every
    printed table.  Edges are kept in declaration order as well; equality,
    hashing and ``repr`` use only these two tuples.

    This is the one index of the graph: construction validates it and builds
    each node's parent and child lists (in edge-declaration order) and the
    topological order once.  Every query reads them, and so does the
    d-separation kernel (``dsep``), which subscripts the lists directly.
    """

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        parents: dict[str, list[str]] = {}
        children: dict[str, list[str]] = {}
        for n in self.nodes:
            if n in parents:
                raise ModelStructureError(f"duplicate node {n!r}")
            parents[n] = []
            children[n] = []
        edge_set = set()
        for parent, child in self.edges:
            if parent not in parents:
                raise ModelStructureError(f"edge endpoint {parent!r} is not a node")
            if child not in parents:
                raise ModelStructureError(f"edge endpoint {child!r} is not a node")
            if parent == child:
                raise ModelStructureError(f"self-loop on {parent!r}")
            if (parent, child) in edge_set:
                raise ModelStructureError(f"duplicate edge {parent!r} -> {child!r}")
            edge_set.add((parent, child))
            parents[child].append(parent)
            children[parent].append(child)
        for name, lists in (("_parents", parents), ("_children", children)):
            object.__setattr__(self, name, {n: tuple(v) for n, v in lists.items()})
        object.__setattr__(self, "_order", self._kahn())

    def _kahn(self) -> tuple[str, ...]:
        """Kahn's algorithm; of the ready nodes the earliest declared goes
        first.  Raises on cycles."""
        position = {n: i for i, n in enumerate(self.nodes)}
        indegree = {n: len(p) for n, p in self._parents.items()}
        ready = [position[n] for n, d in indegree.items() if d == 0]  # sorted: a heap
        order: list[str] = []
        while ready:
            v = self.nodes[heapq.heappop(ready)]
            order.append(v)
            for c in self._children[v]:
                indegree[c] -= 1
                if indegree[c] == 0:
                    heapq.heappush(ready, position[c])
        if len(order) != len(self.nodes):
            stuck = sorted(n for n, d in indegree.items() if d > 0)
            raise ModelStructureError(f"graph has a cycle through {', '.join(stuck)}")
        return tuple(order)

    def parents(self, node: str) -> tuple[str, ...]:
        """Parents of ``node`` in edge-declaration order."""
        return self._lookup(self._parents, node)

    def children(self, node: str) -> tuple[str, ...]:
        """Children of ``node`` in edge-declaration order."""
        return self._lookup(self._children, node)

    def ancestors(self, nodes: Iterable[str]) -> set[str]:
        """Every strict ancestor of any of ``nodes``."""
        return self._reach(self._parents, nodes)

    def descendants(self, node: str) -> tuple[str, ...]:
        """All strict descendants of ``node``, in declaration order."""
        reached = self._reach(self._children, (node,))
        return tuple(n for n in self.nodes if n in reached)

    def exogenous(self) -> tuple[str, ...]:
        return tuple(n for n in self.nodes if not self._parents[n])

    def endogenous(self) -> tuple[str, ...]:
        return tuple(n for n in self.nodes if self._parents[n])

    def topological_order(self) -> tuple[str, ...]:
        """Kahn's order with declaration-order tie breaking, computed once at
        construction."""
        return self._order

    def _reach(
        self, step: Mapping[str, tuple[str, ...]], start: Iterable[str]
    ) -> set[str]:
        """The nodes reached from ``start`` by one or more ``step`` hops."""
        reached: set[str] = set()
        frontier = [self._lookup(step, n) for n in start]
        while frontier:
            for v in frontier.pop():
                if v not in reached:
                    reached.add(v)
                    frontier.append(step[v])
        return reached

    @staticmethod
    def _lookup(index: Mapping[str, tuple[str, ...]], node: str) -> tuple[str, ...]:
        try:
            return index[node]
        except KeyError:
            raise UnknownVariableError(f"unknown variable {node!r}") from None


@dataclass(frozen=True)
class Mechanism:
    """Deterministic assignment of a child from its parents.

    ``table`` maps each combination of parent levels (a tuple aligned with
    ``parents``) to a child level.  Totality over the parents' domains is
    validated when the mechanism is attached to a model (``check_table``).
    """

    child: str
    parents: tuple[str, ...]
    table: Mapping[tuple[int, ...], int]

    def __post_init__(self):
        object.__setattr__(self, "parents", tuple(self.parents))
        object.__setattr__(
            self, "table", {tuple(k): v for k, v in dict(self.table).items()}
        )
        if not self.parents:
            raise ModelStructureError(
                f"mechanism for {self.child}: needs at least one parent"
            )
        if len(set(self.parents)) != len(self.parents):
            raise ModelStructureError(
                f"repeated parent in mechanism for {self.child}"
            )

    def evaluate(self, assignment: Mapping[str, int]) -> int:
        return self.table[tuple(assignment[p] for p in self.parents)]

    @classmethod
    def sum_of(cls, child: Variable, parents: Iterable[Variable]) -> "Mechanism":
        """Child takes the sum of its parents' values.

        The sum must land inside the child's domain for every combination;
        no clamping is applied.
        """
        parents = tuple(parents)
        combos = itertools.product(*(p.domain for p in parents))
        table = {combo: sum(combo) for combo in combos}
        mech = cls(child.name, tuple(p.name for p in parents), table)
        for combo, total in mech.table.items():
            if total not in child.domain:
                raise ModelStructureError(
                    f"sum {total} of {dict(zip(mech.parents, combo))} is outside "
                    f"domain {child.domain} of {child.name}; widen the domain"
                )
        return mech


def check_parents(dag: CausalDag, child: str, parents: Sequence[str]) -> None:
    """A mechanism drives an endogenous node from exactly its DAG parents,
    listed in any order."""
    dag_parents = dag.parents(child)
    if not dag_parents:
        raise ModelStructureError(
            f"{child} has no inbound edges; exogenous variables take no mechanism"
        )
    if set(parents) != set(dag_parents):
        raise ModelStructureError(
            f"mechanism parents ({', '.join(parents)}) do not match the "
            f"edges into {child} ({', '.join(dag_parents)})"
        )


def check_table(mech: Mechanism, variables: Mapping[str, Variable]) -> None:
    """A mechanism's table maps every combination of its parents' levels,
    and nothing else, into its child's domain.  Rows are checked in table
    order, then totality."""
    expected = set(itertools.product(*(variables[p].domain for p in mech.parents)))
    domain = variables[mech.child].domain
    for key, value in mech.table.items():
        if key not in expected:
            raise ModelStructureError(
                f"row {key} is outside the parent domains of {mech.child}"
            )
        if value not in domain:
            raise ModelStructureError(
                f"value {value} outside domain {domain} of {mech.child}"
            )
    missing = expected - set(mech.table)
    if missing:
        raise ModelStructureError(
            f"mechanism for {mech.child} is not total: no entry for parent "
            f"values {min(missing)}"
        )


@dataclass(frozen=True)
class Scm:
    """A causal DAG with one deterministic mechanism per endogenous node.

    ``worlds`` is the model's world table, enumerated on first use and
    shared by every later reader.  That is sound because the object is
    frozen and copies its mechanisms at construction; callers must not
    mutate ``mechanisms`` in place.
    """

    dag: CausalDag
    variables: tuple[Variable, ...]
    mechanisms: Mapping[str, Mechanism]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "mechanisms", dict(self.mechanisms))
        by_name = {v.name: v for v in self.variables}
        if len(by_name) != len(self.variables):
            raise ModelStructureError("duplicate variable declaration")
        if set(by_name) != set(self.dag.nodes):
            raise ModelStructureError("dag nodes and declared variables differ")
        for name in self.mechanisms:
            if name not in by_name:
                raise ModelStructureError(
                    f"mechanism filed under {name}, which is not a node"
                )
        for node in self.dag.nodes:
            mech = self.mechanisms.get(node)
            if mech is None:
                if self.dag.parents(node):
                    raise ModelStructureError(f"{node} has parents but no mechanism")
                continue
            if mech.child != node:
                raise ModelStructureError(
                    f"mechanism filed under {node} drives {mech.child}"
                )
            check_parents(self.dag, node, mech.parents)
            check_table(mech, by_name)

    def variable(self, name: str) -> Variable:
        for v in self.variables:
            if v.name == name:
                return v
        raise UnknownVariableError(f"unknown variable {name!r}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def domain(self, name: str) -> tuple[int, ...]:
        return self.variable(name).domain

    @cached_property
    def worlds(self) -> "WorldTable":
        return enumerate_worlds(self)


@dataclass(frozen=True)
class WorldTable:
    """An ordered, deduplicated set of worlds under uniform weighting.

    ``rows`` holds one value tuple per world, aligned with ``columns`` and
    sorted lexicographically, which makes every printed table reproducible
    and lets equal sets compare equal.  The kernels read whole columns
    (``column``), each built once on first use and cached.
    """

    columns: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        columns = tuple(self.columns)
        if len(set(columns)) != len(columns):
            raise ModelStructureError(f"table columns {columns} repeat a variable")
        rows = set(map(tuple, self.rows))
        for values in rows:
            if len(values) != len(columns):
                raise ModelStructureError(
                    f"row {values} does not match table columns {columns}"
                )
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "rows", tuple(sorted(rows)))

    def __len__(self) -> int:
        return len(self.rows)

    @cached_property
    def _column_cache(self) -> dict[str, tuple[int, ...]]:
        return {}

    def column(self, name: str) -> tuple[int, ...]:
        """The values of one variable, aligned with ``rows``; built on first
        use and cached."""
        values = self._column_cache.get(name)
        if values is None:
            if name not in self.columns:
                raise UnknownVariableError(f"unknown variable {name!r}")
            at = operator.itemgetter(self.columns.index(name))
            values = self._column_cache[name] = tuple(map(at, self.rows))
        return values

    def filter(self, keep: Mapping[str, Callable[[int], bool]]) -> "WorldTable":
        """The worlds whose level of each named variable passes its test."""
        if not keep:
            return self
        mask = row_mask({name: self.column(name) for name in keep}, keep)
        return WorldTable(self.columns, itertools.compress(self.rows, mask))

    def project(self, columns: Iterable[str]) -> "WorldTable":
        columns = tuple(columns)
        if not columns:
            return WorldTable(columns, [()] if self.rows else [])
        return WorldTable(columns, zip(*map(self.column, columns)))

    def outside(self, other: "WorldTable") -> "WorldTable":
        """The rows of this table that ``other`` lacks, under this table's
        columns.  Both tables must have the same columns."""
        if other.columns != self.columns:
            raise ModelStructureError(
                f"cannot compare tables over {self.columns} and {other.columns}"
            )
        lacking = set(other.rows)
        return WorldTable(self.columns, (r for r in self.rows if r not in lacking))

    def distribution(self, query: str) -> dict[int, Fraction]:
        """Marginal distribution of one variable, exact Fractions."""
        if not self.rows:
            raise EmptyTableError("distribution over an empty world table")
        counts = Counter(self.column(query))
        n = len(self.rows)
        return {level: Fraction(c, n) for level, c in sorted(counts.items())}

    def cells(
        self, stmt: "IndependenceStatement", weights: Iterable[int] | None = None
    ) -> Mapping[tuple[int, ...], int]:
        """Total weight of every ``(*stratum, x, y)`` cell of ``stmt`` (see
        ``factorization``): 1 per world, or the row-aligned ``weights``."""
        keys = zip(*map(self.column, stmt.cell_names))
        if weights is None:
            return Counter(keys)
        cells: dict[tuple[int, ...], int] = {}
        for key, weight in zip(keys, weights):
            cells[key] = cells.get(key, 0) + weight
        return cells


def row_mask(
    columns: Mapping[str, Sequence[int]], keep: Mapping[str, Callable[[int], bool]]
) -> list[bool]:
    """Which rows of the aligned ``columns`` pass every test in ``keep``.

    ``keep`` names at least one column.  Each test runs once per distinct
    level of its column, not once per row.
    """
    passing = []
    for name, test in keep.items():
        column = columns[name]
        levels = {level for level in set(column) if test(level)}
        passing.append(map(levels.__contains__, column))
    return list(map(all, zip(*passing)))


@dataclass(frozen=True)
class IndependenceStatement:
    """The claim that x and y are independent given a conditioning set."""

    x: str
    y: str
    given: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "given", frozenset(self.given))
        if self.x == self.y:
            raise ModelStructureError("independence statement needs two variables")
        if self.x in self.given or self.y in self.given:
            raise ModelStructureError(
                "conditioning set must not contain the tested variables"
            )

    @property
    def cell_names(self) -> tuple[str, ...]:
        """The variables that key one cell: the conditioning set in sorted
        order, then x, then y."""
        return (*sorted(self.given), self.x, self.y)

    def __str__(self) -> str:
        base = f"{self.x} and {self.y}"
        if self.given:
            return f"{base} given {', '.join(sorted(self.given))}"
        return base


def statement_grid(names: Sequence[str]) -> Iterator[IndependenceStatement]:
    """Every pair of variables in declaration order, first unconditioned and
    then given each other single variable."""
    for x, y in itertools.combinations(names, 2):
        yield IndependenceStatement(x, y)
        for w in names:
            if w not in (x, y):
                yield IndependenceStatement(x, y, frozenset({w}))


def propagate(
    scm: Scm, order: Sequence[str], columns: dict[str, Sequence[int]]
) -> dict[str, Sequence[int]]:
    """Complete ``columns`` with every endogenous column, in place.

    ``columns`` holds one equal-length column per exogenous variable; row i
    of the result is the world that row i of the exogenous values makes.
    Each mechanism fills its child's column in one pass over its parents'
    columns, along ``order``, the DAG's topological order, which the caller
    computes once.
    """
    for node in order:
        if node not in columns:
            mech = scm.mechanisms[node]
            parent_rows = zip(*(columns[p] for p in mech.parents))
            columns[node] = tuple(map(mech.table.__getitem__, parent_rows))
    return columns


def enumerate_worlds(scm: Scm) -> WorldTable:
    """All worlds consistent with the model.

    Every exogenous variable ranges over its full domain; endogenous values
    are propagated through the mechanisms in topological order.  The result
    has exactly one world per exogenous combination.
    """
    exogenous = scm.dag.exogenous()
    combos = itertools.product(*(scm.domain(n) for n in exogenous))
    columns = propagate(
        scm, scm.dag.topological_order(), dict(zip(exogenous, zip(*combos)))
    )
    return WorldTable(scm.names, zip(*(columns[n] for n in scm.names)))


def factorization(
    cells: Mapping[tuple[int, ...], int],
) -> tuple[bool, tuple[tuple[int, ...], ...]]:
    """Exact factorization of x and y in every stratum of the conditioning set.

    ``cells`` maps ``(*stratum, a, b)``, the conditioning values followed by
    the levels of x and y (``IndependenceStatement.cell_names``), to the
    total weight of the rows in that cell: 1 per world for world tables,
    the observed counts for datasets.  In a stratum of total weight n the
    joint factorizes iff n * joint(a, b) == weight(x=a) * weight(y=b) for
    every cell.  Returns the verdict and the sorted strata present.
    """
    strata: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for key, weight in cells.items():
        strata.setdefault(key[:-2], {})[key[-2:]] = weight
    if not strata:
        raise EmptyTableError("independence query on an empty world table")
    independent = True
    for joint in strata.values():
        n = sum(joint.values())
        mx: dict[int, int] = {}
        my: dict[int, int] = {}
        for (a, b), count in joint.items():
            mx[a] = mx.get(a, 0) + count
            my[b] = my.get(b, 0) + count
        if any(
            n * joint.get((a, b), 0) != ca * cb
            for a, ca in mx.items()
            for b, cb in my.items()
        ):
            independent = False
            break
    return independent, tuple(sorted(strata))


def uniform_independent(table: WorldTable, stmt: IndependenceStatement) -> bool:
    """Exact independence verdict under the uniform distribution.

    True iff, in every conditioning stratum present in the table, the joint
    distribution of the two tested variables factorizes into its marginals.
    Decided with integer arithmetic; there is no tolerance.
    """
    return factorization(table.cells(stmt))[0]


def conditional_distribution(
    table: WorldTable, query: str, given: Mapping[str, int]
) -> dict[int, Fraction]:
    """Distribution of ``query`` after filtering the table on observations."""
    sub = table.filter({k: partial(operator.eq, v) for k, v in given.items()})
    if not len(sub):
        raise EmptyTableError(f"no world matches observation {dict(given)}")
    return sub.distribution(query)


def verify_mechanism_consistency(scm: Scm, table: WorldTable) -> bool:
    """Re-evaluate every mechanism on every world; True when all agree."""
    for node, mech in scm.mechanisms.items():
        parent_rows = zip(*map(table.column, mech.parents))
        outputs = map(mech.table.__getitem__, parent_rows)
        if not all(map(operator.eq, outputs, table.column(node))):
            return False
    return True
