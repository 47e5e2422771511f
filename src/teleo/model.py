"""Discrete deterministic causal models and their possible-worlds semantics.

A model is a DAG over named variables with finite integer domains, plus one
deterministic mechanism (a total lookup table) per endogenous variable.
Exogenous variables range freely over their domains, so the set of worlds
consistent with the model is finite and enumerable: one world per combination
of exogenous values.

A world table is the one representation of a set of worlds: it stores
them as sorted, distinct integer value tuples and builds each variable's
column once, on first use, and from the column an index of row bitmasks,
one Python int per level present (bit i is row i).  Enumeration fills every
endogenous column in one pass per mechanism, goal filters select rows from
the goal variables' level masks, independence queries count cells by
intersecting level masks, and set comparisons take the rows one table has
and another lacks (``WorldTable.outside``).

World tables carry a uniform weighting over their members.  All probability
comparisons are exact.  Independence is decided by one count-weighted
kernel, ``WorldTable.factorizes``, which cross-multiplies integer counts in
every stratum of the conditioning set.  A table builds the strata of each
conditioning set once (``WorldTable.strata``) as row masks, and a count is
the popcount of a mask for a world table, and for a dataset the sum over
binary weight layers of 2^k times the popcount of the mask within layer k.
Distributions are returned as Fractions.  There is no tolerance anywhere in
this module.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from functools import cached_property, partial, reduce
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from teleo.errors import (
    EmptyTableError,
    ModelStructureError,
    UnknownVariableError,
)

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "Record",
    "Variable",
    "CausalDag",
    "Mechanism",
    "check_parents",
    "check_table",
    "Scm",
    "WorldTable",
    "IndependenceStatement",
    "grid_cells",
    "statement_grid",
    "passing",
    "level_masks",
    "stratify",
    "weight_layers",
    "propagate",
    "enumerate_worlds",
    "uniform_independent",
    "conditional_distribution",
]

_V = TypeVar("_V")


class Record:
    """An immutable value object: the base of every model, statement and
    verdict type.

    Its fields are the subclass's annotated names, in order, and a class
    attribute is a field's default.  Equality and hashing read every field
    but those named in ``uncompared``; ``repr`` reads every field.  A class
    that normalises its arguments writes its own ``__init__`` and stores
    each field once in ``__dict__``, where caches live too.
    """

    def __init_subclass__(cls, uncompared: Iterable[str] = ()):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._compared = tuple(f for f in cls._fields if f not in uncompared)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):  # the positional call is the fast path
            values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
            # the fields the call names: fewer than its arguments if one repeats
            named = {*fields[: len(args)], *kwargs}
            if values.keys() != set(fields) or len(named) < len(args) + len(kwargs):
                raise TypeError(f"{type(self).__name__}() takes {', '.join(fields)}")
            args = map(values.__getitem__, fields)
        self.__dict__.update(zip(fields, args))

    def _key(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._compared))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={self.__dict__[f]!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} is immutable")

    __delattr__ = __setattr__


class Variable(Record):
    """A named discrete variable with an ordered domain of integer levels."""

    name: str
    domain: tuple[int, ...]

    def __init__(self, name: str, domain: Iterable[int]):
        if not name or not name.replace("_", "a").isalnum() or name[0].isdigit():
            raise ModelStructureError(f"invalid variable name {name!r}")
        domain = tuple(domain)
        if len(domain) < 2:
            raise ModelStructureError(
                f"variable {name}: domain must have at least 2 levels"
            )
        if any(b <= a for a, b in zip(domain, domain[1:])):
            raise ModelStructureError(
                f"variable {name}: domain levels must be strictly increasing"
            )
        self.__dict__.update(name=name, domain=domain)


class CausalDag(Record):
    """Directed acyclic graph over variable names.

    ``nodes`` keeps declaration order, which fixes column order in every
    printed table.  Edges are kept in declaration order as well; equality,
    hashing and ``repr`` use only these two tuples.

    This is the one index of the graph: construction validates it and builds
    each node's parent and child lists (in edge-declaration order), the same
    neighbourhoods as node bitmasks, and the topological order once.  In a
    mask, bit i stands for ``nodes[i]``, so a mask read from bit 0 upward
    lists its nodes in declaration order.  Every query reads this index:
    ancestors and descendants are mask fixpoints, and the d-separation
    kernel (``dsep``) walks the parent and child masks and keeps its walks
    in ``_reachable``.
    """

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str]]):
        nodes, edges = tuple(nodes), tuple(map(tuple, edges))
        position: dict[str, int] = {}
        parents: dict[str, list[str]] = {}
        children: dict[str, list[str]] = {}
        for n in nodes:
            if n in parents:
                raise ModelStructureError(f"duplicate node {n!r}")
            position[n] = len(position)
            parents[n] = []
            children[n] = []
        edge_set = set()
        for parent, child in edges:
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
        index = self.__dict__
        index.update(nodes=nodes, edges=edges, _position=position)
        for name, lists in (("parents", parents), ("children", children)):
            index[f"_{name}"] = {n: tuple(v) for n, v in lists.items()}
            index[f"_{name}_masks"] = tuple(self._mask(lists[n]) for n in nodes)
        index["_order"] = self._kahn()
        # d-separation's walks as reached-node masks, keyed by (x, Z);
        # filled by ``dsep``
        index["_reachable"] = {}

    def _kahn(self) -> tuple[str, ...]:
        """Kahn's algorithm; of the ready nodes the earliest declared goes
        first.  Raises on cycles."""
        position = self._position
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
        return set(self._names(self._reach(self._parents_masks, self._mask(nodes))))

    def descendants(self, node: str) -> tuple[str, ...]:
        """All strict descendants of ``node``, in declaration order."""
        return self._names(self._reach(self._children_masks, self._mask((node,))))

    def exogenous(self) -> tuple[str, ...]:
        return tuple(n for n in self.nodes if not self._parents[n])

    def endogenous(self) -> tuple[str, ...]:
        return tuple(n for n in self.nodes if self._parents[n])

    def topological_order(self) -> tuple[str, ...]:
        """Kahn's order with declaration-order tie breaking, computed once at
        construction."""
        return self._order

    def _mask(self, nodes: Iterable[str]) -> int:
        """The mask of ``nodes``; raises on a name that is not a node."""
        mask = 0
        for n in nodes:
            mask |= 1 << self._lookup(self._position, n)
        return mask

    def _names(self, mask: int) -> tuple[str, ...]:
        """The nodes of ``mask``, in declaration order."""
        return tuple(n for i, n in enumerate(self.nodes) if mask >> i & 1)

    @staticmethod
    def _hop(step: Sequence[int], mask: int) -> int:
        """The mask one hop from the nodes of ``mask``, where ``step[i]`` is
        the mask one hop from node i (``_parents_masks`` or
        ``_children_masks``)."""
        reached = 0
        while mask:
            low = mask & -mask
            reached |= step[low.bit_length() - 1]
            mask ^= low
        return reached

    @classmethod
    def _reach(cls, step: Sequence[int], start: int) -> int:
        """The mask of nodes reached from the nodes of ``start`` by one or
        more hops: a fixpoint over frontier masks."""
        reached = 0
        frontier = cls._hop(step, start)
        while frontier:
            reached |= frontier
            frontier = cls._hop(step, frontier) & ~reached
        return reached

    @staticmethod
    def _lookup(index: Mapping[str, _V], node: str) -> _V:
        try:
            return index[node]
        except KeyError:
            raise UnknownVariableError(f"unknown variable {node!r}") from None


class Mechanism(Record):
    """Deterministic assignment of a child from its parents.

    ``table`` maps each combination of parent levels (a tuple aligned with
    ``parents``) to a child level.  Totality over the parents' domains is
    validated when the mechanism is attached to a model (``check_table``).
    """

    child: str
    parents: tuple[str, ...]
    table: Mapping[tuple[int, ...], int]

    def __init__(self, child: str, parents: Iterable[str], table: Mapping):
        parents = tuple(parents)
        table = {tuple(k): v for k, v in dict(table).items()}
        if not parents:
            raise ModelStructureError(f"mechanism for {child}: needs at least one parent")
        if len(set(parents)) != len(parents):
            raise ModelStructureError(f"repeated parent in mechanism for {child}")
        self.__dict__.update(child=child, parents=parents, table=table)

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
    order, then totality.

    A mechanism that passes keeps the variables it was checked against, so
    a later check against the same variables (a model built from a checked
    statement, or a surgered model) returns at once."""
    reads = tuple(variables[n] for n in (mech.child, *mech.parents))
    if mech.__dict__.get("_checked") == reads:
        return
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
    mech.__dict__["_checked"] = reads


class Scm(Record):
    """A causal DAG with one deterministic mechanism per endogenous node.

    ``worlds`` is the model's world table, enumerated on first use and
    shared by every later reader.  That is sound because the object is
    frozen and copies its mechanisms at construction; callers must not
    mutate ``mechanisms`` in place.
    """

    dag: CausalDag
    variables: tuple[Variable, ...]
    mechanisms: Mapping[str, Mechanism]

    def __init__(self, dag: CausalDag, variables: Iterable[Variable], mechanisms: Mapping):
        variables, mechanisms = tuple(variables), dict(mechanisms)
        by_name = {v.name: v for v in variables}
        if len(by_name) != len(variables):
            raise ModelStructureError("duplicate variable declaration")
        if set(by_name) != set(dag.nodes):
            raise ModelStructureError("dag nodes and declared variables differ")
        for name in mechanisms:
            if name not in by_name:
                raise ModelStructureError(
                    f"mechanism filed under {name}, which is not a node"
                )
        for node in dag.nodes:
            mech = mechanisms.get(node)
            if mech is None:
                if dag.parents(node):
                    raise ModelStructureError(f"{node} has parents but no mechanism")
                continue
            if mech.child != node:
                raise ModelStructureError(
                    f"mechanism filed under {node} drives {mech.child}"
                )
            check_parents(dag, node, mech.parents)
            check_table(mech, by_name)
        self.__dict__.update(dag=dag, variables=variables, mechanisms=mechanisms)
        # built once, not fields: the names, and the index ``variable`` reads
        self.__dict__.update(names=tuple(by_name), _by_name=by_name)

    def variable(self, name: str) -> Variable:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownVariableError(f"unknown variable {name!r}") from None

    def domain(self, name: str) -> tuple[int, ...]:
        return self.variable(name).domain

    @cached_property
    def worlds(self) -> "WorldTable":
        return enumerate_worlds(self)


class WorldTable(Record):
    """An ordered, deduplicated set of worlds under uniform weighting.

    ``rows`` holds one value tuple per world, aligned with ``columns`` and
    sorted lexicographically, which makes every printed table reproducible
    and lets equal sets compare equal.  Rows given in strictly increasing
    order are kept as they come; any others are deduplicated and sorted.
    The kernels read whole columns (``column``), each column's level masks
    (``levels``) and each conditioning set's strata (``strata``), each built
    once on first use and cached outside equality, hashing and ``repr``.
    """

    columns: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, columns: Iterable[str], rows: Iterable[Sequence[int]]):
        columns = tuple(columns)
        if len(set(columns)) != len(columns):
            raise ModelStructureError(f"table columns {columns} repeat a variable")
        rows = tuple(map(tuple, rows))
        if set(map(len, rows)) - {len(columns)}:
            values = next(r for r in rows if len(r) != len(columns))
            raise ModelStructureError(
                f"row {values} does not match table columns {columns}"
            )
        # rows that strictly increase are already sorted and distinct
        if not all(map(operator.lt, rows, itertools.islice(rows, 1, None))):
            rows = tuple(sorted(set(rows)))
        self.__dict__.update(columns=columns, rows=rows)
        self.__dict__.update(_column_cache={}, _level_cache={}, _strata_cache={})

    def __len__(self) -> int:
        return len(self.rows)

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

    def levels(self, name: str) -> Mapping[int, int]:
        """The row bitmask of each level present in one column, in level
        order: bit i is set iff row i has that level.  Built on first use
        and cached."""
        masks = self._level_cache.get(name)
        if masks is None:
            masks = self._level_cache[name] = level_masks(self.column(name))
        return masks

    def filter(self, keep: Mapping[str, Callable[[int], bool]]) -> "WorldTable":
        """The worlds whose level of each named variable passes its test."""
        if not keep:
            return self
        masks = (passing(self.levels(name), test) for name, test in keep.items())
        # the binary digits of the rows kept, lowest first: "1" keeps a row
        digits = map("1".__eq__, f"{reduce(operator.and_, masks):b}"[::-1])
        return WorldTable(self.columns, itertools.compress(self.rows, digits))

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
        from fractions import Fraction  # no command reads a distribution
        if not self.rows:
            raise EmptyTableError("distribution over an empty world table")
        n = len(self.rows)
        return {
            level: Fraction(mask.bit_count(), n)
            for level, mask in self.levels(query).items()
        }

    def strata(self, given: Iterable[str]) -> list[tuple[tuple[int, ...], int]]:
        """The ``(stratum, row mask)`` of every stratum of the conditioning
        set ``given`` that has rows, in sorted order.

        A stratum holds the levels of ``sorted(given)``, and its rows are the
        intersection of those levels' masks.  An empty ``given`` has the one
        stratum ``()`` of every row, and an empty table has none.  Built once
        per conditioning set and cached.
        """
        given = frozenset(given)
        strata = self._strata_cache.get(given)
        if strata is None:
            strata = stratify(len(self.rows), map(self.levels, sorted(given)))
            self._strata_cache[given] = strata
        return strata

    def factorizes(
        self, stmt: "IndependenceStatement", weights: Sequence[int] | None = None
    ) -> bool:
        """Whether x and y of ``stmt`` factorize exactly in every stratum of
        its conditioning set: the one independence kernel.

        In a stratum of rows s and total weight n, the joint factorizes iff
        n * w(s & x_a & y_b) == w(s & x_a) * w(s & y_b) for every pair of
        levels a of x and b of y.  A row weighs 1 (the popcount of a mask),
        or with ``weights``, binary weight layers over the rows
        (``weight_layers``), w(mask) = sum_k 2^k * popcount(mask & weights[k]).
        Raises ``EmptyTableError`` on a table without rows.
        """
        strata = self.strata(stmt.given)
        # w is additive over x's levels, so for each b the equations over
        # every a sum to n * w(s & y_b) on both sides: when all but one a
        # hold, so does the last.  The same goes for b, so the first level
        # of each variable needs no equation of its own.
        xs = [*self.levels(stmt.x).values()][1:]
        ys = [*self.levels(stmt.y).values()][1:]
        if not strata:
            raise EmptyTableError("independence query on an empty world table")
        if weights is None:
            weigh = int.bit_count
        else:
            weigh = partial(_layered_weight, tuple(enumerate(weights)))
        for _, rows in strata:
            n = weigh(rows)
            at_ys = [(y_mask, weigh(rows & y_mask)) for y_mask in ys]
            for x_mask in xs:
                at_a = rows & x_mask
                count = weigh(at_a)
                for y_mask, at_b in at_ys:
                    if n * weigh(at_a & y_mask) != count * at_b:
                        return False
        return True


_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _bitmask(bits: Iterable[int]) -> int:
    """The int whose bit i is the i-th of ``bits`` (each 0 or 1): one
    base-2 parse, so linear in the number of bits."""
    digits = bytes(bits)[::-1].translate(_DIGITS)
    return int(digits, 2) if digits else 0


def level_masks(column: Sequence[int]) -> dict[int, int]:
    """One row bitmask per level of ``column``, in level order."""
    return {
        level: _bitmask(map(level.__eq__, column)) for level in sorted(set(column))
    }


def stratify(
    n_rows: int, levels: Iterable[Mapping[int, int]]
) -> list[tuple[tuple[int, ...], int]]:
    """The ``(stratum, row mask)`` of every combination of levels that has
    rows, in sorted order, from one ``level_masks`` map per column over
    ``n_rows`` rows.  A stratum holds one level per column, and its rows are
    the intersection of those levels' masks.  No columns give the one
    stratum ``()`` of every row, and no rows give no strata."""
    strata = [((), (1 << n_rows) - 1)] if n_rows else []
    for masks in levels:
        # level order within each sorted stratum keeps the list sorted
        strata = [
            ((*stratum, level), both)
            for stratum, rows in strata
            for level, mask in masks.items()
            if (both := rows & mask)
        ]
    return strata


def weight_layers(weights: Sequence[int]) -> tuple[int, ...]:
    """Row-aligned positive weights as binary layers: bit i of layer k
    is bit k of ``weights[i]``, so ``weights[i]`` is the sum of 2^k over the
    layers k that have bit i."""
    top = max(weights, default=0).bit_length()
    return tuple(_bitmask(w >> k & 1 for w in weights) for k in range(top))


def _layered_weight(layers: Iterable[tuple[int, int]], cell: int) -> int:
    return sum((cell & layer).bit_count() << k for k, layer in layers)


def passing(levels: Mapping[int, int], test: Callable[[int], bool]) -> int:
    """The rows whose level passes ``test``: the union of the row masks in
    ``levels`` (a ``level_masks`` map) of the levels that pass.  The test
    runs once per level, not once per row."""
    return sum(mask for level, mask in levels.items() if test(level))


class IndependenceStatement(Record):
    """The claim that x and y are independent given a conditioning set."""

    x: str
    y: str
    given: frozenset[str]

    def __init__(self, x: str, y: str, given: Iterable[str] = frozenset()):
        given = frozenset(given)
        if x == y:
            raise ModelStructureError("independence statement needs two variables")
        if x in given or y in given:
            raise ModelStructureError(
                "conditioning set must not contain the tested variables"
            )
        self.__dict__.update(x=x, y=y, given=given)

    def __str__(self) -> str:
        base = f"{self.x} and {self.y}"
        if self.given:
            return f"{base} given {', '.join(sorted(self.given))}"
        return base


def grid_cells(
    names: Sequence[str],
) -> Iterator[tuple[str, str, frozenset[str]]]:
    """The ``(x, y, given)`` cells of the statement grid, in its one order:
    every pair of variables in declaration order, first unconditioned and
    then given each other single variable."""
    singles = [(w, frozenset((w,))) for w in names]
    for x, y in itertools.combinations(names, 2):
        yield x, y, frozenset()
        for w, given in singles:
            if w != x and w != y:
                yield x, y, given


def statement_grid(names: Sequence[str]) -> Iterator[IndependenceStatement]:
    """The statement of each cell of the grid, in grid order (``grid_cells``)."""
    return itertools.starmap(IndependenceStatement, grid_cells(names))


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


def uniform_independent(table: WorldTable, stmt: IndependenceStatement) -> bool:
    """Exact independence verdict under the uniform distribution.

    True iff, in every conditioning stratum present in the table, the joint
    distribution of the two tested variables factorizes into its marginals.
    Decided with integer arithmetic; there is no tolerance.
    """
    return table.factorizes(stmt)


def conditional_distribution(
    table: WorldTable, query: str, given: Mapping[str, int]
) -> dict[int, Fraction]:
    """Distribution of ``query`` after filtering the table on observations."""
    sub = table.filter({k: partial(operator.eq, v) for k, v in given.items()})
    if not len(sub):
        raise EmptyTableError(f"no world matches observation {dict(given)}")
    return sub.distribution(query)
