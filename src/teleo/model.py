"""Discrete deterministic causal models and their possible-worlds semantics.

A model is a DAG over named variables with finite integer domains, plus one
deterministic mechanism (a total lookup table) per endogenous variable.
Exogenous variables range freely over their domains, so the set of worlds
consistent with the model is finite and enumerable: one world per combination
of exogenous values.

A world table is the one representation of a set of worlds: level masks,
one Python int per level of each variable (bit i is row i).  A model's
worlds are its universe, world i the i-th exogenous combination in product
order: exogenous masks are closed-form periodic blocks, and an endogenous
level's mask is the union of the parents' strata its mechanism maps to it.
A goal filter compresses every mask to the kept rows, set comparisons are
mask differences over one root (``WorldTable.outside``), and rows and
columns are built from the masks only when read.  Whether given rows are
worlds of a model is read off the model's own equations
(``WorldTable.consistent_with``), not matched against its universe.

World tables carry a uniform weighting over their members.  All probability
comparisons are exact.  Independence is decided by one count-weighted
kernel, ``WorldTable.independent``, which cross-multiplies integer counts of
many pairs in every stratum of a conditioning set (``factorizes`` is its
one-pair case).  A table builds the strata of each conditioning set once
(``WorldTable.strata``) as row masks, and a count is the popcount of a mask
for a world table, and for a dataset the sum over binary weight layers of
2^k times the popcount of the mask within layer k.
Distributions are returned as Fractions.  There is no tolerance anywhere in
this module.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from functools import cached_property, partial, reduce

from teleo.errors import (
    BudgetError,
    EmptyTableError,
    ModelStructureError,
    UnknownVariableError,
)

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
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
    "grid_pairs",
    "grid_cells",
    "passing",
    "level_masks",
    "stratify",
    "weight_layers",
    "universe_levels",
    "compressor",
    "scatter",
    "level_column",
    "table_over",
    "enumerate_worlds",
    "conditional_distribution",
]

MAX_WORLDS = 1 << 24  # the cap on a count of domain levels, worlds or parent combinations


def check_size(size: int, what: str) -> int:
    """``size``, the count of ``what``; a BudgetError if over ``MAX_WORLDS``."""
    if size > MAX_WORLDS:
        raise BudgetError(f"{what} is {size}, over the cap of {MAX_WORLDS}", size, MAX_WORLDS)
    return size


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
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
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

    This is the one index of the graph: construction validates it in one
    pass over the edges, which fills each node's parent and child masks,
    and sorts it once.  In a mask, bit i stands for ``nodes[i]``, so a mask
    read from bit 0 upward lists its nodes in declaration order.  Every
    query reads the edge list or the masks: parents and children are the
    edges into and out of a node, ancestors and descendants are mask
    fixpoints, and the d-separation kernel (``dsep``) walks the parent and
    child masks and keeps its walks in ``_reachable``.
    """

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str]]):
        nodes, edges = tuple(nodes), tuple(map(tuple, edges))
        position: dict[str, int] = {}
        for n in nodes:
            if n in position:
                raise ModelStructureError(f"duplicate node {n!r}")
            position[n] = len(position)
        parents, children = [0] * len(nodes), [0] * len(nodes)
        for parent, child in edges:
            if parent not in position:
                raise ModelStructureError(f"edge endpoint {parent!r} is not a node")
            if child not in position:
                raise ModelStructureError(f"edge endpoint {child!r} is not a node")
            if parent == child:
                raise ModelStructureError(f"self-loop on {parent!r}")
            p, c = position[parent], position[child]
            if parents[c] >> p & 1:
                raise ModelStructureError(f"duplicate edge {parent!r} -> {child!r}")
            parents[c] |= 1 << p
            children[p] |= 1 << c
        index = self.__dict__
        index.update(nodes=nodes, edges=edges, _position=position)
        index.update(_parents_masks=tuple(parents), _children_masks=tuple(children))
        index["_order"] = self._kahn()
        # d-separation's walks as reached-node masks, keyed by (x, Z);
        # filled by ``dsep``
        index["_reachable"] = {}

    def _kahn(self) -> tuple[str, ...]:
        """Kahn's algorithm on the masks: the ready mask's lowest bit (the
        earliest declared ready node) is placed next, and a child joins the
        ready mask when its last parent is placed.  Raises on cycles."""
        nodes, parents, children = self.nodes, self._parents_masks, self._children_masks
        ready = sum(1 << i for i, mask in enumerate(parents) if not mask)
        unplaced = (1 << len(nodes)) - 1
        order: list[str] = []
        while ready:
            low = ready & -ready
            i = low.bit_length() - 1
            ready ^= low
            unplaced ^= low
            order.append(nodes[i])
            waiting = children[i]
            while waiting:
                bit = waiting & -waiting
                if not parents[bit.bit_length() - 1] & unplaced:
                    ready |= bit
                waiting ^= bit
        if unplaced:
            stuck = sorted(self._names(unplaced))
            raise ModelStructureError(f"graph has a cycle through {', '.join(stuck)}")
        return tuple(order)

    def parents(self, node: str) -> tuple[str, ...]:
        """Parents of ``node`` in edge-declaration order."""
        self._at(node)
        return tuple(p for p, c in self.edges if c == node)

    def children(self, node: str) -> tuple[str, ...]:
        """Children of ``node`` in edge-declaration order."""
        self._at(node)
        return tuple(c for p, c in self.edges if p == node)

    def ancestors(self, nodes: Iterable[str]) -> set[str]:
        """Every strict ancestor of any of ``nodes``."""
        return set(self._names(self._reach(self._parents_masks, self._mask(nodes))))

    def descendants(self, node: str) -> tuple[str, ...]:
        """All strict descendants of ``node``, in declaration order."""
        return self._names(self._reach(self._children_masks, self._mask((node,))))

    def exogenous(self) -> tuple[str, ...]:
        return tuple(n for n, mask in zip(self.nodes, self._parents_masks) if not mask)

    def endogenous(self) -> tuple[str, ...]:
        return tuple(n for n, mask in zip(self.nodes, self._parents_masks) if mask)

    def topological_order(self) -> tuple[str, ...]:
        """Kahn's order with declaration-order tie breaking, computed once at
        construction."""
        return self._order

    def _mask(self, nodes: Iterable[str]) -> int:
        """The mask of ``nodes``; raises on a name that is not a node."""
        mask = 0
        for n in nodes:
            mask |= 1 << self._at(n)
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

    def _at(self, node: str) -> int:
        """The position of ``node``; raises on a name that is not a node."""
        try:
            return self._position[node]
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
        check_size(math.prod(len(p.domain) for p in parents),
                   f"the parent combination count of {child.name}")
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
    domains = [variables[p].domain for p in mech.parents]
    check_size(math.prod(map(len, domains)), f"the parent combination count of {mech.child}")
    expected = set(itertools.product(*domains))
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

    ``universe`` (``universe_levels`` over the exogenous variables) and its
    table ``worlds`` are built on first use and shared by every later
    reader, which is sound because the object is frozen and copies its
    mechanisms; callers must not mutate ``mechanisms`` in place.
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
    def universe(self) -> tuple[int, dict[str, dict[int, int]]]:
        domains = {n: self.domain(n) for n in self.dag.exogenous()}
        return universe_levels(self, self.dag.topological_order(), domains)

    @cached_property
    def worlds(self) -> "WorldTable":
        return enumerate_worlds(self)


class WorldTable(Record):
    """A set of worlds under uniform weighting, stored as level masks.

    A table keeps the rows of a root table that its mask ``kept`` has.  A
    root is a model's universe (``table_over``) or the rows it is given,
    deduplicated and sorted unless they strictly increase.  Every mask is in
    sorted row order, bit i for row i; a filtered table's masks are its
    root's compressed to the kept rows (``compressor``), not a view.  Set
    operations are mask operations over one root (``outside``), and a table
    of another root is refused, not matched row by row.  Rows (sorted, so
    equal sets compare equal), columns, level masks and strata are built
    once, when read, and cached outside equality, hash and repr.
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
        table = WorldTable._of(columns, len(rows), lambda name: level_masks(
            tuple(map(operator.itemgetter(columns.index(name)), rows))))
        self.__dict__.update(vars(table), rows=rows)

    @classmethod
    def _of(cls, columns, n: int, build: Callable, root=None, kept=None) -> WorldTable:
        """A table of n rows whose masks ``build(name)`` makes: a root, or
        ``kept`` of ``root``'s rows."""
        table = cls.__new__(cls)
        table.__dict__.update(columns=columns, _n=n, _build=build, _root=root, _level_cache={},
                              _column_cache={}, _strata_cache={}, _cell_cache={})
        table.__dict__["kept"] = (1 << n) - 1 if kept is None else kept
        return table

    def _keep(self, kept: int) -> WorldTable:
        """The rows of this root that ``kept`` has (the root for all)."""
        if kept == self.kept:
            return self
        compress, levels = compressor(kept, self._n), self.levels
        return WorldTable._of(self.columns, kept.bit_count(), lambda name: {
            level: packed for level, mask in levels(name).items()
            if mask & kept and (packed := compress(mask))
        }, self, kept)

    def _key(self) -> tuple:
        return self.columns, self.rows

    def __len__(self) -> int:
        return self._n

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        if not self.columns:
            return ((),) * self._n
        return tuple(zip(*map(self.column, self.columns)))

    def column(self, name: str) -> Sequence[int]:
        """One variable's values, aligned with ``rows`` (``level_column``)."""
        values = self._column_cache.get(name)
        if values is None:
            values = self._column_cache[name] = level_column(self.levels(name), self._n)
        return values

    def levels(self, name: str) -> Mapping[int, int]:
        """The row bitmask of each level present in one column, in level
        order: bit i is set iff row i has that level."""
        masks = self._level_cache.get(name)
        if masks is None:
            if name not in self.columns:
                raise UnknownVariableError(f"unknown variable {name!r}")
            masks = self._level_cache[name] = self._build(name)
        return masks

    def filter(self, keep: Mapping[str, Callable[[int], bool]]) -> WorldTable:
        """The worlds whose level of each named variable passes its test."""
        if not keep:
            return self
        root = self._root or self
        masks = (passing(root.levels(name), test) for name, test in keep.items())
        return root._keep(reduce(operator.and_, masks, self.kept))

    def project(self, columns: Iterable[str]) -> WorldTable:
        """The distinct rows on ``columns``: their strata's sorted keys."""
        columns = tuple(columns)
        strata = stratify(self._n, map(self.levels, columns))
        return WorldTable(columns, [stratum for stratum, _ in strata])

    def outside(self, other: WorldTable) -> WorldTable:
        """The rows of this table that ``other``, a table of the same root,
        lacks: ``kept & ~other.kept`` over that root.  Raises on a table of
        another root, whose bits stand for other rows."""
        root = self._root or self
        if (other._root or other) is not root:
            raise ModelStructureError("cannot compare tables of two roots")
        return root._keep(self.kept & ~other.kept)

    def consistent_with(self, scm: Scm) -> WorldTable:
        """The rows that are worlds of ``scm``, over its variables: each
        exogenous level in its domain, and every mechanism holding, its
        child at the level its table maps the row's parent levels to.  A
        mechanism holds on the union of its parents' strata, each met with
        the child's mask at that stratum's level."""
        root, kept = self._root or self, self.kept
        for v in scm.variables:
            at, mech = root.levels(v.name), scm.mechanisms.get(v.name)
            if mech is None:
                kept &= passing(at, v.domain.__contains__)
            else:
                strata = stratify(root._n, map(root.levels, mech.parents))
                kept &= sum(rows & at.get(mech.table.get(combo), 0) for combo, rows in strata)
        return root._keep(kept)

    def distribution(self, query: str) -> dict[int, Fraction]:
        """Marginal distribution of one variable, exact Fractions."""
        from fractions import Fraction  # no command reads a distribution
        n = self._n
        if not n:
            raise EmptyTableError("distribution over an empty world table")
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
            strata = stratify(self._n, map(self.levels, sorted(given)))
            self._strata_cache[given] = strata
        return strata

    def independent(
        self, given: frozenset[str], pairs: Sequence[tuple[str, str]],
        weights: Sequence[int] | None = None,
    ) -> list[bool]:
        """Whether x and y of each ``(x, y)`` of ``pairs`` factorize exactly
        in every stratum of the conditioning set ``given``: the one
        independence kernel.

        In a stratum of rows s and total weight n, x and y factorize iff
        n * w(s & x_a & y_b) == w(s & x_a) * w(s & y_b) for every pair of
        levels a of x and b of y.  A row weighs 1 (the popcount of a mask),
        or with ``weights``, binary weight layers over the rows
        (``weight_layers``), w(mask) = sum_k 2^k * popcount(mask & weights[k]).
        A pair is dropped at its first failing stratum.  Each named
        variable's level masks, met with each stratum and weighed, are built
        once per conditioning set and weights, and kept for later calls with
        both: the same ``weights`` object, as a dataset passes its one tuple
        of layers.  Raises ``EmptyTableError`` on a table without rows.
        """
        strata = self._strata_cache.get(given)  # the hit skips a call
        if strata is None:
            strata = self.strata(given)
        entry = self._cell_cache.get(given)
        if entry is None or entry[0] is not weights:
            layers = None if weights is None else tuple(enumerate(weights))
            weigh = int.bit_count if layers is None else partial(_layered_weight, layers)
            entry = self._cell_cache[given] = weights, weigh, [weigh(s) for _, s in strata], {}
        _, weigh, totals, cells = entry
        # w is additive over x's levels, so for each b the equations over
        # every a sum to n * w(s & y_b) on both sides: when all but one a
        # hold, so does the last.  The same goes for b, so the first level
        # of each variable needs no equation of its own.
        for pair in pairs:
            for name in pair:
                if name not in cells:
                    tails = tuple(self.levels(name).values())[1:]
                    cells[name] = [[(at := s & mask, weigh(at)) for mask in tails]
                                   for _, s in strata]
        if not strata:
            raise EmptyTableError("independence query on an empty world table")
        live = range(len(pairs))
        for k, n in enumerate(totals):
            held = []
            for i in live:
                x, y = pairs[i]
                x_cells = cells[x][k]
                for y_mask, count in cells[y][k]:
                    for x_mask, x_count in x_cells:
                        if n * weigh(y_mask & x_mask) != x_count * count:
                            break
                    else:
                        continue
                    break
                else:
                    held.append(i)
            live = held
        verdicts = [False] * len(pairs)
        for i in live:
            verdicts[i] = True
        return verdicts

    def factorizes(self, stmt: IndependenceStatement, weights: Sequence[int] | None = None) -> bool:
        """``independent`` for the one pair of ``stmt``."""
        return self.independent(stmt.given, ((stmt.x, stmt.y),), weights)[0]


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


def grid_pairs(names: Sequence[str]) -> Iterator[tuple[str, str, list[tuple[str, ...]]]]:
    """Each pair of variables in declaration order, with its conditioning
    sets in the statement grid's one order: none, then each other single
    variable, a set written as the tuple of its names."""
    singles = list(zip(names))
    for (i, x), (j, y) in itertools.combinations(enumerate(names), 2):
        yield x, y, [(), *singles[:i], *singles[i + 1 : j], *singles[j + 1 :]]


def grid_cells(names: Sequence[str]) -> Iterator[tuple[str, str, frozenset[str]]]:
    """The ``(x, y, given)`` cells of the statement grid (``grid_pairs``),
    each conditioning set one frozenset that its cells share."""
    sets = {given: frozenset(given) for given in [(), *zip(names)]}
    for x, y, givens in grid_pairs(names):
        for given in givens:
            yield x, y, sets[given]


def universe_levels(
    scm: Scm, order: Sequence[str], domains: Mapping[str, Sequence[int]]
) -> tuple[int, dict[str, dict[int, int]]]:
    """``(n, levels)``: world i of n is the i-th combination of ``domains``
    in product order, and ``levels`` holds the level masks (bit i for world
    i) of each name of ``domains`` and of ``order``, a topological order.
    With ``inner`` combinations of the later domains, level k of a domain is
    a block of ``inner`` ones at offset k * inner of every period of
    len(domain) * inner bits: the block times a geometric constant.  A level
    of a mechanism's child is the union of the parents' strata mapped to it.
    """
    n = check_size(math.prod(map(len, domains.values())), "the world count")
    inner, levels = 1, {}
    for name, domain in reversed(domains.items()):
        ones = ((1 << n) - 1) // ((1 << inner * len(domain)) - 1)
        levels[name] = {v: ones * ((1 << inner) - 1) << k * inner for k, v in enumerate(domain)}
        inner *= len(domain)
    for node in order:
        if node not in levels:
            mech, masks = scm.mechanisms[node], {}
            for combo, rows in stratify(n, map(levels.__getitem__, mech.parents)):
                masks[mech.table[combo]] = masks.get(mech.table[combo], 0) | rows
            levels[node] = dict(sorted(masks.items()))
    return n, levels


# a slot's binary digit raised past "1", and raised digits back down
_RAISE, _LOWER = bytes.maketrans(b"01", b"\0\2"), bytes.maketrans(b"23", b"01")


def compressor(slots: int, n: int) -> Callable[[int], int]:
    """A mask over n rows packed to its bits at the set bits of ``slots``:
    one C-level pass over binary digits, each slot's raised by 2 and every
    other deleted."""
    raised = int.from_bytes(f"{slots:0{n}b}".encode().translate(_RAISE), "big")

    def compress(mask: int) -> int:
        digits = (int.from_bytes(f"{mask:0{n}b}".encode(), "big") + raised).to_bytes(n, "big")
        return int(digits.translate(_LOWER, b"01") or b"0", 2)

    return compress


def scatter(mask: int, slots: int, n: int) -> int:
    """The inverse of ``compressor``, for non-zero ``slots``: one ``%``
    format of the slots' binary digits."""
    digits = f"{slots:0{n}b}".replace("1", "%c") % tuple(f"{mask:0{slots.bit_count()}b}")
    return int(digits, 2)


def level_column(levels: Mapping[int, int], n: int) -> Sequence[int]:
    """Each of n rows' level, from the level masks: bytes when every level
    is in 0..255, made by C-level byte operations (each mask's binary
    digits translated to its level, summed as one int), else a tuple."""
    if not levels or 0 <= min(levels) and max(levels) < 256:
        digits = sum(int.from_bytes(f"{mask:0{n}b}".encode().translate(
            bytes.maketrans(b"01", bytes((0, level)))), "big") for level, mask in levels.items())
        return digits.to_bytes(n, "big")[::-1]
    at = {i: level for level, mask in levels.items()
          for i in itertools.compress(range(n), map("1".__eq__, f"{mask:0{n}b}"[::-1]))}
    return tuple(map(at.__getitem__, range(n)))


def table_over(columns: tuple[str, ...], exogenous: Sequence[str], n: int,
               levels: Callable[[str], dict[int, int]], kept: int) -> WorldTable:
    """The worlds of ``kept`` among n in product order over ``exogenous``,
    whose masks ``levels`` gives, over ``columns``.  That order is sorted
    when the exogenous variables come first, else the rows are sorted."""
    table = WorldTable._of(columns, n, levels)._keep(kept)
    return table if columns[: len(exogenous)] == tuple(exogenous) else WorldTable(columns, table.rows)


def enumerate_worlds(scm: Scm) -> WorldTable:
    """All worlds consistent with the model, one per exogenous combination
    (so a model without variables has the one empty world): its universe
    (``Scm.universe``) as a table."""
    n, levels = scm.universe
    return table_over(scm.names, scm.dag.exogenous(), n, levels.__getitem__, (1 << n) - 1)


def conditional_distribution(
    table: WorldTable, query: str, given: Mapping[str, int]
) -> dict[int, Fraction]:
    """Distribution of ``query`` after filtering the table on observations."""
    sub = table.filter({k: partial(operator.eq, v) for k, v in given.items()})
    if not len(sub):
        raise EmptyTableError(f"no world matches observation {dict(given)}")
    return sub.distribution(query)
