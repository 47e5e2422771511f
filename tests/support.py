"""Shared test helpers: reference oracles and randomized model builders.

The d-separation oracle here is deliberately naive and independent of the
library's reachability kernel: it enumerates every simple trail and applies
the chain/fork/collider blocking rules trail by trail.  Trails grow
exponentially, so on larger DAGs the reachable oracle stands in: it is the
Reachable walk the library ran before its kernel moved to node bitmasks,
over a set of (node, direction) states, with parent and child sets read
off the edge list.  The graph oracles
read only an edge list, never a DAG's parent, child or order index:
reachability is a transitive closure, and the topological order is picked one
node at a time.  The factorization oracle likewise shares nothing with the
library's count cross-multiplication: it forms the conditional probabilities
as Fractions and compares them.  The cell oracle is the library's former
row-hashing counter: one key tuple per row, counted (or summed by weight),
then sliced into strata; the strata oracle sets each stratum's row bits one
row at a time, against the library's intersected level bitmasks.

The row-path oracles are how the library built world tables before it
stored them as level masks over one universe: closed-form exogenous
columns (``product_columns``) propagated column by column through the
mechanisms (``propagate``) and zipped into rows that the constructor sorted
(``rows_worlds``), a projection by one ``itemgetter`` per row
(``project_rows``), and a set difference of rows (``outside_oracle``).
The world oracles are the row-wise reading of the library's world
tables: one ``World`` per exogenous combination, each mechanism evaluated
world by world, goals checked comparison by comparison, projections made
world by world.  ``verify_mechanism_consistency`` re-evaluates every
mechanism on every world of a table.  ``World`` is the oracles' row type;
the library keeps every set of worlds as a ``WorldTable``, and
``worlds_of`` reads one back as ``World``s.  The candidates oracle
enumerates goal hypotheses in two steps, listing the reachable candidates
first and building each one afterwards.
The reduction survey oracle is the per-context survey ``build_reduction``
ran before it moved to context masks: one world per context and action
level, and per context a pre-state, a flag and a list of achieving levels.
The reduction levels oracle is the survey that came after it and before
the survey read the surgered model's one table: each action level
propagated over every context of ``itertools.product`` in one column-wise
pass, and each copy propagated over the product of its parents' levels.
The effective-parents oracle is the domain scan ``compare_structures`` ran
before it read a table's own keys: each parent varied over its domain with
the other parents' levels held fixed.
The table-text oracle is the cell-by-cell ``render_table`` the command line
printed with before each column's width came from its distinct levels and
each row went through one template: every cell made a string and padded on
its own.

``run_cli`` runs the ``teleo`` command line in-process and captures what it
writes.  The command-line oracle is the argparse parser ``teleo.cli`` had
before it parsed its command table by hand: the same global flags, the same
six commands and options, and the same scan before the command.  It departs
from argparse in one place, on purpose: argparse strips a literal ``--``
given as a value (``--final=--``, or a positional's own ``--`` token) into
an empty list, on which every command crashed; the oracle keeps the ``--``,
as the hand parser does.  ``cli_outcome`` runs either parser's parse step
and captures its exit, output and values.

``render_json`` is the writer oracle's entry point: the whole ``--json``
document as one string, which the command line writes piece by piece
with ``json_chunks``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import math
import operator
import random
import sys
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from teleo import __version__
from teleo.cli import cli
from teleo.model import (
    CausalDag,
    IndependenceStatement,
    Mechanism,
    Scm,
    Variable,
    WorldTable,
    enumerate_worlds,
    grid_cells,
    level_masks,
    passing,
    stratify,
)
from teleo.errors import (
    DegenerateReductionError,
    EmptyTableError,
    ReductionError,
    TeleologyError,
)
from teleo.identification import DependenceCheck
from teleo.intervention import do_surgery
from teleo.render import Records, json_chunks
from teleo.teleology import Comparison, GoalPredicate, build_final_model

NAMES = tuple("ABCDEFGH")


@dataclass(frozen=True)
class CliRun:
    exit_code: int
    stdout: str
    stderr: str


def run_cli(*argv: str) -> CliRun:
    """Run ``teleo ARGV...`` in-process and return its exit code and output.

    Every run ends in ``SystemExit``; any other exception propagates, so a
    traceback fails the calling test instead of becoming an exit code.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(args=list(argv), prog_name="teleo")
        except SystemExit as exc:
            return CliRun(exc.code, out.getvalue(), err.getvalue())
    raise AssertionError("teleo returned instead of exiting")


def plain_document(doc):
    """``doc`` with every ``Records`` written out as its list of dicts, or of
    lists when its ``keys`` are None."""
    if isinstance(doc, Records):
        rows = zip(*doc.columns) if doc.columns else [()] * doc.size
        rows = [list(map(plain_document, row)) for row in rows]
        return rows if doc.keys is None else [dict(zip(doc.keys, row)) for row in rows]
    if isinstance(doc, dict):
        return {k: plain_document(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [plain_document(v) for v in doc]
    return doc


def records(keys, rows) -> Records:
    """``Records`` of ``rows``, each with one value per key (or per column,
    with ``keys`` None): the rows transposed into columns once."""
    rows = list(rows)
    return Records(keys, zip(*rows), len(rows))


def render_json(doc: object) -> str:
    """Exactly ``json.dumps(doc, indent=2, sort_keys=True)``, with each
    ``Records`` written as its list of dicts: the pieces of ``json_chunks``
    joined."""
    return "".join(json_chunks(doc))


class _Cli(argparse.ArgumentParser):
    """Parser with uniform error handling: every failure is one ``error:``
    line on standard error and exit code 1."""

    def error(self, message: str):
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)

    def parse(self, args):
        """The namespace of the command line ``args``: ``main`` up to the
        command's run."""
        argv = list(args)
        # name an unknown option before the command, not the value after it;
        # a "--" there ends the options (argparse would take it as the command)
        for i, token in enumerate(argv):
            if token == "--":
                del argv[i]
            if token == "--" or not token.startswith("-"):
                break
            if token not in self._option_string_actions:
                self.error(f"unrecognized arguments: {token}")
        # a final "--" ends no options, but argparse refuses it after an
        # option's value; it is a positional only after an earlier "--"
        if argv[-1:] == ["--"] and "--" not in argv[:-1]:
            argv.pop()
        return self.parse_args(argv)

    def _get_values(self, action, arg_strings):
        # a literal "--" value stays "--", not argparse's empty list
        if action.nargs is None and arg_strings == ["--"]:
            return self._get_value(action, "--")
        return super()._get_values(action, arg_strings)


def _arg(*flags: str, **options) -> tuple[tuple[str, ...], dict]:
    return flags, options


def _cli_oracle() -> _Cli:
    cli = _Cli("teleo", allow_abbrev=False,
               description="Teleological analysis of discrete causal models.")
    cli.add_argument("--version", action="version", version=f"teleo, version {__version__}")
    cli.add_argument("--json", action="store_true", help="Emit one JSON document.")
    _commands = cli.add_subparsers(metavar="COMMAND", required=True)

    def _command(*arguments: tuple[tuple[str, ...], dict]):
        """Register ``run(args) -> exit code`` as the command ``<run> SPEC arguments``."""

        def register(run):
            sub = _commands.add_parser(run.__name__, description=run.__doc__,
                                       help=run.__doc__.splitlines()[0], allow_abbrev=False)
            sub.add_argument("spec", metavar="SPEC")
            for flags, options in arguments:
                sub.add_argument(*flags, **options)
            sub.set_defaults(run=run)
            return run

        return register

    @_command()
    def worlds(args):
        """Print every world consistent with the model."""

    @_command(_arg("--do", dest="target", help="Variable to intervene on."))
    def intervene(args):
        """Print the worlds of the model after surgery on one variable."""

    @_command(_arg("--final", dest="name", required=True, help="Final block to evaluate."))
    def finalize(args):
        """Print a goal hypothesis's compatible worlds and implied (in)dependence."""

    @_command(
        _arg("--final", dest="names", action="append", default=[],
             help="Name two final blocks."),
    )
    def distinguish(args):
        """Can two goal hypotheses be told apart from observational data?"""

    @_command(
        _arg("data", metavar="DATA"),
        _arg("--enumerate", dest="enumerate_all", action="store_true",
             help="Rank enumerated hypotheses instead of declared finals."),
        _arg("--max-effects", type=int,
             help="Largest intended-effect set when enumerating (default: 1)."),
    )
    def identify(args):
        """Rank goal hypotheses against observed data."""

    @_command(
        _arg("--final", dest="name", required=True, help="Final block to reduce."),
        _arg("--rest", dest="rest_level", type=int,
             help="Action level of the pre-action state "
             "(default: declared rest, else the domain minimum)."),
    )
    def reduce(args):
        """Build the purely causal counterpart of a final model and compare."""

    return cli


cli_oracle = _cli_oracle()


@dataclass(frozen=True)
class CliOutcome:
    exit_code: int | None
    stdout: str
    stderr: str
    values: dict | None  # the parsed values, the command by name; None on exit


def cli_outcome(parse, argv) -> CliOutcome:
    """What ``parse(argv)`` does: its exit and output, or its values."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parsed = parse(list(argv))
        except SystemExit as exc:
            return CliOutcome(exc.code, out.getvalue(), err.getvalue(), None)
    values = {**vars(parsed), "run": parsed.run.__name__}
    return CliOutcome(None, out.getvalue(), err.getvalue(), values)


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


def reachable_oracle(dag: CausalDag, x: str, z: frozenset[str]) -> frozenset[str]:
    """Every node joined to ``x`` by a trail that is active given ``z``, ``x``
    included: a walk over (node, up) states, where up records that the node
    was entered from a child and down that it was entered from a parent."""
    parents = {n: [p for p, c in dag.edges if c == n] for n in dag.nodes}
    children = {n: [c for p, c in dag.edges if p == n] for n in dag.nodes}
    # nodes in Z or with a descendant in Z; a collider there is open
    opens_collider = set(z)
    todo = list(z)
    while todo:
        for p in parents[todo.pop()]:
            if p not in opens_collider:
                opens_collider.add(p)
                todo.append(p)

    start = (x, True)
    seen = {start}
    states = [start]
    while states:
        v, up = states.pop()
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
                states.append(state)
    return frozenset(v for v, _ in seen)


def statement_grid(names) -> Iterator[IndependenceStatement]:
    """The statement of each cell of the statement grid, in grid order."""
    return (IndependenceStatement(*cell) for cell in grid_cells(names))


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


def cells_oracle(
    table: WorldTable, stmt: IndependenceStatement, counts=None
) -> dict[tuple[int, ...], dict[tuple[int, int], int]]:
    """The ``(a, b)`` cell weights of ``stmt`` per stratum, from one
    ``(*stratum, a, b)`` key per row: 1 per row, or the row-aligned
    ``counts``."""
    names = (*sorted(stmt.given), stmt.x, stmt.y)
    keys = zip(*map(table.column, names))
    if counts is None:
        cells = Counter(keys)
    else:
        cells = {}
        for key, weight in zip(keys, counts):
            cells[key] = cells.get(key, 0) + weight
    strata: dict[tuple[int, ...], dict[tuple[int, int], int]] = {}
    for key, weight in cells.items():
        strata.setdefault(key[:-2], {})[key[-2:]] = weight
    return strata


def strata_oracle(table: WorldTable, given) -> list[tuple[tuple[int, ...], int]]:
    """The ``(stratum, row mask)`` of every stratum of ``given`` in
    ``table``, sorted, with each row's bit set one row at a time."""
    names = sorted(given)
    masks: dict[tuple[int, ...], int] = {}
    for i, world in enumerate(worlds_of(table)):
        key = tuple(world[n] for n in names)
        masks[key] = masks.get(key, 0) | 1 << i
    return sorted(masks.items())


def propagate(
    scm: Scm, order, columns: dict[str, tuple[int, ...]]
) -> dict[str, tuple[int, ...]]:
    """Complete ``columns``, one equal-length column per exogenous variable,
    with every endogenous column of ``order``, in place: each mechanism
    fills its child's column in one pass over its parents' columns."""
    for node in order:
        if node not in columns:
            mech = scm.mechanisms[node]
            parent_rows = zip(*(columns[p] for p in mech.parents))
            columns[node] = tuple(map(mech.table.__getitem__, parent_rows))
    return columns


def product_columns(domains):
    """The columns of ``itertools.product(*domains)``, in closed form: a
    domain's column repeats each of its levels once per combination of the
    later domains, and that block once per combination of the earlier ones."""
    total = inner = math.prod(map(len, domains))
    for domain in domains:
        inner //= len(domain)
        block = itertools.chain.from_iterable((level,) * inner for level in domain)
        yield tuple(block) * (total // inner // len(domain))


def rows_worlds(scm: Scm) -> WorldTable:
    """The model's worlds by the row path: closed-form exogenous columns,
    propagated, zipped into rows that the constructor sorts."""
    exogenous = scm.dag.exogenous()
    columns = dict(zip(exogenous, product_columns([scm.domain(n) for n in exogenous])))
    propagate(scm, scm.dag.topological_order(), columns)
    return WorldTable(scm.names, zip(*(columns[n] for n in scm.names)) if scm.names else [()])


def project_rows(table: WorldTable, names) -> WorldTable:
    """The table's rows on ``names`` by one ``itemgetter`` per row."""
    names = tuple(names)
    if not names:
        return WorldTable(names, [()] if table.rows else [])
    pick = operator.itemgetter(*map(table.columns.index, names))
    rows = map(pick, table.rows) if len(names) > 1 else zip(map(pick, table.rows))
    return WorldTable(names, rows)


def outside_oracle(table: WorldTable, other: WorldTable) -> WorldTable:
    """The rows of ``table`` that ``other`` lacks, by a set of ``other``'s
    rows."""
    lacking = set(other.rows).__contains__
    return WorldTable(table.columns, itertools.filterfalse(lacking, table.rows))


def exogenous_last(scm: Scm) -> Scm:
    """The same model with its exogenous variables declared after its
    endogenous ones, so that the sorted row order is not product order."""
    order = (*scm.dag.endogenous(), *scm.dag.exogenous())
    by_name = {v.name: v for v in scm.variables}
    dag = CausalDag(order, scm.dag.edges)
    return Scm(dag, tuple(map(by_name.__getitem__, order)), scm.mechanisms)


def assert_masks_are_the_rows(table: WorldTable) -> None:
    """Each column's level masks have bit i where row i has the level, and
    the table has as many rows as its ``kept`` mask has bits."""
    assert len(table) == len(table.rows) == table.kept.bit_count()
    for name in table.columns:
        levels = [((level,), mask) for level, mask in table.levels(name).items()]
        assert levels == strata_oracle(table, {name}), name


def evaluate(mech: Mechanism, assignment: dict[str, int]) -> int:
    """The mechanism's output in one world, read from its parents' levels."""
    return mech.table[tuple(assignment[p] for p in mech.parents)]


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
                assignment[node] = evaluate(scm.mechanisms[node], assignment)
        worlds.add(World(scm.names, tuple(assignment[n] for n in scm.names)))
    return sorted(worlds, key=lambda w: w.values)


# the comparison operators, read here rather than from the goal's own tests
COMPARISONS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
               "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def filter_oracle(worlds: list[World], goal: GoalPredicate) -> list[World]:
    """The worlds in which every comparison of the goal holds."""
    return [
        w for w in worlds
        if all(COMPARISONS[c.op](w[c.variable], c.level) for c in goal.conjuncts)
    ]


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
    """A DAG over ``n_nodes`` nodes, named A-H while they fit and V0, V1, ...
    beyond, with each edge of a shuffled causal order drawn at ``edge_prob``."""
    if n_nodes <= len(NAMES):
        names = NAMES[:n_nodes]
    else:
        names = tuple(f"V{i}" for i in range(n_nodes))
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
    lowest: int = 0,
) -> Scm:
    """A random model whose domains are ranges of ``min_levels`` to
    ``max_levels`` levels, each starting at 0 or, with ``lowest`` below 0,
    at a level drawn from ``lowest`` to 0."""
    n = rng.randint(2, max_vars)
    dag = random_dag(rng, n, edge_prob)
    variables = []
    for name in dag.nodes:
        start = rng.randint(lowest, 0) if lowest else 0
        width = rng.randint(min_levels, max_levels)
        variables.append(Variable(name, tuple(range(start, start + width))))
    variables = tuple(variables)
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


def candidates_oracle(m, max_effects: int):
    """The goal-hypothesis enumeration in two plain steps: list every
    effect set of up to ``max_effects`` of the action's descendants
    (read off the edge list) with each equality goal over a member that
    some surgered world meets, then build each as a final model, keeping the
    construction error of one whose arrow reversal closes a cycle.  Returns
    ``(finals, skipped)`` in the shape ``enumerate_goal_hypotheses`` does."""
    reached = {b for a, b in reachability_oracle(m.base.dag.edges) if a == m.target}
    descendants = [n for n in m.base.dag.nodes if n in reached]
    worlds = worlds_oracle(m.model)
    hypotheses = []
    for size in range(1, max_effects + 1):
        for effects in itertools.combinations(descendants, size):
            for var in effects:
                for level in m.base.domain(var):
                    g = GoalPredicate((Comparison(var, "=", level),))
                    if filter_oracle(worlds, g):
                        hypotheses.append((effects, g))
    finals, skipped = [], []
    for effects, g in hypotheses:
        label = str(g) if g.variables == effects else f"{g}[{','.join(effects)}]"
        try:
            finals.append(build_final_model(m, effects, g, name=label))
        except TeleologyError as exc:
            skipped.append((label, exc))
    return finals, skipped


def reduction_survey_oracle(f, rest_level: int | None = None) -> dict[str, Mechanism]:
    """The pre-copy, intention and action mechanisms ``build_reduction``
    makes for the final model ``f``, keyed by name, or the same
    ``ReductionError`` it raises, checked in the same order.

    Every exogenous context is evaluated world by world at every action
    level.  Each context keeps its pre-state (the goal variables at rest),
    whether the goal holds at rest, and the list of levels that meet it; the
    intention is read per pre-state and the action level per context."""
    surgered, action = f.mstar.model, f.mstar.target
    action_domain = surgered.domain(action)
    rest = action_domain[0] if rest_level is None else rest_level
    goal_vars = [n for n in surgered.names if n in f.goal.variables]
    context = [n for n in surgered.dag.exogenous() if n != action]
    order = topological_oracle(surgered.dag)

    def world(assignment: dict[str, int]) -> dict[str, int]:
        for node in order:
            if node not in assignment:
                assignment[node] = evaluate(surgered.mechanisms[node], assignment)
        return assignment

    def meets(values: dict[str, int]) -> bool:
        return all(c.holds(values[c.variable]) for c in f.goal.conjuncts)

    surveys = []
    for combo in itertools.product(*(surgered.domain(n) for n in context)):
        at_rest = world({**dict(zip(context, combo)), action: rest})
        achieving = [
            level
            for level in action_domain
            if meets(world({**dict(zip(context, combo)), action: level}))
        ]
        pre = tuple(at_rest[g] for g in goal_vars)
        surveys.append((pre, meets(at_rest), achieving))
    if not any(a for _, _, a in surveys):
        raise DegenerateReductionError(
            f"goal {f.goal} is not achievable by any level of {action} in any context"
        )

    mechanisms: dict[str, Mechanism] = {}
    reach = reachability_oracle(surgered.dag.edges)
    for g in goal_vars:
        parents = [n for n in context if (n, g) in reach]
        if not parents:
            if not context:
                raise ReductionError("no exogenous context to carry the pre-action state")
            parents = [context[0]]
        table = {}
        for combo in itertools.product(*(surgered.domain(p) for p in parents)):
            ctx = {n: surgered.domain(n)[0] for n in context}
            ctx.update(zip(parents, combo))
            table[combo] = world({**ctx, action: rest})[g]
        mechanisms[f"{g}0"] = Mechanism(f"{g}0", tuple(parents), table)

    fires: dict[tuple[int, ...], set[bool]] = {}
    for pre, met, levels in surveys:
        fires.setdefault(pre, set()).add(not met and bool(levels))
    i_table = {}
    for combo in itertools.product(*(surgered.domain(g) for g in goal_vars)):
        seen = fires.get(combo, {False})
        if len(seen) > 1:
            raise ReductionError(
                "intention is not a function of the pre-action goal "
                f"measurements: contexts with pre-state {combo} disagree"
            )
        i_table[combo] = int(True in seen)
    mechanisms["I"] = Mechanism("I", tuple(f"{g}0" for g in goal_vars), i_table)

    chosen = {min(a) for _, met, a in surveys if not met and a}
    if len(chosen) > 1:
        raise ReductionError(
            f"no single action level realizes the intention: {sorted(chosen)}"
        )
    act_on = chosen.pop() if chosen else rest
    mechanisms[action] = Mechanism(action, ("I",), {(0,): rest, (1,): act_on})
    return mechanisms


def reduction_levels_oracle(f, rest_level: int | None = None) -> dict[str, Mechanism]:
    """The pre- and post-action copy, intention and action mechanisms that
    ``build_reduction`` makes for the final model ``f``, for a reduction it
    builds without error.

    Each action level is propagated over every exogenous context, taken in
    ``itertools.product`` order, in one column-wise pass; context masks
    (bit i is context i) record where each level meets the goal and which
    contexts share each pre-state at rest.  Each copy is propagated over
    the product of its parents' levels, the other context variables at
    their domain minimum and the action at rest unless it is a parent."""
    surgered, action = f.mstar.model, f.mstar.target
    action_domain = surgered.domain(action)
    rest = action_domain[0] if rest_level is None else rest_level
    goal_vars = [n for n in surgered.names if n in f.goal.variables]
    context = [n for n in surgered.dag.exogenous() if n != action]
    order = surgered.dag.topological_order()
    combos = list(itertools.product(*(surgered.domain(n) for n in context)))
    ctx_columns = dict(zip(context, zip(*combos)))
    meets = {}
    for level in action_domain:
        columns = propagate(
            surgered, order, {**ctx_columns, action: (level,) * len(combos)}
        )
        met = (1 << len(combos)) - 1
        for name, test in f.goal.level_tests.items():
            met &= passing(level_masks(columns[name]), test)
        meets[level] = met
        if level == rest:
            pre_states = dict(
                stratify(len(combos), (level_masks(columns[g]) for g in goal_vars))
            )
    achievable = 0
    for met in meets.values():
        achievable |= met
    fires = achievable & ~meets[rest]

    def tabulate(parents: list[str], read: str) -> dict[tuple[int, ...], int]:
        keys = list(itertools.product(*(surgered.domain(p) for p in parents)))
        fixed = {**{n: surgered.domain(n)[0] for n in context}, action: rest}
        columns = {n: (level,) * len(keys) for n, level in fixed.items()}
        columns.update(zip(parents, zip(*keys)))
        return dict(zip(keys, propagate(surgered, order, columns)[read]))

    mechanisms = {}
    for g in goal_vars:
        ancestors = surgered.dag.ancestors((g,))
        parents = [n for n in context if n in ancestors] or context[:1]
        mechanisms[f"{g}0"] = Mechanism(f"{g}0", parents, tabulate(parents, g))
        post = [*(n for n in context if n in ancestors), action]
        mechanisms[f"{g}1"] = Mechanism(f"{g}1", post, tabulate(post, g))
    i_table = {
        combo: int(bool(pre_states.get(combo, 0) & fires))
        for combo in itertools.product(*(surgered.domain(g) for g in goal_vars))
    }
    mechanisms["I"] = Mechanism("I", [f"{g}0" for g in goal_vars], i_table)
    # each firing context's least achieving level; the reduction has one
    act_on = rest
    for level in action_domain:
        if fires & meets[level]:
            act_on = level
            break
    mechanisms[action] = Mechanism(action, ("I",), {(0,): rest, (1,): act_on})
    return mechanisms


def effective_parents_oracle(scm: Scm, node: str) -> tuple[str, ...]:
    """The parents of ``node`` whose level changes its mechanism's output:
    each parent is varied over its domain with every combination of the
    other parents' levels held fixed."""
    mech = scm.mechanisms.get(node)
    if mech is None:
        return ()
    domains = [scm.domain(p) for p in mech.parents]
    effective = []
    for i, p in enumerate(mech.parents):
        for rest in itertools.product(*domains[:i], *domains[i + 1 :]):
            keys = (rest[:i] + (level,) + rest[i:] for level in domains[i])
            if len(set(map(mech.table.__getitem__, keys))) > 1:
                effective.append(p)
                break
    return tuple(effective)


def post_action_worlds(r) -> WorldTable:
    """The reduction's worlds read on the base variables, goal variables
    from their post-action copies, relabelled to the base names: the reading
    ``compare_structures`` diffs against the compatible worlds."""
    shared = r.shared_columns
    post = enumerate_worlds(r.scm).project(r.post_of.get(n, n) for n in shared)
    return WorldTable(shared, post.rows)


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


def verify_mechanism_consistency(scm: Scm, table: WorldTable) -> bool:
    """Re-evaluate every mechanism on every world; True when all agree."""
    for node, mech in scm.mechanisms.items():
        parent_rows = zip(*map(table.column, mech.parents))
        outputs = map(mech.table.__getitem__, parent_rows)
        if list(outputs) != list(table.column(node)):
            return False
    return True


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


def render_table_oracle(columns, rows) -> str:
    """Align values under a header row, two spaces between columns, one
    cell at a time: each cell made a string, each column as wide as its
    widest cell, each cell padded to its column."""
    rows = [[str(v) for v in row] for row in rows]
    widths = [len(c) for c in columns]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    for row in [list(columns)] + rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


__all__ = [
    "World",
    "worlds_of",
    "world_set",
    "reachability_oracle",
    "topological_oracle",
    "dsep_oracle",
    "reachable_oracle",
    "statement_grid",
    "factorization_oracle",
    "cells_oracle",
    "strata_oracle",
    "worlds_oracle",
    "propagate",
    "product_columns",
    "rows_worlds",
    "project_rows",
    "outside_oracle",
    "assert_masks_are_the_rows",
    "exogenous_last",
    "COMPARISONS",
    "filter_oracle",
    "project_oracle",
    "uniform_oracle",
    "dependence_oracle",
    "all_statements",
    "random_dag",
    "random_scm",
    "random_goal",
    "random_final",
    "candidates_oracle",
    "reduction_survey_oracle",
    "reduction_levels_oracle",
    "post_action_worlds",
    "m1_scm",
    "chain_scm",
    "verify_mechanism_consistency",
    "value_sets",
    "render_table_oracle",
    "plain_document",
    "records",
    "render_json",
    "cli_oracle",
    "cli_outcome",
    "enumerate_worlds",
]

