"""Final models: interventions tagged with the effects they aim at.

A final model wraps a surgered model with a non-empty set of intended
effects and a goal predicate over them.  In the final DAG the arrows from
the action to its intended effects run the other way: the action 'listens'
to its ends.  Worlds compatible with the hypothesis are the surgered
model's worlds in which the goal holds, so adopting a goal hypothesis only
ever removes worlds.

Nothing here touches the underlying mechanisms: the causal story stays
intact, the teleological reading is a second constraint layered on top.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Callable, Iterable, Sequence
from functools import cached_property, partial

from teleo.dsep import reachable
from teleo.errors import (
    ComparisonError,
    EnumerationBudgetError,
    GoalError,
    ModelStructureError,
    TeleologyError,
    UnknownVariableError,
)
from teleo.intervention import MStarModel
from teleo.model import (
    CausalDag,
    IndependenceStatement,
    Record,
    Scm,
    WorldTable,
    grid_pairs,
)

__all__ = [
    "Comparison",
    "GoalPredicate",
    "goal",
    "FinalModel",
    "build_final_model",
    "compatible_worlds",
    "implied_grid",
    "implied_dependencies",
    "distinguishable",
    "Distinguishability",
    "enumerate_goal_hypotheses",
    "DEFAULT_CANDIDATE_CAP",
]

DEFAULT_CANDIDATE_CAP = 4096

_OPS: dict[str, Callable[[int, int], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class Comparison(Record):
    """One atomic constraint: variable OP level."""

    variable: str
    op: str
    level: int

    def __init__(self, variable: str, op: str, level: int):
        if op not in _OPS:
            raise GoalError(f"unknown comparison operator {op!r}")
        self.__dict__.update(variable=variable, op=op, level=level)

    def holds(self, value: int) -> bool:
        return _OPS[self.op](value, self.level)

    def __str__(self) -> str:
        return f"{self.variable}{self.op}{self.level}"


class GoalPredicate(Record):
    """A conjunction of atomic comparisons over intended-effect variables."""

    conjuncts: tuple[Comparison, ...]

    def __init__(self, conjuncts: Iterable[Comparison]):
        conjuncts = tuple(conjuncts)
        if not conjuncts:
            raise GoalError("goal predicate needs at least one comparison")
        self.__dict__["conjuncts"] = conjuncts

    @property
    def variables(self) -> tuple[str, ...]:
        """The goal variables, in order of first appearance."""
        return tuple(self.level_tests)

    @cached_property
    def level_tests(self) -> dict[str, Callable[[int], bool]]:
        """One test per goal variable, in order of first appearance: does a
        level meet every comparison on that variable?  The goal holds where
        every variable passes its test, which lets a world table select rows
        from the goal variables' level masks."""
        groups: dict[str, list[Comparison]] = {}
        for c in self.conjuncts:
            groups.setdefault(c.variable, []).append(c)
        return {var: partial(_meets, tuple(cs)) for var, cs in groups.items()}

    def validate(self, scm: Scm) -> None:
        """Check every referenced variable exists and the conjunction is
        satisfiable by some combination of domain values."""
        for var, test in self.level_tests.items():
            domain = scm.domain(var)  # raises UnknownVariableError
            if not any(map(test, domain)):
                raise GoalError(
                    f"goal {self} cannot be satisfied by any level of {var}"
                )

    def __str__(self) -> str:
        return " and ".join(str(c) for c in self.conjuncts)


def _meets(conjuncts: tuple[Comparison, ...], level: int) -> bool:
    return all(c.holds(level) for c in conjuncts)


def goal(variable: str, op: str, level: int) -> GoalPredicate:
    """Shorthand for a single-comparison goal."""
    return GoalPredicate((Comparison(variable, op, level),))


class FinalModel(Record, uncompared={"name"}):
    """A surgered model plus intended effects and a goal over them.

    A declared final block and an enumerated goal hypothesis are both final
    models.  Their compatible worlds come from ``compatible_worlds``.  The
    name labels a model; equality and hashing leave it out.
    """

    mstar: MStarModel
    intended_effects: tuple[str, ...]
    goal: GoalPredicate
    final_dag: CausalDag
    name: str | None = None

    @property
    def action(self) -> str:
        return self.mstar.target

    @property
    def label(self) -> str:
        return self.name if self.name is not None else str(self.goal)


def _reverse_toward_action(
    dag: CausalDag, action: str, intended: Sequence[str]
) -> CausalDag:
    """Rewire the surgered DAG so the action listens to its intended effects.

    A direct arrow action -> effect is reversed in place; an intended effect
    further down a chain gains a direct arc effect -> action, and nothing is
    removed.
    """
    edges = list(dag.edges)
    for eff in intended:
        if (action, eff) in edges:
            edges[edges.index((action, eff))] = (eff, action)
        else:
            edges.append((eff, action))
    try:
        return CausalDag(dag.nodes, tuple(edges))
    except ModelStructureError as exc:
        reason = str(exc)
    # raised outside the handler, so that it holds no chained traceback
    raise TeleologyError(
        f"reversing arrows toward {action} for effects "
        f"{{{', '.join(intended)}}} breaks the graph: {reason}"
    )


def build_final_model(
    m: MStarModel,
    intended: Iterable[str],
    goal: GoalPredicate,
    name: str | None = None,
) -> FinalModel:
    """Attach a goal hypothesis to a surgered model.

    The goal may only mention intended effects and must be satisfiable,
    intended effects must be causal descendants of the action in the base
    model, and reversing the arrows toward the action must leave a DAG;
    the rules are checked in that order.
    """
    base = m.base
    intended = tuple(intended)
    if not intended:
        raise TeleologyError("at least one intended effect is required")
    for eff in intended:
        if eff not in base.dag.nodes:
            raise UnknownVariableError(f"unknown intended effect {eff!r}")
    order = {n: i for i, n in enumerate(base.names)}
    intended = tuple(sorted(set(intended), key=order.__getitem__))
    stray = [v for v in goal.variables if v not in intended]
    if stray:
        raise TeleologyError(
            f"goal mentions {', '.join(stray)} outside the intended effects"
        )
    goal.validate(base)
    descendants = set(base.dag.descendants(m.target))
    outside = [e for e in intended if e not in descendants]
    if outside:
        raise TeleologyError(
            f"intended effects must be causal descendants of {m.target}; "
            f"{', '.join(outside)} are not"
        )
    final_dag = _reverse_toward_action(m.surgered_dag, m.target, intended)
    return FinalModel(m, intended, goal, final_dag, name)


def compatible_worlds(f: FinalModel) -> WorldTable:
    """Surgered-model worlds in which the goal holds.

    Always a subset of the intervention's world table; an empty result means
    the goal is unreachable under this action, which is a verdict for the
    caller to report, not an error.  The table is computed once per
    surgered model and goal, and the same object is returned on every call,
    for every final model over that surgered model and an equal goal.
    """
    return f.mstar.worlds_meeting(f.goal)


def implied_grid(f: FinalModel) -> tuple[list, list, list, list[bool], list[bool]]:
    """The statement grid as columns in grid order (``grid_pairs``): x, y,
    the conditioning set as a sorted tuple, and whether the final DAG
    d-separates x and y given it and the compatible worlds make them
    independent.  Each conditioning set is decided once for all its pairs:
    one ``WorldTable.independent`` call, and one ``reachable`` walk per x,
    whose mask has the bit of every y d-connected to it.  Raises
    ``EmptyTableError`` when no world is compatible."""
    names, table, dag = f.mstar.model.names, compatible_worlds(f), f.final_dag
    xs, ys, givens, pairs, position = [], [], [], [], dag._position
    for x, y, sets in grid_pairs(names):
        xs += [x] * len(sets)
        ys += [y] * len(sets)
        givens += sets
        pairs.append((x, y))
    separated, independent = {}, {}  # each set's verdicts, read in grid order
    for given in [(), *zip(names)]:
        z = frozenset(given)
        among = list(filter(z.isdisjoint, pairs))
        firsts = dict.fromkeys(map(operator.itemgetter(0), among))
        reached = {x: reachable(dag, x, z) for x in firsts}
        separated[given] = iter([not reached[x] >> position[y] & 1 for x, y in among])
        independent[given] = iter(table.independent(z, among))
    verdicts = [list(map(next, map(d.__getitem__, givens))) for d in (separated, independent)]
    return xs, ys, givens, *verdicts


def implied_dependencies(f: FinalModel) -> list[tuple[IndependenceStatement, bool, bool]]:
    """``(statement, graph_separated, dist_independent)`` for every variable
    pair, unconditional and given each other variable, in grid order: the
    verdict of the final DAG and that of the compatible worlds
    (``implied_grid``, row by row).

    The two verdicts are reported side by side and never merged: with
    deterministic mechanisms the filtered distribution can show more
    independences than the final DAG predicts.
    """
    xs, ys, givens, separated, independent = implied_grid(f)
    return list(zip(map(IndependenceStatement, xs, ys, givens), separated, independent))


class Distinguishability(Record):
    """Whether two goal hypotheses predict different observation conditions:
    the compatible worlds only the first allows, and those only the second
    allows."""

    only_first: WorldTable
    only_second: WorldTable

    @property
    def distinguishable(self) -> bool:
        return bool(len(self.only_first) or len(self.only_second))

    @property
    def witnesses(self) -> WorldTable:
        rows = self.only_first.rows + self.only_second.rows
        return WorldTable(self.only_first.columns, rows)


def distinguishable(f1: FinalModel, f2: FinalModel) -> Distinguishability:
    """Compare the compatible-world sets of two hypotheses.

    Hypotheses are observationally distinguishable exactly when the sets
    differ; the symmetric difference is returned as witness worlds.  Equal
    bases and targets make equal surgered models, so both sets are filtered
    from the first hypothesis' surgered worlds and differ as masks of one
    universe, even when the two surgered models are separate objects.
    """
    if f1.mstar.base != f2.mstar.base or f1.mstar.target != f2.mstar.target:
        raise ComparisonError(
            "hypotheses must be built over the same base model and intervention"
        )
    t1, t2 = compatible_worlds(f1), f1.mstar.worlds_meeting(f2.goal)
    return Distinguishability(t1.outside(t2), t2.outside(t1))


def enumerate_goal_hypotheses(
    m: MStarModel, max_effects: int, cap: int = DEFAULT_CANDIDATE_CAP
) -> tuple[list[FinalModel], list[tuple[str, TeleologyError]]]:
    """All candidate goal hypotheses for one intervention, as final models.

    Candidates are non-empty subsets of the action's descendants up to
    ``max_effects`` members, crossed with every atomic equality goal over a
    member variable.  Deeper subsets probe how far along a chain the
    intention reaches; wider ones probe which branch of co-effects is meant.
    A candidate is named by its goal, with its effect set appended when that
    holds more than the goal's variable: ``T=1``, ``T=1[T,B]``.

    Returns ``(finals, skipped)``: the final models in candidate order, and
    a ``(name, error)`` pair for each candidate whose arrow reversal closes
    a cycle, the error kept without its traceback.  Candidates whose goal no
    reachable world satisfies are dropped before any final model is built,
    so they appear in neither list.  The candidate count is checked against
    ``cap`` before any subset is built.
    """
    if max_effects < 1:
        raise TeleologyError("max_effects must be at least 1")
    descendants = m.base.dag.descendants(m.target)
    n = len(descendants)
    sizes = range(1, min(max_effects, n) + 1)
    # each variable is in C(n-1, k-1) of the k-subsets, one candidate per level
    levels = sum(len(m.base.domain(v)) for v in descendants)
    required = levels * sum(math.comb(n - 1, k - 1) for k in sizes)
    if required > cap:
        raise EnumerationBudgetError(required, cap)
    finals: list[FinalModel] = []
    skipped: list[tuple[str, TeleologyError]] = []
    subsets = itertools.chain.from_iterable(
        itertools.combinations(descendants, k) for k in sizes
    )
    for effects in subsets:
        for var in effects:
            for level in m.base.domain(var):
                g = goal(var, "=", level)
                if not len(m.worlds_meeting(g)):
                    continue
                name = str(g) if effects == (var,) else f"{g}[{','.join(effects)}]"
                try:
                    finals.append(build_final_model(m, effects, g, name))
                except TeleologyError as exc:
                    # its traceback would hold this frame, and so the list
                    skipped.append((name, exc.with_traceback(None)))
    return finals, skipped
