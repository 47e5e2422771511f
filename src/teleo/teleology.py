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
import operator
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Iterable, Sequence

from teleo.dsep import d_separated
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
    Scm,
    WorldTable,
    statement_grid,
    uniform_independent,
)

__all__ = [
    "Comparison",
    "GoalPredicate",
    "goal",
    "FinalModel",
    "build_final_model",
    "compatible_worlds",
    "implied_dependencies",
    "ImpliedDependence",
    "distinguishable",
    "Distinguishability",
    "GoalHypothesis",
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


@dataclass(frozen=True)
class Comparison:
    """One atomic constraint: variable OP level."""

    variable: str
    op: str
    level: int

    def __post_init__(self):
        if self.op not in _OPS:
            raise GoalError(f"unknown comparison operator {self.op!r}")

    def holds(self, value: int) -> bool:
        return _OPS[self.op](value, self.level)

    def __str__(self) -> str:
        return f"{self.variable}{self.op}{self.level}"


@dataclass(frozen=True)
class GoalPredicate:
    """A conjunction of atomic comparisons over intended-effect variables."""

    conjuncts: tuple[Comparison, ...]

    def __post_init__(self):
        object.__setattr__(self, "conjuncts", tuple(self.conjuncts))
        if not self.conjuncts:
            raise GoalError("goal predicate needs at least one comparison")

    @property
    def variables(self) -> tuple[str, ...]:
        seen: list[str] = []
        for c in self.conjuncts:
            if c.variable not in seen:
                seen.append(c.variable)
        return tuple(seen)

    @cached_property
    def level_tests(self) -> dict[str, Callable[[int], bool]]:
        """One test per goal variable: does a level meet every comparison on
        that variable?  The goal holds where every variable passes its test,
        which lets a world table filter on the goal variables' columns."""
        return {
            var: partial(_meets, tuple(c for c in self.conjuncts if c.variable == var))
            for var in self.variables
        }

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


@dataclass(frozen=True)
class FinalModel:
    """A surgered model plus intended effects and a goal over them.

    ``worlds`` holds the compatible worlds (see ``compatible_worlds``):
    the table ``MStarModel.worlds_meeting`` keeps for this goal, shared with
    every final model and enumerated hypothesis over the same surgered model
    and an equal goal.
    """

    mstar: MStarModel
    intended_effects: tuple[str, ...]
    goal: GoalPredicate
    final_dag: CausalDag
    name: str | None = field(default=None, compare=False)

    @property
    def action(self) -> str:
        return self.mstar.target

    @property
    def label(self) -> str:
        return self.name if self.name is not None else str(self.goal)

    @property
    def worlds(self) -> WorldTable:
        return self.mstar.worlds_meeting(self.goal)


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
        raise TeleologyError(
            f"reversing arrows toward {action} for effects "
            f"{{{', '.join(intended)}}} breaks the graph: {exc}"
        ) from exc


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
    surgered model and goal, and the same object is returned on every call.
    """
    return f.worlds


@dataclass(frozen=True)
class ImpliedDependence:
    """Graphical and distributional verdicts for one independence statement.

    The two verdicts are reported side by side and never merged: with
    deterministic mechanisms the filtered distribution can show more
    independences than the final DAG predicts.
    """

    statement: IndependenceStatement
    graph_separated: bool
    dist_independent: bool


def implied_dependencies(f: FinalModel) -> list[ImpliedDependence]:
    """Verdicts for every variable pair, unconditional and one-variable
    conditioning, on the final DAG and on the compatible worlds."""
    table = compatible_worlds(f)
    return [
        ImpliedDependence(
            stmt,
            graph_separated=d_separated(f.final_dag, stmt),
            dist_independent=uniform_independent(table, stmt),
        )
        for stmt in statement_grid(f.mstar.model.names)
    ]


@dataclass(frozen=True)
class Distinguishability:
    """Whether two goal hypotheses predict different observation conditions:
    the compatible worlds only the first allows, and those only the second
    allows."""

    only_first: WorldTable
    only_second: WorldTable

    @property
    def distinguishable(self) -> bool:
        return bool(self.only_first.rows or self.only_second.rows)

    @property
    def witnesses(self) -> WorldTable:
        rows = self.only_first.rows + self.only_second.rows
        return WorldTable(self.only_first.columns, rows)


def distinguishable(f1: FinalModel, f2: FinalModel) -> Distinguishability:
    """Compare the compatible-world sets of two hypotheses.

    Hypotheses are observationally distinguishable exactly when the sets
    differ; the symmetric difference is returned as witness worlds.
    """
    if f1.mstar.base != f2.mstar.base or f1.mstar.target != f2.mstar.target:
        raise ComparisonError(
            "hypotheses must be built over the same base model and intervention"
        )
    t1, t2 = compatible_worlds(f1), compatible_worlds(f2)
    return Distinguishability(t1.outside(t2), t2.outside(t1))


@dataclass(frozen=True)
class GoalHypothesis:
    """One enumerated candidate: effect set, atomic goal, compatible worlds."""

    effects: tuple[str, ...]
    goal: GoalPredicate
    worlds: WorldTable

    @property
    def label(self) -> str:
        g = str(self.goal)
        if tuple(self.goal.variables) == self.effects:
            return g
        return f"{g}[{','.join(self.effects)}]"


def enumerate_goal_hypotheses(
    m: MStarModel, max_effects: int, cap: int = DEFAULT_CANDIDATE_CAP
) -> list[GoalHypothesis]:
    """All candidate goal hypotheses for one intervention.

    Candidates are non-empty subsets of the action's descendants up to
    ``max_effects`` members, crossed with every atomic equality goal over a
    member variable.  Deeper subsets probe how far along a chain the
    intention reaches; wider ones probe which branch of co-effects is meant.
    Candidates whose goal no reachable world satisfies are dropped.
    """
    if max_effects < 1:
        raise TeleologyError("max_effects must be at least 1")
    descendants = m.base.dag.descendants(m.target)
    subsets: list[tuple[str, ...]] = []
    for size in range(1, min(max_effects, len(descendants)) + 1):
        subsets.extend(itertools.combinations(descendants, size))
    required = sum(len(m.base.domain(v)) for s in subsets for v in s)
    if required > cap:
        raise EnumerationBudgetError(required, cap)
    out: list[GoalHypothesis] = []
    for effects in subsets:
        for var in effects:
            for level in m.base.domain(var):
                g = goal(var, "=", level)
                worlds = m.worlds_meeting(g)
                if len(worlds):
                    out.append(GoalHypothesis(effects, g, worlds))
    return out
