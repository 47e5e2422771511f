"""The do-operator: graph surgery that frees one variable from its causes.

Surgery removes every inbound arrow of the target and drops its mechanism,
so the target ranges freely over its domain while every other mechanism
keeps working.  Nodes are never removed.  The derived model,
``MStarModel``, keeps the base model, the target's name and the surgered
model; intervening on a second variable means building a second derived
model from the base.
"""

from __future__ import annotations

import operator
from functools import cached_property, partial

from teleo.errors import UnknownVariableError
from teleo.model import CausalDag, Record, Scm, WorldTable

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from fractions import Fraction

    from teleo.teleology import GoalPredicate

__all__ = [
    "MStarModel",
    "do_surgery",
    "enumerate_worlds_star",
    "interventional_distribution",
]


class MStarModel(Record):
    """A base model after surgery on one variable.

    ``model`` is the surgered Scm: same nodes and variables as the base,
    inbound edges of the target removed, target mechanism dropped.  Its
    world table (``Scm.worlds``) is enumerated once, and ``worlds_meeting``
    keeps one filtered table per goal the same way.
    """

    base: Scm
    target: str
    model: Scm

    @property
    def surgered_dag(self) -> CausalDag:
        return self.model.dag

    @cached_property
    def _worlds_by_goal(self) -> dict[GoalPredicate, WorldTable]:
        return {}

    def worlds_meeting(self, goal: GoalPredicate) -> WorldTable:
        """The surgered worlds in which ``goal`` holds.

        Filtered once per distinct goal; every later call with an equal goal
        returns the same table object.
        """
        table = self._worlds_by_goal.get(goal)
        if table is None:
            table = self.model.worlds.filter(goal.level_tests)
            self._worlds_by_goal[goal] = table
        return table


def do_surgery(scm: Scm, target: str) -> MStarModel:
    """Build the derived model for an intervention on ``target``.

    The target keeps its domain and its outgoing arrows; it just stops
    listening to its former parents.
    """
    if target not in scm.dag.nodes:
        raise UnknownVariableError(f"unknown intervention target {target!r}")
    kept_edges = tuple(e for e in scm.dag.edges if e[1] != target)
    dag = CausalDag(scm.dag.nodes, kept_edges)
    mechanisms = {k: m for k, m in scm.mechanisms.items() if k != target}
    return MStarModel(scm, target, Scm(dag, scm.variables, mechanisms))


def enumerate_worlds_star(m: MStarModel) -> WorldTable:
    """Worlds of the surgered model.

    The freed target ranges over its whole domain alongside the base
    exogenous variables; fixing the target to one value is a query-time
    restriction, not part of the table.  The table is the surgered model's
    ``Scm.worlds``: computed once, and the same object on every call.
    """
    return m.model.worlds


def interventional_distribution(
    m: MStarModel, target_value: int, query: str
) -> dict[int, Fraction]:
    """Distribution of ``query`` in the worlds where the target is set.

    This is the post-intervention probability of the query variable: filter
    the surgered model's worlds to the chosen target value and read off the
    uniform distribution.
    """
    domain = m.model.domain(m.target)
    if target_value not in domain:
        raise UnknownVariableError(
            f"value {target_value} outside domain {domain} of {m.target}"
        )
    m.model.variable(query)  # raises on unknown query variable
    table = enumerate_worlds_star(m).filter(
        {m.target: partial(operator.eq, target_value)}
    )
    return table.distribution(query)
