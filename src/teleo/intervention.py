"""The do-operator: graph surgery that frees one variable from its causes.

Surgery removes every inbound arrow of the target and drops its mechanism,
so the target ranges freely over its domain while every other mechanism
keeps working.  Nodes are never removed.  A derived model records exactly
one intervention; intervening on a second variable means building a second
derived model from the base.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from teleo.errors import UnknownVariableError
from teleo.model import CausalDag, Scm, WorldTable, enumerate_worlds

__all__ = [
    "InterventionSpec",
    "MStarModel",
    "do_surgery",
    "enumerate_worlds_star",
    "interventional_distribution",
]


@dataclass(frozen=True)
class InterventionSpec:
    """Names the single variable the agent sets by fiat."""

    target: str


@dataclass(frozen=True)
class MStarModel:
    """A base model after surgery on one variable.

    ``model`` is the surgered Scm: same nodes and variables as the base,
    inbound edges of the target removed, target mechanism dropped.

    ``worlds`` is the surgered model's world table, computed on first use
    and shared by every later reader of this object.  That is sound because
    the object is frozen and ``Scm`` copies its mechanisms at construction;
    callers must not mutate ``Scm.mechanisms`` in place.
    """

    base: Scm
    intervention: InterventionSpec
    model: Scm

    @property
    def target(self) -> str:
        return self.intervention.target

    @property
    def surgered_dag(self) -> CausalDag:
        return self.model.dag

    @cached_property
    def worlds(self) -> WorldTable:
        return enumerate_worlds(self.model)


def do_surgery(scm: Scm, spec: InterventionSpec | str) -> MStarModel:
    """Build the derived model for one intervention.

    The target keeps its domain and its outgoing arrows; it just stops
    listening to its former parents.
    """
    if isinstance(spec, str):
        spec = InterventionSpec(spec)
    if spec.target not in scm.dag.nodes:
        raise UnknownVariableError(f"unknown intervention target {spec.target!r}")
    kept_edges = tuple(e for e in scm.dag.edges if e[1] != spec.target)
    dag = CausalDag(scm.dag.nodes, kept_edges)
    mechanisms = {k: m for k, m in scm.mechanisms.items() if k != spec.target}
    return MStarModel(scm, spec, Scm(dag, scm.variables, mechanisms))


def enumerate_worlds_star(m: MStarModel) -> WorldTable:
    """Worlds of the surgered model.

    The freed target ranges over its whole domain alongside the base
    exogenous variables; fixing the target to one value is a query-time
    restriction, not part of the table.  The table is computed once per
    ``MStarModel`` and the same object is returned on every call.
    """
    return m.worlds


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
    table = enumerate_worlds_star(m).filter(lambda w: w[m.target] == target_value)
    return table.distribution(query)
