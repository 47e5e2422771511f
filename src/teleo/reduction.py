"""Purely causal counterparts of final models.

A reduction replaces the teleological reading with machinery a causalist
would accept: an intention variable I, a pre-action measurement of each goal
variable (suffix 0), the action driven by I, and the post-action measurement
(suffix 1).  I fires exactly when the goal is unmet with the action at its
rest level and some action level would meet it; the action then takes the
least such level.

The point of the module is comparison, not adjudication: it reports where
the reduction and the final model agree (the worlds they allow) and where
they do not (who the action listens to, and which separation statements
flip).
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Sequence

from teleo.dsep import reachable
from teleo.errors import (
    ComparisonError,
    DegenerateReductionError,
    ModelStructureError,
    ReductionError,
)
from teleo.model import (
    CausalDag,
    IndependenceStatement,
    Mechanism,
    Record,
    Scm,
    Variable,
    WorldTable,
    grid_cells,
    level_masks,
    propagate,
    stratify,
)
from teleo.teleology import FinalModel, compatible_worlds

__all__ = [
    "ReductionModel",
    "build_reduction",
    "reduction_worlds",
    "project_reduction",
    "splice_out",
    "rename_variable",
    "StructuralComparison",
    "compare_structures",
    "INTENTION_NAME",
]

INTENTION_NAME = "I"


class ReductionModel(Record):
    """An ordinary causal model standing in for a final model."""

    source: FinalModel
    scm: Scm
    action: str
    rest: int
    pre_of: dict[str, str]
    post_of: dict[str, str]

    @property
    def shared_columns(self) -> tuple[str, ...]:
        """Base variable names, with goal variables read from their
        post-action copies."""
        return self.source.mstar.model.names


def build_reduction(f: FinalModel, rest_level: int | None = None) -> ReductionModel:
    """Unroll a final model into one purely causal model.

    The pre-action state is the surgered model evaluated with the action at
    its rest level (the domain minimum unless overridden).  Intermediate
    endogenous ancestors of the goal variables are collapsed away: every
    pre- and post-copy mechanism is tabulated directly over the exogenous
    context (plus the action, for post-copies).
    """
    surgered = f.mstar.model
    action = f.mstar.target
    action_domain = surgered.domain(action)
    rest = action_domain[0] if rest_level is None else rest_level
    if rest not in action_domain:
        raise ReductionError(
            f"rest level {rest} outside domain {action_domain} of {action}"
        )
    goal_vars = [n for n in surgered.names if n in set(f.goal.variables)]
    context = [n for n in surgered.dag.exogenous() if n != action]
    downstream = [
        n
        for n in surgered.dag.endogenous()
        if n not in goal_vars and n != action
    ]

    taken = set(surgered.names)
    pre_of: dict[str, str] = {}
    post_of: dict[str, str] = {}
    for g in goal_vars:
        for mapping, suffix in ((pre_of, "0"), (post_of, "1")):
            copy = f"{g}{suffix}"
            if copy in taken:
                raise ReductionError(f"cannot add {copy}: the name is taken")
            taken.add(copy)
            mapping[g] = copy
    if INTENTION_NAME in taken:
        raise ReductionError(f"cannot add {INTENTION_NAME}: the name is taken")

    # survey every exogenous context, one row per context: each action level
    # propagates all contexts in one column-wise pass, and the survey keeps
    # context masks (bit i is context i) of where each level meets the goal
    order = surgered.dag.topological_order()
    combos = list(itertools.product(*(surgered.domain(n) for n in context)))
    ctx_columns = dict(zip(context, zip(*combos)))
    goal_tests = f.goal.level_tests.items()
    meets: dict[int, int] = {}  # action level -> contexts it meets the goal in
    for level in action_domain:
        columns = propagate(
            surgered, order, {**ctx_columns, action: (level,) * len(combos)}
        )
        met = (1 << len(combos)) - 1
        for name, test in goal_tests:
            met &= sum(m for v, m in level_masks(columns[name]).items() if test(v))
        meets[level] = met
        if level == rest:
            # the pre-state strata: the contexts of each rest-level goal state
            pre_states = dict(
                stratify(len(combos), (level_masks(columns[g]) for g in goal_vars))
            )
    achievable = functools.reduce(operator.or_, meets.values())
    if not achievable:
        raise DegenerateReductionError(
            f"goal {f.goal} is not achievable by any level of {action} in any context"
        )
    # the intention fires where the goal is unmet at rest and some level meets it
    fires = achievable & ~meets[rest]

    def exo_parents(node: str) -> list[str]:
        """The context variables ``node`` depends on, in declaration order."""
        ancestors = surgered.dag.ancestors((node,))
        return [n for n in context if n in ancestors]

    defaults = {n: surgered.domain(n)[0] for n in context}
    variables: list[Variable] = [surgered.variable(n) for n in context]
    mechanisms: dict[str, Mechanism] = {}

    def tabulate(parents: list[str], fixed_action: int | None, read: str):
        """Mechanism table over exogenous parents (and optionally the
        action), filled by one column-wise pass of the whole model; context
        variables outside ``parents`` sit at their domain minimum."""
        combos = list(itertools.product(*(surgered.domain(p) for p in parents)))
        columns = {n: (level,) * len(combos) for n, level in defaults.items()}
        columns[action] = (fixed_action,) * len(combos)
        columns.update(zip(parents, zip(*combos)))
        return dict(zip(combos, propagate(surgered, order, columns)[read]))

    # pre-action copies of the goal variables
    for g in goal_vars:
        parents = exo_parents(g)
        if not parents:
            if not context:
                raise ReductionError(
                    "no exogenous context to carry the pre-action state"
                )
            parents = [context[0]]  # constant pre-state needs a carrier parent
        variables.append(Variable(pre_of[g], surgered.domain(g)))
        mechanisms[pre_of[g]] = Mechanism(
            pre_of[g], tuple(parents), tabulate(parents, rest, g)
        )

    # the intention: 1 iff the goal is unmet at rest and some level meets it;
    # contexts that share a pre-state must agree, and unseen pre-states idle
    i_table: dict[tuple[int, ...], int] = {}
    for combo in itertools.product(*(surgered.domain(g) for g in goal_vars)):
        rows = pre_states.get(combo, 0)
        firing = rows & fires
        if firing and firing != rows:
            raise ReductionError(
                "intention is not a function of the pre-action goal "
                f"measurements: contexts with pre-state {combo} disagree"
            )
        i_table[combo] = int(bool(firing))
    variables.append(Variable(INTENTION_NAME, (0, 1)))
    mechanisms[INTENTION_NAME] = Mechanism(
        INTENTION_NAME, tuple(pre_of[g] for g in goal_vars), i_table
    )

    # the action follows the intention: rest when idle, else the least
    # achieving level, which must not depend on the context
    chosen = []
    waiting = fires
    for level in action_domain:  # increasing, so each context's least level
        if waiting & meets[level]:
            chosen.append(level)
            waiting &= ~meets[level]
    if len(chosen) > 1:
        raise ReductionError(
            f"no single action level realizes the intention: {chosen}"
        )
    act_on = chosen[0] if chosen else rest
    variables.append(Variable(action, action_domain))
    mechanisms[action] = Mechanism(
        action, (INTENTION_NAME,), {(0,): rest, (1,): act_on}
    )

    # post-action copies and untouched downstream mechanisms
    for g in goal_vars:
        parents = exo_parents(g) + [action]
        variables.append(Variable(post_of[g], surgered.domain(g)))
        mechanisms[post_of[g]] = Mechanism(
            post_of[g], tuple(parents), tabulate(parents, None, g)
        )
    for node in downstream:
        mech = surgered.mechanisms[node]
        renamed = tuple(post_of.get(p, p) for p in mech.parents)
        variables.append(surgered.variable(node))
        mechanisms[node] = Mechanism(node, renamed, dict(mech.table))

    scm = _assemble(variables, mechanisms)
    return ReductionModel(f, scm, action, rest, pre_of, post_of)


def _assemble(variables: Sequence[Variable], mechanisms: dict[str, Mechanism]) -> Scm:
    """The model over ``variables``, in their order, whose DAG has one edge
    from each mechanism parent to its child."""
    edges = [
        (p, v.name)
        for v in variables
        if v.name in mechanisms
        for p in mechanisms[v.name].parents
    ]
    dag = CausalDag(tuple(v.name for v in variables), tuple(edges))
    return Scm(dag, tuple(variables), mechanisms)


def reduction_worlds(r: ReductionModel) -> WorldTable:
    """Worlds of the reduction's causal model, computed once per
    ``ReductionModel``; the same object is returned on every call."""
    return r.scm.worlds


def splice_out(scm: Scm, name: str) -> Scm:
    """Remove an endogenous node, inlining its mechanism into its children.

    Deterministic mechanisms compose exactly, so the world table projected
    onto the remaining variables is unchanged.
    """
    mech_v = scm.mechanisms.get(name)
    if mech_v is None:
        raise ModelStructureError(f"cannot splice out exogenous node {name}")
    new_mechs: dict[str, Mechanism] = {}
    for node in scm.dag.nodes:
        if node == name:
            continue
        mech = scm.mechanisms.get(node)
        if mech is None or name not in mech.parents:
            if mech is not None:
                new_mechs[node] = mech
            continue
        kept = [p for p in mech.parents if p != name]
        new_parents = kept + [q for q in mech_v.parents if q not in kept]
        domains = {p: scm.domain(p) for p in new_parents}
        table: dict[tuple[int, ...], int] = {}
        for combo in itertools.product(*(domains[p] for p in new_parents)):
            assignment = dict(zip(new_parents, combo))
            assignment[name] = mech_v.evaluate(assignment)
            table[combo] = mech.evaluate(assignment)
        new_mechs[node] = Mechanism(node, tuple(new_parents), table)
    return _assemble([v for v in scm.variables if v.name != name], new_mechs)


def rename_variable(scm: Scm, old: str, new: str) -> Scm:
    if old not in scm.names:
        raise ModelStructureError(f"unknown variable {old!r}")
    if new in scm.names:
        raise ModelStructureError(f"name {new!r} already in use")

    def swap(n: str) -> str:
        return new if n == old else n

    variables = tuple(Variable(swap(v.name), v.domain) for v in scm.variables)
    dag = CausalDag(
        tuple(swap(n) for n in scm.dag.nodes),
        tuple((swap(p), swap(c)) for p, c in scm.dag.edges),
    )
    mechanisms = {
        swap(k): Mechanism(swap(m.child), tuple(swap(p) for p in m.parents), dict(m.table))
        for k, m in scm.mechanisms.items()
    }
    return Scm(dag, variables, mechanisms)


def _effective_parents(scm: Scm, node: str) -> tuple[str, ...]:
    """Parents whose value actually changes the mechanism's output."""
    mech = scm.mechanisms.get(node)
    if mech is None:
        return ()
    domains = [scm.domain(p) for p in mech.parents]
    effective = []
    for i, p in enumerate(mech.parents):
        others = domains[:i] + domains[i + 1 :]
        for rest_combo in itertools.product(*others):
            values = {
                mech.table[rest_combo[:i] + (level,) + rest_combo[i:]]
                for level in domains[i]
            }
            if len(values) > 1:
                effective.append(p)
                break
    return tuple(effective)


def project_reduction(r: ReductionModel) -> Scm:
    """Collapse the reduction onto the base variables.

    The intention and the pre-action copies are spliced away (their parents
    rewired to their children), then each post-action copy takes back the
    original variable name.  World tables are preserved up to projection.
    """
    scm = splice_out(r.scm, INTENTION_NAME)
    for pre in r.pre_of.values():
        scm = splice_out(scm, pre)
    for g, post in r.post_of.items():
        scm = rename_variable(scm, post, g)
    return scm


class StructuralComparison(Record):
    """Where a final model and its causal reduction agree and differ."""

    action: str
    final_dag: CausalDag
    projected_dag: CausalDag
    shared_edges: tuple[tuple[str, str], ...]
    only_final: tuple[tuple[str, str], ...]
    only_reduction: tuple[tuple[str, str], ...]
    action_listens_final: tuple[str, ...]
    action_listens_reduction: tuple[str, ...]
    dsep_disagreements: tuple[tuple[IndependenceStatement, bool, bool], ...]
    world_relation: str  # "equal" | "subset" | "diverges"
    worlds_only_reduction: WorldTable
    worlds_only_final: WorldTable

    @property
    def action_wiring_differs(self) -> bool:
        """True when both models claim a wiring for the action and the
        claims differ.  A constant action (idle intention) claims nothing."""
        return (
            bool(self.action_listens_reduction)
            and set(self.action_listens_reduction) != set(self.action_listens_final)
        )


def compare_structures(f: FinalModel, r: ReductionModel) -> StructuralComparison:
    """Structural and semantic diff between the two readings of one action."""
    if (
        r.source.mstar.base != f.mstar.base
        or r.source.mstar.target != f.mstar.target
    ):
        raise ComparisonError("final model and reduction come from different bases")

    projected = project_reduction(r)
    # prune edges the mechanisms provably ignore: a constant action, for
    # instance, listens to nothing even if a carrier edge exists
    effective = {n: _effective_parents(projected, n) for n in projected.dag.nodes}
    pruned_edges = tuple(
        (parent, child)
        for parent, child in projected.dag.edges
        if parent in effective[child]
    )
    # over the final DAG's nodes in its order, so both DAGs share one bit order
    projected_dag = CausalDag(f.final_dag.nodes, pruned_edges)

    final_edges = set(f.final_dag.edges)
    red_edges = set(projected_dag.edges)

    def ordered(edges: set[tuple[str, str]]) -> tuple[tuple[str, str], ...]:
        return tuple(sorted(edges))

    # one walk per (x, Z) on each DAG; the XOR of the two reached masks has
    # the bit of every y whose separation flips, so only those cells become
    # statements, in grid order
    position = projected_dag._position
    flips: dict[tuple[str, frozenset[str]], int] = {}
    disagreements = []
    for x, y, given in grid_cells(f.mstar.model.names):
        key = (x, given)
        flipped = flips.get(key)
        if flipped is None:
            flipped = flips[key] = (
                reachable(f.final_dag, x, given) ^ reachable(projected_dag, x, given)
            )
        if flipped >> position[y] & 1:
            sep_f = not reachable(f.final_dag, x, given) >> position[y] & 1
            disagreements.append((IndependenceStatement(x, y, given), sep_f, not sep_f))

    # the reduction's worlds read on the base variables, goal variables from
    # their post-action copies, then relabelled to the base names
    shared = r.shared_columns
    post = reduction_worlds(r).project(r.post_of.get(n, n) for n in shared)
    reduced, final = WorldTable(shared, post.rows), compatible_worlds(f)
    only_reduction, only_final = reduced.outside(final), final.outside(reduced)
    if only_reduction.rows:
        relation = "diverges"
    else:
        relation = "subset" if only_final.rows else "equal"
    return StructuralComparison(
        action=f.mstar.target,
        final_dag=f.final_dag,
        projected_dag=projected_dag,
        shared_edges=ordered(final_edges & red_edges),
        only_final=ordered(final_edges - red_edges),
        only_reduction=ordered(red_edges - final_edges),
        action_listens_final=f.final_dag.parents(f.mstar.target),
        action_listens_reduction=projected_dag.parents(f.mstar.target),
        dsep_disagreements=tuple(disagreements),
        world_relation=relation,
        worlds_only_reduction=only_reduction,
        worlds_only_final=only_final,
    )
