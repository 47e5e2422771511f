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
from collections.abc import Sequence

from teleo.dsep import reachable
from teleo.errors import (
    ComparisonError,
    DegenerateReductionError,
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
    compressor,
    grid_cells,
    level_column,
    passing,
    scatter,
    stratify,
    table_over,
    universe_levels,
)
from teleo.teleology import FinalModel

__all__ = [
    "ReductionModel",
    "build_reduction",
    "reduction_worlds",
    "project_reduction",
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

    # the surgered worlds at one action level, packed, are the contexts in
    # product order (bit i is context i), as are the reduction's worlds
    n, levels = surgered.universe
    contexts = n // len(action_domain)
    meets: dict[int, int] = {}  # action level -> contexts it meets the goal in
    for level, slots in levels[action].items():
        compress = compressor(slots, n)
        masks = {g: {v: c for v, m in levels[g].items() if (c := compress(m))}
                 for g in goal_vars}
        met = (1 << contexts) - 1
        for name, test in f.goal.level_tests.items():
            met &= passing(masks[name], test)
        meets[level] = met
        if level == rest:
            # the pre-state strata: the contexts of each rest-level goal state
            pre_states = dict(stratify(contexts, map(masks.__getitem__, goal_vars)))
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

    # context variables outside a copy's parents sit at their domain
    # minimum, and the action at rest unless it is a parent
    at_rest = {**{n: surgered.domain(n)[0] for n in context}, action: rest}
    order = surgered.dag.topological_order()
    variables: list[Variable] = [surgered.variable(n) for n in context]
    mechanisms: dict[str, Mechanism] = {}

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
            pre_of[g], tuple(parents), _tabulate(surgered, order, parents, at_rest, g)
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

    # post-action copies; downstream mechanisms are renamed if they read one
    for g in goal_vars:
        parents = exo_parents(g) + [action]
        variables.append(Variable(post_of[g], surgered.domain(g)))
        mechanisms[post_of[g]] = Mechanism(
            post_of[g], tuple(parents), _tabulate(surgered, order, parents, at_rest, g)
        )
    for node in downstream:
        mech = surgered.mechanisms[node]
        if not post_of.keys().isdisjoint(mech.parents):
            renamed = [post_of.get(p, p) for p in mech.parents]
            mech = Mechanism(node, renamed, mech.table)
        variables.append(surgered.variable(node))
        mechanisms[node] = mech

    scm = _assemble(variables, mechanisms)
    return ReductionModel(f, scm, action, rest, pre_of, post_of)


def _tabulate(
    scm: Scm,
    order: Sequence[str],
    parents: Sequence[str],
    fixed: dict[str, int],
    read: str,
) -> dict[tuple[int, ...], int]:
    """The table of ``read`` over ``parents``: its column in the universe
    that ``parents`` make along ``order`` (``universe_levels``), where each
    other exogenous variable the pass reads sits at its level in ``fixed``."""
    domains = {name: (level,) for name, level in fixed.items() if name not in parents}
    domains.update((p, scm.domain(p)) for p in parents)
    n, levels = universe_levels(scm, order, domains)
    keys = itertools.product(*(scm.domain(p) for p in parents))
    return dict(zip(keys, level_column(levels[read], n)))


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


def _effective_parents(scm: Scm, node: str) -> tuple[str, ...]:
    """Parents whose value actually changes the mechanism's output.

    The table is total, so a parent matters iff dropping it from every key
    merges keys that map to different values: fewer distinct keys remain
    than distinct (key, value) pairs.
    """
    mech = scm.mechanisms.get(node)
    if mech is None:
        return ()
    rows = mech.table.items()
    effective = []
    for i, p in enumerate(mech.parents):
        merged = {(key[:i] + key[i + 1 :], value) for key, value in rows}
        if len({key for key, _ in merged}) < len(merged):
            effective.append(p)
    return tuple(effective)


def project_reduction(r: ReductionModel) -> Scm:
    """Collapse the reduction onto the base variables.

    The intention and the pre-action copies are spliced away: the action
    listens to the pre-action copies' parents, their ordered union with the
    copies taken in ``pre_of`` order, and one column-wise pass of the
    copies, the intention and the action over those parents' levels fills
    its table, as ``build_reduction`` tabulates the copies.  Each
    post-action copy takes back the original variable name where it stands.
    Every other mechanism keeps its table, and one that names no post-action
    copy is kept as it is, as is its variable, so the model skips its
    table's check.  World tables are preserved up to projection.
    """
    scm, action, pre = r.scm, r.action, r.pre_of.values()
    post = set(r.post_of.values())
    # kept names map to themselves, post-action copies to their base names
    name = {n: n for n in scm.names if n != INTENTION_NAME and n not in pre}
    name.update((copy, g) for g, copy in r.post_of.items())
    heard = list(dict.fromkeys(p for c in pre for p in scm.mechanisms[c].parents))
    # the action reads the context only through I and the pre-action copies
    table = _tabulate(scm, (*pre, INTENTION_NAME, action), heard, {}, action)
    mechanisms = {
        name[n]: m if post.isdisjoint((n, *m.parents))
        else Mechanism(name[n], map(name.__getitem__, m.parents), m.table)
        for n, m in scm.mechanisms.items()
        if n in name and n != action
    }
    mechanisms[action] = Mechanism(action, heard, table)
    variables = [
        Variable(name[v.name], v.domain) if v.name in post else v
        for v in scm.variables
        if v.name in name
    ]
    return _assemble(variables, mechanisms)


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
    """Structural and semantic diff between the two readings of one action.

    The worlds are diffed as masks of the surgered universe.  On the base
    variables (goal variables from their post-action copies), the
    reduction's world of a context is the surgered world of that context at
    the action level the reduction takes there, since its copies and
    downstream mechanisms are the surgered model's read at that level; so
    the reduction keeps a mask of surgered worlds, and only its action's
    column is read."""
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

    # the reduction's worlds: at each action level, the contexts the reduced
    # action takes it in, scattered to that level's place in the universe
    shared, surgered = r.shared_columns, f.mstar.model
    n, levels = surgered.universe
    acts = r.scm.universe[1][r.action]
    chosen = sum(scatter(acts[v], slots, n) for v, slots in levels[r.action].items() if v in acts)
    tests = f.goal.level_tests.items()
    goal = functools.reduce(operator.and_, (passing(levels[v], t) for v, t in tests))
    exogenous, read = surgered.dag.exogenous(), levels.__getitem__
    only_reduction = table_over(shared, exogenous, n, read, chosen & ~goal)
    only_final = table_over(shared, exogenous, n, read, goal & ~chosen)
    if len(only_reduction):
        relation = "diverges"
    else:
        relation = "subset" if len(only_final) else "equal"
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
