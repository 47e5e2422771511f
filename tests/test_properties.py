"""Invariant checks over randomized desk-scale models."""

import copy
import itertools
import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from teleo.dsep import d_separated, reachable
from teleo.identification import (
    Dataset,
    check_dependence,
    check_support,
    rank_hypotheses,
)
from teleo.intervention import do_surgery, enumerate_worlds_star
from teleo.errors import EmptyTableError, ReductionError, SpecSyntaxError
from teleo.model import (
    CausalDag,
    IndependenceStatement,
    Mechanism,
    Scm,
    Variable,
    WorldTable,
    enumerate_worlds,
    level_column,
    universe_levels,
)
from teleo.reduction import (
    _effective_parents,
    build_reduction,
    compare_structures,
    project_reduction,
)
from teleo.render import Records, json_chunks, render_table
from teleo.speclang import CompiledSpec, load_model, print_model
from teleo.teleology import (
    Comparison,
    GoalPredicate,
    compatible_worlds,
    distinguishable,
    enumerate_goal_hypotheses,
    goal,
    implied_dependencies,
    implied_grid,
)

from teleo.errors import TeleologyError
from teleo.teleology import build_final_model

from support import (
    all_statements,
    assert_masks_are_the_rows,
    candidates_oracle,
    dependence_oracle,
    dsep_oracle,
    effective_parents_oracle,
    exogenous_last,
    factorization_oracle,
    filter_oracle,
    outside_oracle,
    plain_document,
    post_action_worlds,
    product_columns,
    project_oracle,
    project_rows,
    random_dag,
    random_final,
    random_goal,
    random_scm,
    reachability_oracle,
    reachable_oracle,
    records,
    reduction_levels_oracle,
    reduction_survey_oracle,
    render_json,
    rows_worlds,
    render_table_oracle,
    statement_grid,
    topological_oracle,
    uniform_oracle,
    verify_mechanism_consistency,
    World,
    world_set,
    worlds_of,
    worlds_oracle,
)

seeds = st.integers(min_value=0, max_value=2**31)
MODERATE = settings(max_examples=60, deadline=None)


@MODERATE
@given(seeds)
def test_dsep_matches_the_trail_oracle(seed):
    rng = random.Random(seed)
    dag = random_dag(rng, rng.randint(2, 5), rng.random())
    for stmt in all_statements(dag):
        assert d_separated(dag, stmt) == dsep_oracle(dag, stmt)


def _names_of(dag: CausalDag, mask: int) -> frozenset[str]:
    """The nodes of a reached mask, read in the DAG's bit order."""
    return frozenset(n for i, n in enumerate(dag.nodes) if mask >> i & 1)


def _walks_match_the_oracle(dag: CausalDag) -> None:
    """Every walk in the DAG's memo reaches exactly the nodes the trail
    oracle calls d-connected to x given Z."""
    for (x, z), mask in dag._reachable.items():
        reached = _names_of(dag, mask)
        for y in dag.nodes:
            if y != x and y not in z:
                stmt = IndependenceStatement(x, y, z)
                assert (y in reached) == (not dsep_oracle(dag, stmt)), (dag, stmt)


@MODERATE
@given(seeds)
def test_one_walk_per_x_and_z_answers_every_y(seed):
    rng = random.Random(seed)
    dag = random_dag(rng, rng.randint(2, 6), rng.random())
    stmts = list(all_statements(dag))
    rng.shuffle(stmts)  # the walk for (x, Z) is started by any of its ys
    for stmt in stmts:
        assert d_separated(dag, stmt) == dsep_oracle(dag, stmt), (dag, stmt)
    assert set(dag._reachable) == {(s.x, s.given) for s in stmts}
    _walks_match_the_oracle(dag)


@MODERATE
@given(seeds)
def test_dags_over_the_same_nodes_keep_their_own_walks(seed):
    # compare_structures asks the same statements of the final DAG and of
    # the projected reduction's DAG, which share their nodes
    rng = random.Random(seed)
    first = random_dag(rng, rng.randint(2, 6), rng.random())
    edges = list(first.edges)
    if edges:
        edges.remove(rng.choice(edges))
    else:
        edges.append(first.nodes[:2])
    second = CausalDag(first.nodes, tuple(edges))
    assert first._reachable is not second._reachable
    for stmt in all_statements(first):
        for dag in (first, second):
            assert d_separated(dag, stmt) == dsep_oracle(dag, stmt), (dag, stmt)
    _walks_match_the_oracle(first)
    _walks_match_the_oracle(second)


@MODERATE
@given(seeds)
def test_mask_walks_match_the_state_walk_oracle(seed):
    # past 64 nodes a mask is more than one machine word
    rng = random.Random(seed)
    n = rng.randint(65, 80) if rng.random() < 0.5 else rng.randint(2, 64)
    dag = random_dag(rng, n, min(1.0, rng.uniform(0.5, 6.0) / n))
    for _ in range(12):
        x = rng.choice(dag.nodes)
        others = [v for v in dag.nodes if v != x]
        z = frozenset(rng.sample(others, min(len(others), rng.randint(0, 3))))
        reached = _names_of(dag, reachable(dag, x, z))
        assert reached == reachable_oracle(dag, x, z), (dag, x, z)
        assert dag._reachable[x, z] == reachable(dag, x, z)


@MODERATE
@given(seeds)
def test_dag_index_matches_the_edge_list_oracles(seed):
    # random_dag shuffles which declared node comes first in causal order,
    # so the earliest-declared ready node is often not the first declared
    rng = random.Random(seed)
    dag = random_dag(rng, rng.randint(1, 8), rng.random())
    assert dag.topological_order() == topological_oracle(dag)
    reach = reachability_oracle(dag.edges)
    for n in dag.nodes:
        assert dag.parents(n) == tuple(p for p, c in dag.edges if c == n)
        assert dag.children(n) == tuple(c for p, c in dag.edges if p == n)
        assert dag.ancestors({n}) == {a for a, b in reach if b == n}
        assert dag.descendants(n) == tuple(b for b in dag.nodes if (n, b) in reach)
    some = set(rng.sample(dag.nodes, rng.randint(0, len(dag.nodes))))
    assert dag.ancestors(some) == {a for a, b in reach if b in some}
    assert dag.exogenous() == tuple(n for n in dag.nodes if not dag.parents(n))
    assert dag.endogenous() == tuple(n for n in dag.nodes if dag.parents(n))


@MODERATE
@given(seeds)
def test_cycle_error_names_the_first_edge_that_closes_a_cycle(seed):
    rng = random.Random(seed)
    dag = random_dag(rng, rng.randint(2, 8), rng.random())
    acyclic = list(dag.edges) or [dag.nodes[:2]]
    edges = list(acyclic)
    for _ in range(rng.randint(1, 3)):  # a reversed copy closes a cycle
        a, b = rng.choice(acyclic)
        edges.insert(rng.randint(0, len(edges)), (b, a))
    edges = list(dict.fromkeys(edges))  # the parser rejects repeated edges first
    closing = next(
        end
        for end in range(1, len(edges) + 1)
        if any(a == b for a, b in reachability_oracle(edges[:end]))
    )
    text = "".join(f"var {n} in 0..1\n" for n in dag.nodes)
    text += "".join(f"edge {a} -> {b}\n" for a, b in edges)
    with pytest.raises(SpecSyntaxError, match="cycle") as exc:
        load_model(text)
    assert exc.value.line == len(dag.nodes) + closing


@MODERATE
@given(seeds)
def test_dsep_is_sound_for_deterministic_worlds(seed):
    # graphical separation implies exact independence; the converse can
    # fail for deterministic mechanisms and is not asserted
    rng = random.Random(seed)
    scm = random_scm(rng)
    table = enumerate_worlds(scm)
    for stmt in all_statements(scm.dag, max_given=2):
        if d_separated(scm.dag, stmt):
            assert table.factorizes(stmt)


@MODERATE
@given(seeds)
def test_factorization_matches_the_fraction_oracle_on_world_tables(seed):
    rng = random.Random(seed)
    scm = random_scm(rng, min_levels=3, max_levels=3)
    full = enumerate_worlds(scm)
    part = WorldTable(full.columns, [v for v in full.rows if rng.random() < 0.4])
    for table in (full, part) if len(part) else (full,):
        rows = [(values, 1) for values in table.rows]
        for stmt in statement_grid(table.columns):
            independent, strata = factorization_oracle(table.columns, rows, stmt)
            assert table.factorizes(stmt) == independent
            assert [s for s, _ in table.strata(stmt.given)] == sorted(strata)


@MODERATE
@given(seeds)
def test_factorization_matches_the_fraction_oracle_on_weighted_rows(seed):
    rng = random.Random(seed)
    columns = tuple("ABCD"[: rng.randint(2, 4)])
    domains = [range(rng.randint(2, 3)) for _ in columns]
    bag = [
        (tuple(rng.choice(d) for d in domains), rng.randint(1, 5))
        for _ in range(rng.randint(1, 12))
    ]
    for data in (Dataset(columns, tuple(bag)), Dataset(columns, (bag[0],))):
        for stmt in statement_grid(columns):
            independent, strata = factorization_oracle(columns, data.rows, stmt)
            assert data.support.factorizes(stmt, data.layers) == independent
            assert [s for s, _ in data.support.strata(stmt.given)] == sorted(strata)
            if len(data.rows) == 1:
                assert independent


def _ternary_models(rng: random.Random) -> tuple[Scm, Scm]:
    """A random ternary model, and the same model with its variables
    declared in reverse topological order, so that the leading columns of
    the sorted table are endogenous."""
    scm = random_scm(rng, min_levels=3, max_levels=3)
    order = scm.dag.topological_order()[::-1]
    by_name = {v.name: v for v in scm.variables}
    redeclared = Scm(
        CausalDag(order, scm.dag.edges),
        tuple(by_name[n] for n in order),
        scm.mechanisms,
    )
    return scm, redeclared


def _goals(rng: random.Random, scm: Scm, worlds) -> list[GoalPredicate]:
    """Atomic goals over one variable, a goal that pins a single world, and
    goals that no world meets."""
    var = rng.choice(scm.names)
    pinned = rng.choice(worlds)
    low = scm.domain(var)[0]
    return [
        *(goal(var, "=", level) for level in scm.domain(var)),
        GoalPredicate(tuple(Comparison(n, "=", v) for n, v in pinned.as_dict().items())),
        goal(var, "<", low),
        GoalPredicate((Comparison(var, "=", low), Comparison(var, "!=", low))),
    ]


def _outcome(fn, *args):
    """What a call returns, or EmptyTableError when it raises that."""
    try:
        return fn(*args)
    except EmptyTableError:
        return EmptyTableError


@MODERATE
@given(seeds)
def test_columnar_tables_match_the_world_oracle(seed):
    # the universe's masks, and the compressed masks of each filtered table,
    # read back as rows; set differences between filters are mask
    # differences, checked against the row-set oracle
    rng = random.Random(seed)
    for scm in _ternary_models(rng):
        worlds = worlds_oracle(scm)
        table = enumerate_worlds(scm)
        assert worlds_of(table) == worlds
        assert table == rows_worlds(scm)
        assert_masks_are_the_rows(table)
        filtered = []
        for g in _goals(rng, scm, worlds):
            kept = table.filter(g.level_tests)
            assert worlds_of(kept) == filter_oracle(worlds, g)
            assert_masks_are_the_rows(kept)
            filtered.append(kept)
        for a, b in itertools.combinations([table, *filtered], 2):
            assert a.outside(b) == outside_oracle(a, b)
            assert b.outside(a) == outside_oracle(b, a)
        names = tuple(rng.sample(scm.names, rng.randint(0, len(scm.names))))
        assert worlds_of(table.project(names)) == project_oracle(worlds, names)
        assert table.project(names) == project_rows(table, names)


@MODERATE
@given(seeds)
def test_tables_in_any_declaration_order_match_the_world_oracle(seed):
    # a shuffled declaration order often puts an endogenous column first,
    # so product order is not row order and the table has to sort its rows
    rng = random.Random(seed)
    scm = random_scm(rng, max_levels=3)
    order = list(scm.names)
    rng.shuffle(order)
    by_name = {v.name: v for v in scm.variables}
    shuffled = Scm(
        CausalDag(tuple(order), scm.dag.edges),
        tuple(by_name[n] for n in order),
        scm.mechanisms,
    )
    for model in (scm, shuffled):
        worlds = worlds_oracle(model)
        table = enumerate_worlds(model)
        assert worlds_of(table) == worlds
        assert all(a < b for a, b in zip(table.rows, table.rows[1:]))
        assert_masks_are_the_rows(table)
        for g in _goals(rng, model, worlds):
            kept = table.filter(g.level_tests)
            assert worlds_of(kept) == filter_oracle(worlds, g)
            assert all(a < b for a, b in zip(kept.rows, kept.rows[1:]))
            assert_masks_are_the_rows(kept)
            assert table.outside(kept) == outside_oracle(table, kept)
        rows = list(table.rows) + rng.sample(table.rows, rng.randint(0, len(table)))
        rng.shuffle(rows)
        assert WorldTable(table.columns, rows) == table


@MODERATE
@given(seeds)
def test_columnar_independence_matches_the_world_oracle(seed):
    rng = random.Random(seed)
    for scm in _ternary_models(rng):
        worlds = worlds_oracle(scm)
        table = enumerate_worlds(scm)
        for g in _goals(rng, scm, worlds):
            sub, sub_worlds = table.filter(g.level_tests), filter_oracle(worlds, g)
            for stmt in statement_grid(scm.names):
                assert _outcome(sub.factorizes, stmt) == _outcome(
                    uniform_oracle, sub_worlds, stmt
                )


@MODERATE
@given(seeds)
def test_columnar_check_dependence_matches_the_world_oracle(seed):
    rng = random.Random(seed)
    for scm in _ternary_models(rng):
        targets = [n for n in scm.dag.nodes if scm.dag.children(n)]
        if not targets:
            continue
        m = do_surgery(scm, rng.choice(targets))
        star = worlds_oracle(m.model)
        observed = rng.sample(star, rng.randint(1, len(star)))
        bag = Dataset(scm.names, tuple((w.values, rng.randint(1, 4)) for w in observed))
        single = Dataset(scm.names, ((observed[0].values, 3),))
        effect = rng.choice(scm.dag.children(m.target))
        for level in scm.domain(effect):
            try:
                f = build_final_model(m, (effect,), goal(effect, "=", level))
            except TeleologyError:
                continue  # reversal closed a cycle
            compatible = filter_oracle(star, f.goal)
            for data in (bag, single):
                for stmt in statement_grid(scm.names):
                    assert _outcome(check_dependence, f, data, stmt) == _outcome(
                        dependence_oracle, compatible, scm.names, data.rows, stmt
                    )


@MODERATE
@given(seeds)
def test_check_dependence_matches_the_fraction_oracle(seed):
    rng = random.Random(seed)
    scm = random_scm(rng, min_levels=3, max_levels=3)
    f = random_final(rng, scm)
    if f is None:
        return
    table = compatible_worlds(f)
    if not len(table):
        return
    worlds = [(values, 1) for values in table.rows]
    observed = rng.sample(table.rows, rng.randint(1, len(table)))
    data = Dataset(scm.names, tuple((v, rng.randint(1, 4)) for v in observed))
    for stmt in statement_grid(scm.names):
        check = check_dependence(f, data, stmt)
        expected, expected_strata = factorization_oracle(scm.names, worlds, stmt)
        seen, seen_strata = factorization_oracle(scm.names, data.rows, stmt)
        assert check.expected_independent == expected
        assert check.observed_independent == seen
        assert check.skipped_strata == tuple(sorted(expected_strata - seen_strata))


@MODERATE
@given(seeds)
def test_world_count_and_consistency(seed):
    rng = random.Random(seed)
    scm = random_scm(rng)
    table = enumerate_worlds(scm)
    expected = 1
    for name in scm.dag.exogenous():
        expected *= len(scm.domain(name))
    assert len(table) == expected
    assert verify_mechanism_consistency(scm, table)


@MODERATE
@given(seeds)
def test_surgery_preserves_nodes_and_removes_only_inbound(seed):
    rng = random.Random(seed)
    scm = random_scm(rng)
    target = rng.choice(scm.names)
    m = do_surgery(scm, target)
    assert set(m.surgered_dag.nodes) == set(scm.dag.nodes)
    removed = set(scm.dag.edges) - set(m.surgered_dag.edges)
    assert set(m.surgered_dag.edges) <= set(scm.dag.edges)
    assert removed == {(p, c) for p, c in scm.dag.edges if c == target}


@MODERATE
@given(seeds)
def test_surgery_on_exogenous_target_is_identity(seed):
    rng = random.Random(seed)
    scm = random_scm(rng)
    exo = scm.dag.exogenous()
    target = rng.choice(exo)
    m = do_surgery(scm, target)
    assert world_set(enumerate_worlds_star(m)) == world_set(enumerate_worlds(scm))


@MODERATE
@given(seeds)
def test_compatible_worlds_subset_law(seed):
    rng = random.Random(seed)
    f = random_final(rng, random_scm(rng))
    if f is None:
        return
    assert world_set(compatible_worlds(f)) <= world_set(enumerate_worlds_star(f.mstar))


@MODERATE
@given(seeds)
def test_cached_compatible_worlds_match_a_fresh_enumeration(seed):
    rng = random.Random(seed)
    f = random_final(rng, random_scm(rng))
    if f is None:
        return
    fresh = enumerate_worlds(f.mstar.model).filter(f.goal.level_tests)
    copied_before_use = copy.deepcopy(f)
    assert compatible_worlds(f) == fresh
    assert compatible_worlds(copied_before_use) == fresh
    assert compatible_worlds(copy.deepcopy(f)) == fresh


@MODERATE
@given(seeds)
def test_conjunction_monotonicity(seed):
    rng = random.Random(seed)
    scm = random_scm(rng)
    f = random_final(rng, scm)
    if f is None:
        return
    extra = random_goal(rng, scm, f.intended_effects).conjuncts[0]
    widened = GoalPredicate(f.goal.conjuncts + (extra,))
    star = enumerate_worlds_star(f.mstar)
    assert (
        world_set(star.filter(widened.level_tests))
        <= world_set(star.filter(f.goal.level_tests))
    )


@MODERATE
@given(seeds)
def test_mechanisms_survive_final_model_construction(seed):
    rng = random.Random(seed)
    scm = random_scm(rng)
    before = copy.deepcopy({k: m.table for k, m in scm.mechanisms.items()})
    f = random_final(rng, scm)
    if f is None:
        return
    assert {k: m.table for k, m in scm.mechanisms.items()} == before


@MODERATE
@given(seeds)
def test_distinguishable_is_symmetric_and_reflexively_false(seed):
    rng = random.Random(seed)
    scm = random_scm(rng)
    f1 = random_final(rng, scm)
    f2 = random_final(rng, scm)
    if f1 is None or f2 is None:
        return
    if f1.mstar.target != f2.mstar.target:
        return
    assert not distinguishable(f1, f1).distinguishable
    a, b = distinguishable(f1, f2), distinguishable(f2, f1)
    assert a.distinguishable == b.distinguishable
    assert a.only_first == b.only_second


@MODERATE
@given(seeds)
def test_world_set_differences_match_the_world_oracle(seed):
    # distinguishable, check_support and compare_structures each take a set
    # difference of world tables; the oracle takes it world by world
    rng = random.Random(seed)
    scm = random_scm(rng)
    f1 = random_final(rng, scm)
    if f1 is None:
        return
    effects = f1.intended_effects
    f2 = build_final_model(f1.mstar, effects, random_goal(rng, scm, effects))
    star = worlds_oracle(f1.mstar.model)
    c1, c2 = filter_oracle(star, f1.goal), filter_oracle(star, f2.goal)

    v = distinguishable(f1, f2)
    assert worlds_of(v.only_first) == [w for w in c1 if w not in c2]
    assert worlds_of(v.only_second) == [w for w in c2 if w not in c1]
    assert v.distinguishable == (c1 != c2)
    # a second surgery of the same model is a separate object, whose
    # worlds are another root: the verdict is the same
    f3 = build_final_model(do_surgery(scm, f1.mstar.target), effects, f2.goal)
    assert f3.mstar is not f1.mstar and f3.mstar.model.worlds is not f1.mstar.model.worlds
    assert distinguishable(f1, f3) == v
    back = distinguishable(f3, f1)
    assert (back.only_first, back.only_second) == (v.only_second, v.only_first)

    # random rows, surgered worlds that miss the goal, and compatible ones
    domains = [scm.domain(n) for n in scm.names]
    rows = [tuple(rng.choice(d) for d in domains) for _ in range(rng.randint(1, 6))]
    missing = [w.values for w in star if w not in c1]
    rows += rng.sample(missing, min(len(missing), 3))
    rows += [w.values for w in rng.sample(c1, min(len(c1), 2))]
    verdict = check_support(f1, Dataset(scm.names, tuple((r, 1) for r in rows)))
    observed = [World(scm.names, r) for r in sorted(set(rows))]
    assert worlds_of(verdict.violating_rows) == [w for w in observed if w not in c1]

    try:
        r = build_reduction(f1)
    except ReductionError:
        return
    cmp = compare_structures(f1, r)
    post = tuple(r.post_of.get(n, n) for n in scm.names)
    reduced = [World(scm.names, w.values) for w in project_oracle(worlds_oracle(r.scm), post)]
    # every reduction world, read on the shared columns, is a surgered
    # world: the reduction of a context is its surgered world at one level
    assert all(w in star for w in reduced)
    only_reduction = [w for w in reduced if w not in c1]
    only_final = [w for w in c1 if w not in reduced]
    assert worlds_of(cmp.worlds_only_reduction) == only_reduction
    assert worlds_of(cmp.worlds_only_final) == only_final
    relation = "diverges" if only_reduction else "subset" if only_final else "equal"
    assert cmp.world_relation == relation


@MODERATE
@given(seeds)
def test_support_check_monotone_under_new_rows(seed):
    rng = random.Random(seed)
    scm = random_scm(rng)
    f = random_final(rng, scm)
    if f is None:
        return
    domains = [scm.domain(n) for n in scm.names]

    def rand_row():
        return tuple(rng.choice(d) for d in domains)

    rows1 = [(rand_row(), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
    rows2 = rows1 + [(rand_row(), 1) for _ in range(rng.randint(1, 3))]
    d1 = Dataset(scm.names, tuple(rows1))
    d2 = Dataset(scm.names, tuple(rows2))
    if not check_support(f, d1).support_compatible:
        assert not check_support(f, d2).support_compatible


@MODERATE
@given(seeds)
def test_uniform_data_reproduces_expected_dependence(seed):
    # a dataset that is exactly uniform over the compatible worlds must show
    # the very pattern the hypothesis predicts
    rng = random.Random(seed)
    scm = random_scm(rng)
    f = random_final(rng, scm)
    if f is None:
        return
    table = compatible_worlds(f)
    if not len(table):
        return
    data = Dataset(scm.names, tuple((values, 1) for values in table.rows))
    for x, y in itertools.combinations(scm.names, 2):
        check = check_dependence(f, data, IndependenceStatement(x, y))
        assert check.agree


@MODERATE
@given(seeds)
def test_exact_support_match_wins_specificity(seed):
    # when the data's support IS some candidate's compatible set, that
    # candidate is support-compatible and nothing strictly smaller is
    rng = random.Random(seed)
    scm = random_scm(rng)
    targets = [n for n in scm.dag.nodes if scm.dag.children(n)]
    if not targets:
        return
    m = do_surgery(scm, rng.choice(targets))
    # draw from every reachable candidate goal, cyclic reversals included,
    # so datasets from deeper descendants' compatible sets are generated too
    goals = [
        goal(v, "=", level)
        for v in m.base.dag.descendants(m.target)
        for level in m.base.domain(v)
        if len(m.worlds_meeting(goal(v, "=", level)))
    ]
    if not goals:
        return
    finals, _ = enumerate_goal_hypotheses(m, max_effects=1)
    chosen = m.worlds_meeting(rng.choice(goals))
    data = Dataset(scm.names, tuple((values, 1) for values in chosen.rows))
    for f in finals:
        verdict = check_support(f, data)
        worlds = compatible_worlds(f)
        if world_set(worlds) == world_set(chosen):
            assert verdict.support_compatible
        elif len(worlds) < len(chosen):
            assert not verdict.support_compatible


def _context_and_action_final(rng: random.Random):
    """do(A) in U -> G <- A with a random table and a random goal on G: the
    shape whose contexts most often disagree on the intention or on the
    action level."""
    u, a, g = (Variable(n, tuple(range(rng.randint(2, 4)))) for n in "UAG")
    table = {k: rng.choice(g.domain) for k in itertools.product(a.domain, u.domain)}
    dag = CausalDag(("U", "A", "G"), (("A", "G"), ("U", "G")))
    scm = Scm(dag, (u, a, g), {"G": Mechanism("G", ("A", "U"), table)})
    return build_final_model(do_surgery(scm, "A"), ("G",), random_goal(rng, scm, ("G",)))


@settings(max_examples=120, deadline=None)
@given(seeds)
def test_the_reduction_survey_matches_the_per_context_oracle(seed):
    rng = random.Random(seed)
    if rng.random() < 0.5:
        f = _context_and_action_final(rng)
    else:
        f = random_final(rng, random_scm(rng))
    if f is None:
        return
    rest = rng.choice(f.mstar.model.domain(f.action))
    try:
        expected = reduction_survey_oracle(f, rest)
    except ReductionError as exc:
        with pytest.raises(ReductionError) as raised:
            build_reduction(f, rest)
        assert type(raised.value) is type(exc)
        assert str(raised.value) == str(exc)
        return
    r = build_reduction(f, rest)
    assert {name: r.scm.mechanisms[name] for name in expected} == expected


@settings(max_examples=120, deadline=None)
@given(seeds)
def test_the_reduction_matches_the_per_level_oracle(seed):
    # the survey reads the surgered model's one table; the oracle propagates
    # each action level over the product of the contexts.  With the
    # exogenous variables declared last, a surgered action that was
    # endogenous comes before the context, so the projection must sort
    rng = random.Random(seed)
    if rng.random() < 0.3:
        f = _context_and_action_final(rng)
    else:
        scm = random_scm(rng, max_levels=3)
        f = random_final(rng, exogenous_last(scm) if rng.random() < 0.5 else scm)
    if f is None:
        return
    surgered = f.mstar.model
    assert worlds_of(surgered.worlds) == worlds_oracle(surgered)
    rest = rng.choice(surgered.domain(f.action))
    try:
        r = build_reduction(f, rest)
    except ReductionError:
        return
    expected = reduction_levels_oracle(f, rest)
    assert {name: r.scm.mechanisms[name] for name in expected} == expected


@MODERATE
@given(seeds)
def test_worlds_match_the_world_oracle_with_the_exogenous_declared_last(seed):
    scm = exogenous_last(random_scm(random.Random(seed), max_vars=6, max_levels=3))
    table = enumerate_worlds(scm)
    assert worlds_of(table) == worlds_oracle(scm)
    assert verify_mechanism_consistency(scm, table)


@MODERATE
@given(st.lists(st.lists(st.integers(-3, 3), min_size=1, max_size=4, unique=True),
                max_size=5))
@example([])
def test_closed_form_columns_are_the_transposed_product(domains):
    # each domain's closed-form level masks, read back as a column
    named = {f"V{i}": domain for i, domain in enumerate(domains)}
    n, levels = universe_levels(None, (), named)
    columns = [tuple(level_column(levels[name], n)) for name in named]
    assert columns == list(zip(*itertools.product(*domains)))
    assert list(product_columns(domains)) == columns


@MODERATE
@given(seeds)
def test_the_grid_columns_match_the_trail_and_uniform_oracles(seed):
    # finalize's grid, decided once per conditioning set, on random models
    # declared in either order: the cells in grid order, the separation
    # column of the final DAG's trails and the dependence column of the
    # uniform oracle over the compatible worlds
    rng = random.Random(seed)
    scm = random_scm(rng, max_vars=6)
    f = random_final(rng, exogenous_last(scm) if rng.random() < 0.5 else scm)
    if f is None:
        return
    table = compatible_worlds(f)
    if not len(table):
        with pytest.raises(EmptyTableError):
            implied_grid(f)
        return
    xs, ys, givens, separated, independent = implied_grid(f)
    stmts = list(statement_grid(f.mstar.model.names))
    assert list(zip(xs, ys, givens)) == [(s.x, s.y, tuple(sorted(s.given))) for s in stmts]
    assert separated == [dsep_oracle(f.final_dag, s) for s in stmts]
    worlds = worlds_of(table)
    assert independent == [uniform_oracle(worlds, s) for s in stmts]
    assert implied_dependencies(f) == list(zip(stmts, separated, independent))


@MODERATE
@given(seeds)
def test_separation_flips_match_the_trail_oracle_in_grid_order(seed):
    rng = random.Random(seed)
    f = random_final(rng, random_scm(rng, max_vars=6))
    if f is None:
        return
    try:
        r = build_reduction(f)
    except ReductionError:
        return
    cmp = compare_structures(f, r)
    expected = []
    for s in statement_grid(f.mstar.model.names):
        sep_f, sep_r = dsep_oracle(f.final_dag, s), dsep_oracle(cmp.projected_dag, s)
        if sep_f != sep_r:
            expected.append((s, sep_f, sep_r))
    assert list(cmp.dsep_disagreements) == expected


@MODERATE
@given(seeds)
def test_splice_preserves_projected_worlds(seed):
    # the projection splices out the intention and the pre-action copies
    # and renames the post-action copies, losing no world of the reduction
    rng = random.Random(seed)
    f = random_final(rng, random_scm(rng, max_vars=6))
    if f is None:
        return
    try:
        r = build_reduction(f)
    except ReductionError:
        return
    projected = enumerate_worlds(project_reduction(r)).project(r.shared_columns)
    assert projected == post_action_worlds(r)


@MODERATE
@given(seeds)
def test_effective_parents_match_the_domain_scan(seed):
    # the table's own keys say which parents matter: those whose removal
    # merges keys of different values
    rng = random.Random(seed)
    scm = random_scm(rng, max_vars=6)
    for node in scm.dag.nodes:
        assert _effective_parents(scm, node) == effective_parents_oracle(scm, node)


@MODERATE
@given(seeds)
def test_hypothesis_enumeration_is_order_stable(seed):
    rng = random.Random(seed)
    scm = random_scm(rng)
    targets = [n for n in scm.dag.nodes if scm.dag.children(n)]
    if not targets:
        return
    m = do_surgery(scm, targets[0])

    def listing():
        finals, skipped = enumerate_goal_hypotheses(m, max_effects=2)
        named = [(f.name, f.intended_effects, str(f.goal)) for f in finals]
        return named, [name for name, _ in skipped]

    assert listing() == listing()


@MODERATE
@given(seeds)
def test_enumerated_finals_match_the_candidates_oracle(seed):
    scm = random_scm(random.Random(seed))
    for target in (n for n in scm.dag.nodes if scm.dag.children(n)):
        m = do_surgery(scm, target)
        star = worlds_oracle(m.model)
        for max_effects in (1, 2, 3):
            finals, skipped = enumerate_goal_hypotheses(m, max_effects)
            want_finals, want_skipped = candidates_oracle(m, max_effects)
            assert [(f.name, f.intended_effects, f.goal) for f in finals] == [
                (f.name, f.intended_effects, f.goal) for f in want_finals
            ]
            assert [(name, str(exc)) for name, exc in skipped] == [
                (name, str(exc)) for name, exc in want_skipped
            ]
            for f in finals:
                assert worlds_of(compatible_worlds(f)) == filter_oracle(star, f.goal)


def _random_spec(rng: random.Random):
    """A random model with mechanisms stated out of declaration order, and
    maybe a do, a rest level and up to two finals whose effects are children
    of the action, in random order.  The finals are written as text here,
    since one of them may not build; returns the spec without them, the
    finals as (name, effects, goal) and the whole text."""
    scm = random_scm(rng)
    scm = Scm(scm.dag, scm.variables, dict(sorted(scm.mechanisms.items())))
    mstar = rest = None
    finals = []
    targets = [n for n in scm.dag.nodes if scm.dag.children(n)]
    if targets and rng.random() < 0.8:
        mstar = do_surgery(scm, rng.choice(targets))
        if rng.random() < 0.5:
            rest = rng.choice(scm.domain(mstar.target))
        children = scm.dag.children(mstar.target)
        for name in ("first", "second")[: rng.randint(0, 2)]:
            effects = tuple(rng.sample(children, rng.randint(1, len(children))))
            finals.append((name, effects, random_goal(rng, scm, effects)))
    spec = CompiledSpec(scm, mstar, {}, rest)
    text = print_model(spec)
    for name, effects, g in finals:
        said = " and ".join(f"{c.variable} {c.op} {c.level}" for c in g.conjuncts)
        text += f"final {name} {{ effects: {', '.join(effects)}; goal: {said} }}\n"
    return spec, finals, text


def _reversal_closes_a_cycle(scm: Scm, action: str, effects) -> bool:
    """Surgery on the do target, then each effect's arrow turned toward it,
    on the bare edge list."""
    edges = [(p, c) for p, c in scm.dag.edges if c != action]
    for eff in effects:
        if (action, eff) in edges:
            edges.remove((action, eff))
        edges.append((eff, action))
    return any(a == b for a, b in reachability_oracle(edges))


@MODERATE
@given(seeds)
def test_parser_round_trip_on_random_documents(seed):
    # every effect is a child of the action, but one that the action also
    # reaches through another child closes a cycle when its arrow turns
    # round; the parser must then blame the first such final's line
    spec, finals, text = _random_spec(random.Random(seed))
    broken = [
        name
        for name, effects, _ in finals
        if _reversal_closes_a_cycle(spec.scm, spec.mstar.target, effects)
    ]
    if not broken:
        spec.finals = {
            name: build_final_model(spec.mstar, effects, g, name=name)
            for name, effects, g in finals
        }
        loaded = load_model(text)
        assert loaded == spec
        assert load_model(print_model(loaded)) == loaded
        return
    with pytest.raises(SpecSyntaxError, match="cycle") as exc:
        load_model(text)
    header = f"final {broken[0]} "
    lines = text.splitlines()
    assert exc.value.line == 1 + next(
        i for i, line in enumerate(lines) if line.startswith(header)
    )


@MODERATE
@given(seeds)
def test_ranking_deterministic_across_runs(seed):
    rng = random.Random(seed)
    scm = random_scm(rng)
    targets = [n for n in scm.dag.nodes if scm.dag.children(n)]
    if not targets:
        return
    m = do_surgery(scm, targets[0])
    candidates, _ = enumerate_goal_hypotheses(m, max_effects=1)
    if not candidates:
        return
    star = enumerate_worlds_star(m)
    data = Dataset(scm.names, tuple((values, 1) for values in star.rows))
    one = [(r.rank, r.verdict.hypothesis.label) for r in rank_hypotheses(candidates, data)]
    two = [(r.rank, r.verdict.hypothesis.label) for r in rank_hypotheses(candidates, data)]
    assert one == two


# JSON documents for the writer: the shapes the commands emit (lists of
# equal-length int rows, lists of dicts with the same keys) and their near
# misses, nested in arbitrary JSON
_json_keys = st.text(max_size=4) | st.sampled_from(["%", "%d", "%s%%", '"', "{", "}"])
_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.floats()
    | st.text(max_size=6)
)
_ints_and_bools = st.integers(min_value=-(2**70), max_value=3) | st.booleans()


def _json_tables(values):
    widths = st.integers(min_value=0, max_value=4)
    int_rows = widths.flatmap(
        lambda w: st.lists(
            st.lists(_ints_and_bools, min_size=w, max_size=w)
            | st.tuples(*[_ints_and_bools] * w),
            max_size=5,
        )
    )
    records = st.lists(_json_keys, max_size=4, unique=True).flatmap(
        lambda keys: st.lists(
            st.fixed_dictionaries({k: values for k in keys}), max_size=5
        )
    )
    return (
        int_rows
        | records
        | st.lists(st.lists(_ints_and_bools, max_size=3), max_size=4)  # ragged
        | st.lists(st.dictionaries(_json_keys, values, max_size=3), max_size=4)
        | st.dictionaries(st.integers(), values, max_size=3)
    )


_json_documents = st.recursive(
    _json_scalars,
    lambda values: (
        st.lists(values, max_size=4)
        | st.lists(values, max_size=3).map(tuple)
        | st.dictionaries(_json_keys, values, max_size=4)
        | _json_tables(values)
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_json_documents)
def test_json_writer_matches_the_stdlib_encoder(doc):
    assert render_json(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "doc",
    [
        {1, 2},
        {"a": [1, frozenset()]},
        [{"a": 1, "b": {2}}, {"a": 2, "b": {3}}],
        [[1, {2}], [3, {4}]],
        {(1, 2): 3},
        {1: 2, "1": 3},
    ],
    ids=repr,
)
def test_json_writer_refuses_what_the_stdlib_encoder_refuses(doc):
    with pytest.raises(TypeError):
        json.dumps(doc, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        render_json(doc)


def _same_as_the_stdlib_encoder(doc):
    """``render_json`` writes what ``json.dumps`` writes of ``doc`` with its
    ``Records`` written out, or raises the ``TypeError`` it raises, message
    and all."""
    try:
        expected = json.dumps(plain_document(doc), indent=2, sort_keys=True)
    except TypeError as exc:
        with pytest.raises(TypeError) as raised:
            render_json(doc)
        assert str(raised.value) == str(exc)
    else:
        assert render_json(doc) == expected


# one strategy per kind of table column: scalar columns of one type, the
# grid's ``given`` lists (few distinct values, each repeated), flat lists
# whose items ints and bools or floats could make equal, tuples whose items
# ints and bools could, nested lists that hold lists, sets or dicts, and
# columns that mix all of these
_nested_items = (
    st.lists(st.integers(0, 2), max_size=2)
    | st.sets(st.integers(0, 2), max_size=2)
    | st.dictionaries(st.text("ab", max_size=1), st.integers(0, 1), max_size=2)
)
_column_values = [
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.lists(st.sampled_from(["A", "B", "é"]), max_size=2, unique=True),
    st.lists(st.none() | st.integers(-2, 2) | st.text("xy", max_size=2), max_size=3)
    .flatmap(lambda v: st.sampled_from([v, tuple(v)])),
    st.lists(st.booleans() | st.integers(0, 1) | st.floats(0, 1), max_size=2),
    st.lists(st.booleans() | st.integers(0, 1), max_size=2).map(tuple),
    st.lists(_nested_items, max_size=2),
]
_mixed_values = st.one_of(*_column_values, st.integers(-2, 2))
_columns = st.sampled_from(_column_values) | st.just(_mixed_values)


def _as_records(rows):
    """A non-empty list of dicts with the same keys, or of lists of one
    length, as ``Records``."""
    if isinstance(rows[0], dict):
        keys = list(rows[0])
        return records(keys, [[row[k] for k in keys] for row in rows])
    return records(None, rows)


@st.composite
def _column_tables(draw):
    """A list of records, or of rows, whose columns each come from one
    column strategy, held as ``Records`` or as plain lists."""
    keys = draw(st.lists(st.text("gixy", min_size=1, max_size=2), min_size=1,
                         max_size=4, unique=True))
    kinds = [draw(_columns) for _ in keys]
    size = draw(st.integers(1, 12))
    rows = [[draw(kind) for kind in kinds] for _ in range(size)]
    if draw(st.booleans()):
        rows = [dict(zip(keys, row)) for row in rows]
    return {"rows": _as_records(rows) if draw(st.booleans()) else rows}


@settings(max_examples=300, deadline=None)
@given(_column_tables())
def test_json_writer_encodes_columns_like_the_stdlib_encoder(doc):
    _same_as_the_stdlib_encoder(doc)


@pytest.mark.parametrize(
    "doc",
    [
        [{"x": "A", "given": ["B"]}, {"x": "A", "given": ["B"]}, {"x": "B", "given": []}],
        [[True, None, "a"], [False, None, "é\n"]],
        [[[1], "a"], [[True], "b"], [[1.0], "c"]],
        [[("A", "B")], [["A", "B"]], [[None, 0]]],
        [[(1,), "a"], [(True,), "b"], [(1,), "c"]],
        [[("A", None)], [("A", None)], [("B", 0)]],
        [[[[1]]], [[[1]]]],
        [[[{2}]], [[{3}]]],
        [[[{"a": [1]}]], [[{"a": [1]}]]],
        [[[{1: 2}]], [[{"1": 2}]]],
        [["a", 1, None, True, [1]], ["b", 2, None, False, ["x"]]],
        [[{3}, [{4}]], [{5}, [{6}]]],
    ],
    ids=repr,
)
def test_json_writer_column_cases(doc):
    _same_as_the_stdlib_encoder(doc)
    _same_as_the_stdlib_encoder(_as_records(doc))


# record keys: template signs and non-ASCII text, and one key or none
_record_keys = st.lists(
    st.text(max_size=3) | st.sampled_from(["%", "%d", "%%s", "é", "ключ", "\n"]),
    max_size=4,
    unique=True,
)
# ints beyond 64 bits either way, and bools that must not print as 1
_big_ints = st.integers(-(2**70), 2**70) | st.booleans()


def _records(values):
    return _record_keys.flatmap(
        lambda keys: st.lists(st.tuples(*[values] * len(keys)), max_size=5).map(
            lambda rows: records(keys, rows)
        )
    )


@st.composite
def _column_records(draw, values):
    """``Records`` of lists held as columns, as a world table's worlds are
    written: any values, ints, or bytes (levels 0..255), and no columns."""
    size = draw(st.integers(0, 5))
    kinds = [st.tuples(*[values] * size), st.tuples(*[_big_ints] * size),
             st.binary(min_size=size, max_size=size)]
    columns = draw(st.lists(st.one_of(kinds), max_size=3))
    return Records(None, columns, size)


_documents_with_records = st.recursive(
    _json_scalars,
    lambda values: (
        st.lists(values, max_size=4)
        | st.dictionaries(_json_keys, values, max_size=4)
        | _records(values)
        | _records(_big_ints)
        | _column_records(values)
        | st.lists(st.tuples(_big_ints, _big_ints, _big_ints), max_size=5)
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_documents_with_records)
def test_records_and_int_rows_write_what_the_stdlib_encoder_writes(doc):
    expected = json.dumps(plain_document(doc), indent=2, sort_keys=True)
    assert render_json(doc) == expected
    assert "".join(json_chunks(doc)) == expected


@pytest.mark.parametrize(
    "doc",
    [
        [[1, True], [-(2**63) - 1, 2**64]],
        # Records has no repr of its own, so these cases name themselves
        pytest.param(records(("only",), [(1,), (-(2**64),)]), id="records-big-int"),
        pytest.param(records(("only",), [([1, 2],), ("a",)]), id="records-list-and-str"),
        pytest.param(records((), [(), ()]), id="records-no-keys"),
        pytest.param(records(("a", "b"), []), id="records-no-rows"),
        pytest.param(
            records(("%d", "é", "b%"), [(1, 2, 3), (True, None, "%s")]),
            id="records-format-chars-in-keys-and-cells",
        ),
        pytest.param(
            records(("b", "a"), [(2**70, False), (-1, 0)]), id="records-unsorted-keys"
        ),
        pytest.param(
            {"z": records(("x",), [(1,)]), "a": {"b": [records((), [()])]}},
            id="records-nested-in-dict-and-list",
        ),
        pytest.param(
            Records(None, [b"\x00\xff\x07", (1, -2, 2**70)], 3),
            id="records-of-lists-bytes-and-int-columns",
        ),
        pytest.param(Records(None, [], 2), id="records-of-lists-no-columns"),
        pytest.param(Records(None, [b""], 0), id="records-of-lists-no-rows"),
        pytest.param(
            Records(("b", "a"), [b"\xff\x00", (0, 255)], 2),
            id="records-bytes-column-beside-an-int-column",
        ),
    ],
    ids=repr,
)
def test_records_and_int_rows_cases(doc):
    expected = json.dumps(plain_document(doc), indent=2, sort_keys=True)
    assert render_json(doc) == expected
    assert "".join(json_chunks(doc)) == expected


def test_a_document_is_streamed_one_dict_member_at_a_time():
    # each member's key is its own piece, so no piece holds two tables
    rows = [(i, -i) for i in range(50)]
    doc = {"a": rows, "b": {"c": records(("x", "y"), rows)}, "d": []}
    chunks = list(json_chunks(doc))
    assert "".join(chunks) == json.dumps(plain_document(doc), indent=2, sort_keys=True)
    assert chunks[0] == '{\n  "a": '
    assert sum('"x": 0' in chunk for chunk in chunks) == 1
    assert not any('"a": [' in chunk and '"x"' in chunk for chunk in chunks)


@st.composite
def _world_table_text(draw):
    """Column names and integer rows as a world table holds them (tuples),
    or as ``json.loads`` gives them back (lists): negative and multi-digit
    levels, and names wider and narrower than their levels."""
    columns = draw(st.lists(st.text("ABTW_01", min_size=1, max_size=8),
                            max_size=5, unique=True))
    levels = st.integers(-3, 3) | st.integers(-(10**6), 10**6)
    rows = draw(st.lists(st.tuples(*[levels] * len(columns)), max_size=8))
    if draw(st.booleans()):
        rows = [list(row) for row in rows]
    return columns, rows


@settings(max_examples=300, deadline=None)
@given(_world_table_text())
@example(((), [()]))  # the empty model's one world
@example(((), []))
@example((("W", "H"), []))
@example((("W", "LONGNAME"), [[-12, 3], [7, -100000]]))
@example((("W",), [(-1,), (0,), (10,)]))
def test_table_text_matches_the_cell_by_cell_oracle(table):
    columns, rows = table
    assert render_table(columns, rows) == render_table_oracle(columns, rows)
