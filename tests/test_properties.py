"""Invariant checks over randomized desk-scale models."""

import copy
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from teleo.dsep import d_separated
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
    Scm,
    WorldTable,
    enumerate_worlds,
    factorization,
    statement_grid,
    uniform_independent,
    verify_mechanism_consistency,
)
from teleo.reduction import build_reduction, compare_structures, splice_out
from teleo.speclang import (
    FinalDecl,
    MechDecl,
    ModelSpecDocument,
    VarDecl,
    parse_model,
    print_model,
)
from teleo.teleology import (
    Comparison,
    GoalPredicate,
    compatible_worlds,
    distinguishable,
    enumerate_goal_hypotheses,
    goal,
)

from teleo.errors import TeleologyError
from teleo.teleology import build_final_model

from support import (
    all_statements,
    dependence_oracle,
    dsep_oracle,
    factorization_oracle,
    filter_oracle,
    project_oracle,
    random_dag,
    random_final,
    random_goal,
    random_scm,
    reachability_oracle,
    topological_oracle,
    uniform_oracle,
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
        parse_model(text)
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
            assert uniform_independent(table, stmt)


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
            assert factorization(table.cells(stmt)) == (
                independent,
                tuple(sorted(strata)),
            )
            assert uniform_independent(table, stmt) == independent


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
            assert factorization(data.cells(stmt)) == (
                independent,
                tuple(sorted(strata)),
            )
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
    rng = random.Random(seed)
    for scm in _ternary_models(rng):
        worlds = worlds_oracle(scm)
        table = enumerate_worlds(scm)
        assert worlds_of(table) == worlds
        for g in _goals(rng, scm, worlds):
            assert worlds_of(table.filter(g.level_tests)) == filter_oracle(worlds, g)
        names = tuple(rng.sample(scm.names, rng.randint(0, len(scm.names))))
        assert worlds_of(table.project(names)) == project_oracle(worlds, names)


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
                assert _outcome(uniform_independent, sub, stmt) == _outcome(
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

    domains = [scm.domain(n) for n in scm.names]
    rows = [tuple(rng.choice(d) for d in domains) for _ in range(rng.randint(1, 6))]
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
    hyps = enumerate_goal_hypotheses(m, max_effects=1)
    if not hyps:
        return
    chosen = rng.choice(hyps)
    data = Dataset(scm.names, tuple((values, 1) for values in chosen.worlds.rows))
    for h in hyps:
        try:
            f = build_final_model(m, h.effects, h.goal)
        except TeleologyError:
            continue  # reversal closed a cycle; nothing to rank
        verdict = check_support(f, data)
        if world_set(h.worlds) == world_set(chosen.worlds):
            assert verdict.support_compatible
        elif len(h.worlds) < len(chosen.worlds):
            assert not verdict.support_compatible


@MODERATE
@given(seeds)
def test_splice_preserves_projected_worlds(seed):
    rng = random.Random(seed)
    scm = random_scm(rng)
    endogenous = scm.dag.endogenous()
    if not endogenous:
        return
    victim = rng.choice(endogenous)
    remaining = tuple(n for n in scm.names if n != victim)
    before = world_set(enumerate_worlds(scm).project(remaining))
    after = world_set(enumerate_worlds(splice_out(scm, victim)))
    assert before == after


@MODERATE
@given(seeds)
def test_hypothesis_enumeration_is_order_stable(seed):
    rng = random.Random(seed)
    scm = random_scm(rng)
    targets = [n for n in scm.dag.nodes if scm.dag.children(n)]
    if not targets:
        return
    m = do_surgery(scm, targets[0])
    first = enumerate_goal_hypotheses(m, max_effects=2)
    second = enumerate_goal_hypotheses(m, max_effects=2)
    assert [(h.effects, str(h.goal)) for h in first] == [
        (h.effects, str(h.goal)) for h in second
    ]


def _random_document(rng: random.Random) -> ModelSpecDocument:
    scm = random_scm(rng)
    variables = tuple(VarDecl(v.name, v.domain) for v in scm.variables)
    mechs = tuple(
        MechDecl(m.child, m.parents, tuple(sorted(m.table.items())), "table")
        for _, m in sorted(scm.mechanisms.items())
    )
    do_target = None
    rest = None
    finals: tuple[FinalDecl, ...] = ()
    targets = [n for n in scm.dag.nodes if scm.dag.children(n)]
    if targets and rng.random() < 0.8:
        do_target = rng.choice(targets)
        if rng.random() < 0.5:
            rest = (do_target, rng.choice(scm.domain(do_target)))
        children = scm.dag.children(do_target)
        names = iter(("first", "second"))
        finals = tuple(
            FinalDecl(
                next(names),
                effects := tuple(rng.sample(children, rng.randint(1, len(children)))),
                random_goal(rng, scm, effects),
            )
            for _ in range(rng.randint(0, 2))
        )
    return ModelSpecDocument(
        variables=variables,
        edges=scm.dag.edges,
        mechanisms=mechs,
        do_target=do_target,
        rest=rest,
        finals=finals,
    )


def _reversal_closes_a_cycle(doc: ModelSpecDocument, final: FinalDecl) -> bool:
    """Surgery on the do target, then each effect's arrow turned toward it,
    on the bare edge list."""
    action = doc.do_target
    edges = [(p, c) for p, c in doc.edges if c != action]
    for eff in final.effects:
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
    doc = _random_document(random.Random(seed))
    text = print_model(doc)
    broken = [f for f in doc.finals if _reversal_closes_a_cycle(doc, f)]
    if not broken:
        assert parse_model(text) == doc
        return
    with pytest.raises(SpecSyntaxError, match="cycle") as exc:
        parse_model(text)
    header = f"final {broken[0].name} "
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
    hyps = enumerate_goal_hypotheses(m, max_effects=1)
    candidates = []
    for h in hyps:
        try:
            candidates.append(build_final_model(m, h.effects, h.goal, name=h.label))
        except TeleologyError:
            pass
    if not candidates:
        return
    star = enumerate_worlds_star(m)
    data = Dataset(scm.names, tuple((values, 1) for values in star.rows))
    one = [(r.rank, r.verdict.hypothesis.label) for r in rank_hypotheses(candidates, data)]
    two = [(r.rank, r.verdict.hypothesis.label) for r in rank_hypotheses(candidates, data)]
    assert one == two
