"""Invariant checks over randomized desk-scale models."""

import copy
import itertools
import random

from hypothesis import given, settings, strategies as st

from teleo.dsep import d_separated
from teleo.identification import (
    Dataset,
    check_dependence,
    check_support,
    rank_hypotheses,
)
from teleo.intervention import do_surgery, enumerate_worlds_star
from teleo.model import (
    IndependenceStatement,
    enumerate_worlds,
    factorization,
    statement_grid,
    uniform_independent,
    verify_mechanism_consistency,
)
from teleo.reduction import splice_out
from teleo.speclang import (
    FinalDecl,
    MechDecl,
    ModelSpecDocument,
    VarDecl,
    parse_model,
    print_model,
)
from teleo.teleology import (
    GoalPredicate,
    compatible_worlds,
    distinguishable,
    enumerate_goal_hypotheses,
)

from teleo.errors import TeleologyError
from teleo.teleology import build_final_model

from support import (
    all_statements,
    dsep_oracle,
    factorization_oracle,
    random_dag,
    random_final,
    random_goal,
    random_scm,
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
    part = full.filter(lambda w: rng.random() < 0.4)
    for table in (full, part) if len(part) else (full,):
        rows = [(values, 1) for values in table.rows()]
        for stmt in statement_grid(table.columns):
            independent, strata = factorization_oracle(table.columns, rows, stmt)
            assert factorization(table.columns, rows, stmt) == (
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
    for rows in (Dataset(columns, tuple(bag)).rows, Dataset(columns, (bag[0],)).rows):
        for stmt in statement_grid(columns):
            independent, strata = factorization_oracle(columns, rows, stmt)
            assert factorization(columns, rows, stmt) == (
                independent,
                tuple(sorted(strata)),
            )
            if len(rows) == 1:
                assert independent


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
    worlds = [(values, 1) for values in table.rows()]
    observed = rng.sample(table.rows(), rng.randint(1, len(table)))
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
    assert enumerate_worlds_star(m).world_set == enumerate_worlds(scm).world_set


@MODERATE
@given(seeds)
def test_compatible_worlds_subset_law(seed):
    rng = random.Random(seed)
    f = random_final(rng, random_scm(rng))
    if f is None:
        return
    assert compatible_worlds(f).world_set <= enumerate_worlds_star(f.mstar).world_set


@MODERATE
@given(seeds)
def test_cached_compatible_worlds_match_a_fresh_enumeration(seed):
    rng = random.Random(seed)
    f = random_final(rng, random_scm(rng))
    if f is None:
        return
    fresh = enumerate_worlds(f.mstar.model).filter(f.goal.holds)
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
    assert star.filter(widened.holds).world_set <= star.filter(f.goal.holds).world_set


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
    data = Dataset(scm.names, tuple((w.values, 1) for w in table))
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
    data = Dataset(scm.names, tuple((w.values, 1) for w in chosen.worlds))
    for h in hyps:
        try:
            f = build_final_model(m, h.effects, h.goal)
        except TeleologyError:
            continue  # reversal closed a cycle; nothing to rank
        verdict = check_support(f, data)
        if h.worlds.world_set == chosen.worlds.world_set:
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
    before = enumerate_worlds(scm).project(remaining).world_set
    after = enumerate_worlds(splice_out(scm, victim)).world_set
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


@MODERATE
@given(seeds)
def test_parser_round_trip_on_random_documents(seed):
    doc = _random_document(random.Random(seed))
    assert parse_model(print_model(doc)) == doc


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
    data = Dataset(scm.names, tuple((w.values, 1) for w in star))
    one = [(r.rank, r.verdict.hypothesis.label) for r in rank_hypotheses(candidates, data)]
    two = [(r.rank, r.verdict.hypothesis.label) for r in rank_hypotheses(candidates, data)]
    assert one == two
