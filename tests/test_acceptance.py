"""Acceptance suite: one test per criterion, exact tolerances, timed where
a runtime bound applies.  Run with ``pytest tests/test_acceptance.py -v -s``
to see one PASS/FAIL line per criterion.
"""

import copy
import functools
import random
import time
from pathlib import Path

import pytest

from teleo.dsep import d_separated
from teleo.identification import Dataset, check_support, load_dataset
from teleo.intervention import do_surgery, enumerate_worlds_star
from teleo.model import IndependenceStatement, enumerate_worlds
from teleo.reduction import build_reduction, compare_structures, reduction_worlds
from teleo.speclang import load_model
from teleo.teleology import (
    GoalPredicate,
    build_final_model,
    compatible_worlds,
    distinguishable,
    goal,
)

from support import (
    all_statements,
    dsep_oracle,
    m1_scm,
    random_dag,
    random_final,
    random_goal,
    random_scm,
    run_cli,
    value_sets,
    world_set,
)

ROOT = Path(__file__).resolve().parents[1]
SPEC = str(ROOT / "models" / "heating.tele")

TABLE_1 = {(0, 0, 0, 0), (1, 0, 1, 0), (0, 1, 1, 1), (1, 1, 2, 1)}
TABLE_3 = {
    "T=1": {(1, 0, 1, 0), (0, 1, 1, 1)},
    "T<2": {(0, 0, 0, 0), (1, 0, 1, 0), (0, 1, 1, 1)},
    "T>0": {(1, 0, 1, 0), (0, 1, 1, 1), (1, 1, 2, 1)},
}
TABLE_4 = {
    "B=0": {(0, 0, 0, 0), (1, 0, 1, 0)},
    "B=1": {(0, 1, 1, 1), (1, 1, 2, 1)},
}
TABLE_5 = {(1, 1, 0, 0, 1, 0), (0, 0, 1, 1, 1, 1)}


def criterion(number: int, title: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d}: FAIL  {title}")
                raise
            print(f"ACCEPTANCE {number:2d}: PASS  {title}")

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def room():
    return load_model(Path(SPEC).read_text())


@pytest.fixture(scope="module")
def finals(room):
    return room.finals


@criterion(1, "world table reproduced byte-stably in under a second")
def test_c01_world_table(room):
    started = time.perf_counter()
    result = run_cli("worlds", SPEC)
    elapsed = time.perf_counter() - started
    assert result.exit_code == 0
    golden = (Path(__file__).parent / "golden" / "worlds_heating.txt").read_text()
    assert result.stdout == golden
    assert result.stderr == ""
    table = enumerate_worlds(room.scm)
    assert value_sets(table) == TABLE_1
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


@criterion(2, "temperature-goal world sets match exactly")
def test_c02_temperature_goals(finals):
    assert value_sets(compatible_worlds(finals["warm"])) == TABLE_3["T=1"]
    assert value_sets(compatible_worlds(finals["mild"])) == TABLE_3["T<2"]
    assert value_sets(compatible_worlds(finals["notcold"])) == TABLE_3["T>0"]


@criterion(3, "bill-goal world sets match and differ from every temperature goal")
def test_c03_bill_goals(finals):
    assert value_sets(compatible_worlds(finals["cheap"])) == TABLE_4["B=0"]
    assert value_sets(compatible_worlds(finals["costly"])) == TABLE_4["B=1"]
    comparisons = 0
    for t_name in ("warm", "mild", "notcold"):
        for b_name in ("cheap", "costly"):
            assert distinguishable(finals[t_name], finals[b_name]).distinguishable
            comparisons += 1
    assert comparisons == 6


@criterion(4, "weather-heating dependence flips exactly as claimed")
def test_c04_dependence_flip(room, finals):
    stmt = IndependenceStatement("W", "H")
    assert enumerate_worlds(room.scm).factorizes(stmt)
    for name in ("warm", "mild", "notcold"):
        assert not compatible_worlds(finals[name]).factorizes(stmt)
    for name in ("cheap", "costly"):
        assert compatible_worlds(finals[name]).factorizes(stmt)


@criterion(5, "graphical verdicts concord with the distributional ones")
def test_c05_graphical_concordance(finals):
    stmt = IndependenceStatement("W", "H")
    # chain W -> T -> do(H): connected; collider W -> T <- do(H): separated
    assert not d_separated(finals["warm"].final_dag, stmt)
    assert d_separated(finals["cheap"].final_dag, stmt)
    assert not compatible_worlds(finals["warm"]).factorizes(stmt)
    assert compatible_worlds(finals["cheap"]).factorizes(stmt)


@criterion(6, "causal reduction reproduces the unrolled table and projects back")
def test_c06_reduction_table(room, finals):
    r = build_reduction(finals["warm"], rest_level=room.rest)
    table = reduction_worlds(r)
    assert table.columns == ("W", "T0", "I", "H", "T1", "B")
    assert value_sets(table) == TABLE_5
    projected = table.project(("W", "H", "T1", "B"))
    assert value_sets(projected) == TABLE_3["T=1"]
    result = run_cli("reduce", SPEC, "--final", "warm")
    assert result.exit_code == 0
    golden = (Path(__file__).parent / "golden" / "reduce_warm.txt").read_text()
    assert result.stdout == golden
    assert result.stderr == ""


@criterion(7, "final model and reduction wire the action differently")
def test_c07_structural_nonequivalence(room, finals):
    r = build_reduction(finals["warm"], rest_level=room.rest)
    cmp = compare_structures(finals["warm"], r)
    assert cmp.action_listens_final == ("T",)
    assert cmp.action_listens_reduction == ("W",)
    assert cmp.action_wiring_differs
    assert cmp.only_final or cmp.only_reduction


@criterion(8, "separation kernel agrees with the trail oracle on 200 random graphs")
def test_c08_dsep_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(88)
    queries = 0
    for _ in range(200):
        dag = random_dag(rng, rng.randint(2, 5), rng.random())
        for stmt in all_statements(dag):
            assert d_separated(dag, stmt) == dsep_oracle(dag, stmt), (dag.edges, stmt)
            queries += 1
    elapsed = time.perf_counter() - started
    assert queries >= 200
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


@criterion(9, "five structural laws hold over 500 randomized models each")
def test_c09_property_sweep():
    # subset law
    rng = random.Random(901)
    checked = 0
    while checked < 500:
        f = random_final(rng, random_scm(rng))
        if f is None:
            continue
        assert (
            world_set(compatible_worlds(f))
            <= world_set(enumerate_worlds_star(f.mstar))
        )
        checked += 1

    # conjunction monotonicity
    rng = random.Random(902)
    checked = 0
    while checked < 500:
        scm = random_scm(rng)
        f = random_final(rng, scm)
        if f is None:
            continue
        extra = random_goal(rng, scm, f.intended_effects).conjuncts[0]
        widened = GoalPredicate(f.goal.conjuncts + (extra,))
        star = enumerate_worlds_star(f.mstar)
        assert (
            world_set(star.filter(widened.level_tests))
            <= world_set(star.filter(f.goal.level_tests))
        )
        checked += 1

    # support-check monotonicity
    rng = random.Random(903)
    checked = 0
    while checked < 500:
        scm = random_scm(rng)
        f = random_final(rng, scm)
        if f is None:
            continue
        domains = [scm.domain(n) for n in scm.names]
        rows1 = [
            (tuple(rng.choice(d) for d in domains), rng.randint(1, 3))
            for _ in range(rng.randint(1, 4))
        ]
        extra_rows = [
            (tuple(rng.choice(d) for d in domains), 1)
            for _ in range(rng.randint(1, 3))
        ]
        d1 = Dataset(scm.names, tuple(rows1))
        d2 = Dataset(scm.names, tuple(rows1 + extra_rows))
        if not check_support(f, d1).support_compatible:
            assert not check_support(f, d2).support_compatible
        checked += 1

    # node preservation under surgery
    rng = random.Random(904)
    for _ in range(500):
        scm = random_scm(rng)
        target = rng.choice(scm.names)
        m = do_surgery(scm, target)
        assert set(m.surgered_dag.nodes) == set(scm.dag.nodes)
        removed = set(scm.dag.edges) - set(m.surgered_dag.edges)
        assert removed == {(p, c) for p, c in scm.dag.edges if c == target}

    # mechanism immutability under final-model construction
    rng = random.Random(905)
    checked = 0
    while checked < 500:
        scm = random_scm(rng)
        before = copy.deepcopy({k: m.table for k, m in scm.mechanisms.items()})
        f = random_final(rng, scm)
        if f is None:
            continue
        assert {k: m.table for k, m in scm.mechanisms.items()} == before
        checked += 1


@criterion(10, "identification picks the right hypothesis end to end")
def test_c10_end_to_end_identification(room, tmp_path):
    rng = random.Random(10)
    t1_rows = sorted(TABLE_3["T=1"])
    sampled = [rng.choice(t1_rows) for _ in range(40)]
    # uniform sampling over the goal's worlds must still show both rows
    assert set(sampled) == set(t1_rows)
    csv = "W,H,T,B\n" + "\n".join(",".join(map(str, r)) for r in sampled) + "\n"
    data = tmp_path / "t1.csv"
    data.write_text(csv)
    result = run_cli("identify", SPEC, str(data))
    assert result.exit_code == 0
    assert "winner: warm" in result.stdout

    all_rows = "W,H,T,B\n" + "\n".join(
        ",".join(map(str, r)) for r in sorted(TABLE_1)
    ) + "\n"
    data_all = tmp_path / "all.csv"
    data_all.write_text(all_rows)
    result = run_cli("identify", SPEC, str(data_all))
    assert result.exit_code == 2
    assert "no compatible hypothesis" in result.stdout

    # the same verdicts hold at the library level
    dataset = load_dataset(csv, room.scm)
    verdict = check_support(room.finals["warm"], dataset)
    assert verdict.support_compatible
