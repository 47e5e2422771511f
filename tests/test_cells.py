"""The bitmask kernel against the row-hashing oracles.

``WorldTable.strata`` intersects level masks into the row mask of each
stratum of a conditioning set, once per set, and ``WorldTable.independent``
(one pair at a time, ``WorldTable.factorizes``) weighs cells as popcounts
of those masks (times the binary weight layers, for datasets).  These
tests compare the strata with ``support.strata_oracle`` and
``support.cells_oracle``, and the verdicts with
``support.factorization_oracle``, where masks cross machine-word boundaries,
where counts need many layers and where a goal filter leaves strata empty;
and they pin the per-column and per-conditioning-set memos.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import teleo.model
from teleo.errors import EmptyTableError
from teleo.identification import Dataset, check_dependence
from teleo.intervention import do_surgery
from teleo.model import (
    IndependenceStatement,
    WorldTable,
    weight_layers,
)
from teleo.teleology import build_final_model, compatible_worlds, goal

from support import (
    cells_oracle,
    dependence_oracle,
    factorization_oracle,
    m1_scm,
    random_final,
    random_scm,
    statement_grid,
    strata_oracle,
    uniform_oracle,
    worlds_of,
)

seeds = st.integers(min_value=0, max_value=2**31)
MODERATE = settings(max_examples=60, deadline=None)


def _statements(columns, max_given=2):
    """Every (x, y, Z) over ``columns`` with up to ``max_given`` variables
    in Z."""
    for x, y in itertools.combinations(columns, 2):
        rest = [n for n in columns if n not in (x, y)]
        for k in range(min(max_given, len(rest)) + 1):
            for z in itertools.combinations(rest, k):
                yield IndependenceStatement(x, y, frozenset(z))


def _keys(strata):
    return [stratum for stratum, _ in strata]


def _assert_kernel_matches_the_oracles(table, stmt, counts=None):
    """The strata, their row masks and weights, and the verdict agree with
    the row-by-row strata, the row-hashing counter and the Fraction
    oracle."""
    weights = None if counts is None else weight_layers(counts)
    strata = table.strata(stmt.given)
    assert strata == strata_oracle(table, stmt.given), stmt
    grouped = cells_oracle(table, stmt, counts)
    assert _keys(strata) == sorted(grouped)
    row_weights = counts or [1] * len(table)
    for stratum, mask in strata:
        inside = sum(w for i, w in enumerate(row_weights) if mask >> i & 1)
        assert inside == sum(grouped[stratum].values())
    rows = zip(table.rows, row_weights)
    independent, present = factorization_oracle(table.columns, list(rows), stmt)
    assert _keys(strata) == sorted(present)
    assert table.factorizes(stmt, weights) == independent, stmt


def _sampled_table(rng: random.Random, size: int) -> WorldTable:
    """``size`` distinct rows over six ternary columns."""
    columns = tuple("ABCDEF")
    space = list(itertools.product(range(3), repeat=len(columns)))
    return WorldTable(columns, rng.sample(space, size))


@pytest.mark.parametrize("size", [63, 64, 65, 300])
def test_cells_match_the_oracles_across_word_boundaries(size):
    rng = random.Random(size)
    table = _sampled_table(rng, size)
    assert len(table) == size
    for stmt in _statements(table.columns):
        _assert_kernel_matches_the_oracles(table, stmt)


@pytest.mark.parametrize("size", [63, 64, 65])
def test_full_binary_products_are_independent_across_word_boundaries(size):
    # 64 rows are every combination of six binary columns; 63 and 65 rows
    # drop one or add a seventh column's level, which breaks independence
    space = list(itertools.product((0, 1), repeat=6))
    rows = [(*v, 0) for v in space][: min(size, 64)]
    if size == 65:
        rows.append((0,) * 6 + (1,))
    table = WorldTable(tuple("ABCDEFG"), rows)
    assert len(table) == size
    verdicts = set()
    for stmt in _statements(table.columns):
        _assert_kernel_matches_the_oracles(table, stmt)
        verdicts.add(table.factorizes(stmt))
    assert verdicts == ({True} if size == 64 else {True, False})


@pytest.mark.parametrize(
    "top", [7, 2**20 + 1, 2**31 + 12345], ids=["3-layers", "21-layers", "32-layers"]
)
def test_weighted_cells_match_the_oracles_with_many_layers(top):
    rng = random.Random(top)
    table = _sampled_table(rng, 130)
    counts = [rng.randint(1, top) for _ in table.rows]
    counts[rng.randrange(len(counts))] = top
    layers = weight_layers(counts)
    assert len(layers) == top.bit_length() >= 3
    data = Dataset(table.columns, tuple(zip(table.rows, counts)))
    assert data.support == table and data.layers == layers
    for stmt in _statements(table.columns):
        _assert_kernel_matches_the_oracles(table, stmt, counts)
        assert data.support.strata(stmt.given) == table.strata(stmt.given)
        assert data.support.factorizes(stmt, data.layers) == table.factorizes(
            stmt, layers
        )


@given(st.lists(st.integers(min_value=1, max_value=2**40), min_size=1, max_size=200))
def test_weight_layers_add_back_to_the_weights(weights):
    layers = weight_layers(weights)
    assert layers[-1]  # the top layer holds the largest weight's top bit
    for i, w in enumerate(weights):
        assert sum(1 << k for k, layer in enumerate(layers) if layer >> i & 1) == w


def test_strata_a_goal_filter_empties_are_left_out():
    # the warm hypothesis T >= 1 drops the world with T = 0, so no stratum
    # of T is 0, and given B and T the stratum (0, 2) is gone too
    worlds = m1_scm().worlds
    table = worlds.filter(goal("T", ">=", 1).level_tests)
    assert len(table) == 3
    assert _keys(table.strata({"T"})) == [(1,), (2,)]
    assert _keys(table.strata({"B", "T"})) == [(0, 1), (1, 1), (1, 2)]
    for stmt in _statements(table.columns, max_given=3):
        _assert_kernel_matches_the_oracles(table, stmt)
        assert all(mask for _, mask in table.strata(stmt.given))


@MODERATE
@given(seeds)
def test_cells_on_goal_filtered_tables_match_the_oracles(seed):
    rng = random.Random(seed)
    f = random_final(rng, random_scm(rng, max_levels=4))
    if f is None:
        return
    table = compatible_worlds(f)
    for stmt in _statements(table.columns):
        if not len(table):
            assert table.strata(stmt.given) == []
            with pytest.raises(EmptyTableError):
                table.factorizes(stmt)
            continue
        _assert_kernel_matches_the_oracles(table, stmt)
        counts = [rng.randint(1, 9) for _ in table.rows]
        _assert_kernel_matches_the_oracles(table, stmt, counts)


def test_skipped_strata_come_from_strata_the_data_leaves_empty():
    # the compatible worlds of T >= 1 show T = 1 and T = 2; data that only
    # ever saw T = 1 skips stratum (2,)
    scm = m1_scm()
    f = build_final_model(do_surgery(scm, "H"), ("T",), goal("T", ">=", 1))
    data = Dataset(scm.names, (((1, 0, 1, 0), 2**21), ((0, 1, 1, 1), 3)))
    stmt = IndependenceStatement("W", "B", frozenset({"T"}))
    check = check_dependence(f, data, stmt)
    assert check.skipped_strata == ((2,),)
    assert _keys(data.support.strata(check.statement.given)) == [(1,)]


class _CountingMasks:
    """Wraps `level_masks` and counts its calls."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.build = teleo.model.level_masks
        monkeypatch.setattr(teleo.model, "level_masks", self)

    def __call__(self, column):
        self.calls += 1
        return self.build(column)


def test_the_grid_builds_each_column_index_once(monkeypatch):
    counting = _CountingMasks(monkeypatch)
    table = _sampled_table(random.Random(7), 100)
    for _ in range(2):
        for stmt in statement_grid(table.columns):
            table.factorizes(stmt)
        for name in table.columns:
            table.distribution(name)
    assert counting.calls == len(table.columns)
    assert set(table._level_cache) == set(table.columns)
    for name in table.columns:
        assert table.levels(name) is table._level_cache[name]


def test_tables_with_equal_rows_keep_their_own_indexes(monkeypatch):
    counting = _CountingMasks(monkeypatch)
    rows = _sampled_table(random.Random(8), 70).rows
    first = WorldTable(tuple("ABCDEF"), rows)
    second = WorldTable(tuple("ABCDEF"), rows)
    assert first == second
    assert first._level_cache is not second._level_cache
    first.levels("A")
    assert set(first._level_cache) == {"A"} and not second._level_cache
    second.levels("A")
    assert counting.calls == 2
    assert first.levels("A") == second.levels("A")
    assert first.levels("A") is not second.levels("A")


def test_the_index_stays_out_of_equality_hash_and_repr():
    rows = _sampled_table(random.Random(9), 65).rows
    indexed = WorldTable(tuple("ABCDEF"), rows)
    fresh = WorldTable(tuple("ABCDEF"), rows)
    before = (repr(indexed), hash(indexed))
    for stmt in statement_grid(indexed.columns):
        indexed.factorizes(stmt)
    assert indexed._strata_cache and not fresh._strata_cache
    assert (repr(indexed), hash(indexed)) == before == (repr(fresh), hash(fresh))
    assert indexed == fresh
    columns = "('A', 'B', 'C', 'D', 'E', 'F')"
    assert repr(indexed).startswith(f"WorldTable(columns={columns}, rows=((")
    assert "_cache" not in repr(indexed)


def test_the_grid_builds_each_conditioning_set_once():
    table = _sampled_table(random.Random(10), 90)
    for stmt in statement_grid(table.columns):
        table.factorizes(stmt)
    built = dict(table._strata_cache)
    assert set(built) == {frozenset(), *(frozenset({n}) for n in table.columns)}
    for stmt in statement_grid(table.columns):
        table.factorizes(stmt)
        assert table.strata(stmt.given) is built[stmt.given]
    assert table._strata_cache == built
    pair = table.strata(("E", "B"))
    assert table.strata(["B", "E"]) is pair is table.strata(frozenset("BE"))


def test_the_grid_makes_the_statements_the_constructor_makes():
    # grid_cells, read from grid_pairs, in its one order: the
    # statements the constructor makes, fields and all
    names = tuple("ABCDE")
    checked = [
        IndependenceStatement(x, y, given)
        for x, y in itertools.combinations(names, 2)
        for given in [(), *((w,) for w in names if w not in (x, y))]
    ]
    grid = list(statement_grid(names))
    assert grid == checked
    assert [vars(s) for s in grid] == [vars(s) for s in checked]


def _shuffled_statements(rng: random.Random, columns):
    stmts = list(_statements(columns))
    rng.shuffle(stmts)
    return stmts


@MODERATE
@given(seeds)
def test_one_table_answers_many_statements_like_the_uniform_oracle(seed):
    rng = random.Random(seed)
    columns = tuple(rng.sample("ABCDE", rng.randint(2, 5)))
    domains = [range(rng.randint(2, 3)) for _ in columns]
    space = list(itertools.product(*domains))
    table = WorldTable(columns, rng.sample(space, rng.randint(1, len(space))))
    worlds = worlds_of(table)
    for stmt in _shuffled_statements(rng, columns):
        assert table.factorizes(stmt) == uniform_oracle(worlds, stmt)
        assert table.strata(stmt.given) == strata_oracle(table, stmt.given)
    empty = WorldTable(columns, [])
    for stmt in _statements(columns):
        with pytest.raises(EmptyTableError):
            empty.factorizes(stmt)


@MODERATE
@given(seeds)
def test_the_batch_kernel_decides_pairs_in_any_order_like_the_oracles(seed):
    # one call per conditioning set over shuffled pairs, either way round
    # and repeated, on one table unweighted, weighted and unweighted again:
    # each verdict is the uniform oracle's, or the weighted factorization
    # oracle's.  Columns of one level and strata a sample leaves out occur.
    rng = random.Random(seed)
    columns = tuple("ABCD")
    domains = [range(rng.randint(1, 3)) for _ in columns]
    space = list(itertools.product(*domains))
    table = WorldTable(columns, rng.sample(space, rng.randint(1, len(space))))
    worlds = worlds_of(table)
    counts = [rng.randint(1, 9) for _ in range(len(table))]
    weighted = list(zip(table.rows, counts))
    sets = [(), *zip(columns), tuple(rng.sample(columns, 2))]
    for z in map(frozenset, sets):
        pairs = [p for p in itertools.permutations(sorted(set(columns) - z), 2)
                 if rng.random() < 0.6]
        pairs += rng.sample(pairs, min(2, len(pairs)))
        rng.shuffle(pairs)
        stmts = [IndependenceStatement(x, y, z) for x, y in pairs]
        uniform = [uniform_oracle(worlds, s) for s in stmts]
        weighed = [factorization_oracle(columns, weighted, s)[0] for s in stmts]
        for weights, expected in ((None, uniform), (weight_layers(counts), weighed),
                                  (None, uniform)):
            assert table.independent(z, pairs, weights) == expected
    empty = WorldTable(columns, [])
    for weights in (None, weight_layers([])):
        for pairs in ([], [("A", "B")], [("B", "A"), ("C", "D")]):
            with pytest.raises(EmptyTableError):
                empty.independent(frozenset("C"), pairs, weights)


@MODERATE
@given(seeds)
def test_check_dependence_answers_many_statements_like_the_dependence_oracle(seed):
    rng = random.Random(seed)
    scm = random_scm(rng, max_levels=3)
    f = random_final(rng, scm)
    if f is None:
        return
    table = compatible_worlds(f)
    if not len(table):
        data = Dataset(scm.names, ((scm.worlds.rows[0], 1),))
        for stmt in _statements(scm.names):
            with pytest.raises(EmptyTableError):
                check_dependence(f, data, stmt)
        return
    observed = rng.sample(table.rows, rng.randint(1, len(table)))
    data = Dataset(scm.names, tuple((v, rng.randint(1, 9)) for v in observed))
    worlds = worlds_of(table)
    for stmt in _shuffled_statements(rng, scm.names):
        assert check_dependence(f, data, stmt) == dependence_oracle(
            worlds, scm.names, data.rows, stmt
        )
