"""World tables as level masks over one universe, against the row oracles.

A model's universe is its worlds in product order over the exogenous
levels, each variable's levels as masks (``Scm.universe``).  A table keeps
the rows of its root that its ``kept`` mask has, and a filtered table's
masks are its root's compressed to the kept rows.  These tests read the
masks back as rows and compare them with ``support.worlds_oracle``, and the
mask set operations with the row-set oracle ``support.outside_oracle``, on
the degenerate cases (the empty model, single-level domains, constant
mechanisms) and on models whose exogenous variables are declared after
endogenous ones, where product order is not sorted row order.

A set difference is taken over one root, and a table of another root is
refused.  Whether given rows (a dataset's) are worlds is decided by the
model's own equations over those rows' masks (``consistent_with``), which
is checked against the worlds the oracle enumerates.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from teleo.errors import ModelStructureError
from teleo.identification import Dataset, check_support, rank_hypotheses
from teleo.intervention import do_surgery
from teleo.model import (
    CausalDag,
    Mechanism,
    Scm,
    Variable,
    WorldTable,
    compressor,
    enumerate_worlds,
    level_column,
    scatter,
    universe_levels,
)
from teleo.teleology import build_final_model, compatible_worlds, distinguishable, goal

from support import (
    assert_masks_are_the_rows,
    exogenous_last,
    filter_oracle,
    m1_scm,
    outside_oracle,
    random_final,
    random_goal,
    random_scm,
    rows_worlds,
    worlds_of,
    worlds_oracle,
)

seeds = st.integers(min_value=0, max_value=2**31)
MODERATE = settings(max_examples=60, deadline=None)


def test_the_empty_model_has_one_world():
    scm = Scm(CausalDag((), ()), (), {})
    assert scm.universe == (1, {})
    table = scm.worlds
    assert (table.columns, table.rows, len(table), table.kept) == ((), ((),), 1, 1)
    assert worlds_of(table) == worlds_oracle(scm)
    assert table.filter({}) is table and table.project(()) == table
    assert table.outside(table).rows == () and not len(table.outside(table))
    empty = WorldTable((), [])
    for a, b in ((table, empty), (empty, table)):
        with pytest.raises(ModelStructureError, match="two roots"):
            a.outside(b)
    # the one empty world is a world of the model; no row is no world
    assert table.consistent_with(scm) is table and empty.consistent_with(scm) is empty
    assert WorldTable((), [()]).consistent_with(scm).rows == ((),)
    assert table == rows_worlds(scm)


@MODERATE
@given(st.lists(st.lists(st.integers(-300, 300), min_size=1, max_size=3, unique=True)
                .map(sorted), max_size=4))
def test_single_level_domains_hold_every_world(domains):
    # a domain of one level, as the reduction's tabulation fixes the
    # context it does not read, is the mask of every world
    named = {f"V{i}": tuple(d) for i, d in enumerate(domains)}
    n, levels = universe_levels(None, (), named)
    assert n == math.prod(map(len, domains))
    for name, domain in named.items():
        if len(domain) == 1:
            assert levels[name] == {domain[0]: (1 << n) - 1}
        assert sum(levels[name].values()) == (1 << n) - 1
    columns = [tuple(level_column(levels[name], n)) for name in named]
    assert (list(zip(*columns)) if columns else [()]) == list(itertools.product(*domains))


def test_a_constant_mechanism_has_one_level_over_every_world():
    x, y, z = Variable("X", (0, 1, 2)), Variable("Y", (0, 1)), Variable("Z", (-1, 300))
    dag = CausalDag(("Y", "X", "Z"), (("X", "Y"), ("X", "Z")))
    mechanisms = {
        "Y": Mechanism("Y", ("X",), {(0,): 1, (1,): 1, (2,): 1}),
        "Z": Mechanism("Z", ("X",), {(0,): 300, (1,): -1, (2,): 300}),
    }
    scm = Scm(dag, (y, x, z), mechanisms)
    n, levels = scm.universe
    assert (n, levels["Y"], levels["Z"]) == (3, {1: 0b111}, {-1: 0b010, 300: 0b101})
    table = enumerate_worlds(scm)
    assert worlds_of(table) == worlds_oracle(scm)
    assert table.column("Z") == (300, -1, 300)
    assert_masks_are_the_rows(table)
    for level in (0, 1):
        kept = table.filter(goal("Y", "=", level).level_tests)
        assert worlds_of(kept) == filter_oracle(worlds_oracle(scm), goal("Y", "=", level))


def _bits(mask: int, n: int) -> list[int]:
    return [mask >> i & 1 for i in range(n)]


@MODERATE
@given(seeds)
def test_the_compressor_packs_and_scatter_unpacks(seed):
    rng = random.Random(seed)
    n = rng.choice([1, 7, 63, 64, 65, rng.randint(1, 3000)])
    slots, mask = rng.getrandbits(n), rng.getrandbits(n)
    packed = compressor(slots, n)(mask)
    kept = [b for b, s in zip(_bits(mask, n), _bits(slots, n)) if s]
    assert _bits(packed, len(kept)) == kept and packed >> len(kept) == 0
    if slots:
        assert scatter(packed, slots, n) == mask & slots


@MODERATE
@given(seeds)
def test_level_column_reads_any_levels_back(seed):
    # bytes while every level fits in 0..255, a tuple otherwise
    rng = random.Random(seed)
    pool = rng.choice([range(0, 256), range(-3, 3), range(250, 600), (-10**20, -1, 7, 10**20)])
    levels = sorted(rng.sample(pool, rng.randint(1, 4)))
    column = [rng.choice(levels) for _ in range(rng.randint(0, 700))]
    masks = {v: sum(1 << i for i, w in enumerate(column) if w == v) for v in set(column)}
    assert list(level_column(dict(sorted(masks.items())), len(column))) == column


@MODERATE
@given(seeds)
def test_mask_set_operations_match_the_row_set_oracle(seed):
    # two goals over one surgered model share its universe, so their
    # difference is a mask difference; a dataset is a table of given rows,
    # another root, so it is compared only with tables of its own rows
    rng = random.Random(seed)
    scm = random_scm(rng, lowest=-2)
    if rng.random() < 0.5:
        scm = exogenous_last(scm)
    f1 = random_final(rng, scm)
    if f1 is None:
        return
    f2 = build_final_model(f1.mstar, f1.intended_effects,
                           random_goal(rng, scm, f1.intended_effects))
    t1, t2 = compatible_worlds(f1), compatible_worlds(f2)
    root = f1.mstar.model.worlds
    for a, b in ((t1, t2), (t2, t1), (t1, t1), (root, t1), (t2, root)):
        assert a.outside(b) == outside_oracle(a, b)
        assert_masks_are_the_rows(a.outside(b))
    v = distinguishable(f1, f2)
    assert (v.only_first, v.only_second) == (outside_oracle(t1, t2), outside_oracle(t2, t1))
    domains = [scm.domain(n) for n in scm.names]
    rows = [tuple(rng.choice(d) for d in domains) for _ in range(rng.randint(1, 8))]
    rows += rng.sample(t1.rows, min(len(t1), 3))
    data = Dataset(scm.names, ((values, 1) for values in rows))
    for a, b in ((data.support, t1), (t1, data.support), (data.support, root)):
        with pytest.raises(ModelStructureError, match="two roots"):
            a.outside(b)
    violating = check_support(f1, data).violating_rows
    assert violating == outside_oracle(data.support, t1)
    assert_masks_are_the_rows(violating)


@MODERATE
@given(seeds)
def test_consistent_rows_are_the_worlds_of_the_model(seed):
    # a row is a world when its exogenous levels are in their domains and
    # every mechanism maps its parents' levels to its child's level; the
    # oracle enumerates the worlds instead.  The level 9 is in no domain.
    rng = random.Random(seed)
    scm = random_scm(rng, lowest=-2)
    if rng.random() < 0.5:
        scm = exogenous_last(scm)
    worlds = [w.values for w in worlds_oracle(scm)]
    domains = [(*scm.domain(n), 9) for n in scm.names]
    rows = [tuple(rng.choice(d) for d in domains) for _ in range(rng.randint(0, 12))]
    rows += rng.sample(worlds, rng.randint(0, min(len(worlds), 6)))
    table = WorldTable(scm.names, rows)
    kept = table.consistent_with(scm)
    assert kept.rows == tuple(r for r in table.rows if r in worlds)
    assert_masks_are_the_rows(kept)
    # on a filtered table, only its own rows are candidates
    name = rng.choice(scm.names)
    level = rng.choice(scm.domain(name))
    some = table.filter(goal(name, "!=", level).level_tests)
    assert some.consistent_with(scm).rows == tuple(r for r in kept.rows if r in some.rows)


@MODERATE
@given(seeds)
def test_filtered_tables_are_compressed_to_their_rows(seed):
    # a filtered table's masks are the masks of its own rows, not of the
    # root's: the rows the goal drops are gone from every mask
    rng = random.Random(seed)
    scm = random_scm(rng, max_levels=4, lowest=-1)
    if rng.random() < 0.5:
        scm = exogenous_last(scm)
    table, worlds = enumerate_worlds(scm), worlds_oracle(scm)
    assert table == rows_worlds(scm)
    assert_masks_are_the_rows(table)
    name = rng.choice(scm.names)
    for level in scm.domain(name):
        g = goal(name, "<=", level)
        kept = table.filter(g.level_tests)
        assert worlds_of(kept) == filter_oracle(worlds, g)
        assert_masks_are_the_rows(kept)
        again = kept.filter(goal(name, "=", level).level_tests)
        assert worlds_of(again) == filter_oracle(worlds, goal(name, "=", level))
        assert_masks_are_the_rows(again)


def test_ranking_builds_no_rows_of_the_compatible_worlds():
    # the equivalence classes key on the masks of kept worlds, so ranking
    # reads no candidate's rows (a violating table's rows are the dataset's)
    scm = m1_scm()
    m = do_surgery(scm, "H")
    finals = [build_final_model(m, ("T",), goal("T", "=", level)) for level in (0, 1, 2)]
    finals.append(build_final_model(m, ("T", "B"), goal("T", "=", 1)))
    data = Dataset(scm.names, ((scm.worlds.rows[0], 2), (scm.worlds.rows[-1], 1)))
    ranking = rank_hypotheses(finals, data)
    assert not any("rows" in vars(compatible_worlds(f)) for f in finals)
    # each support check reads the dataset's own masks, and builds no row
    # of the universe
    assert "rows" not in vars(m.model.worlds)
    classes = [next(r.equivalence_class for r in ranking if r.verdict.hypothesis is f)
               for f in finals]
    # the two finals with goal T = 1 keep the same worlds, so share a class
    assert len(set(classes)) == 3 and classes[1] == classes[3]
