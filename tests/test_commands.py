"""Whole-command answers on random small models.

Each shape is a random model from ``support.random_scm`` (some domains start
below zero) with one ``do``, a random rest level and up to two finals whose
goals use every comparison operator.  It is written with ``print_model``,
and ``worlds``, ``intervene``, ``finalize``, ``distinguish`` and ``reduce``
run on it with ``--json`` through ``run_cli``.  Each document is graded
against answers computed world by world in this module and in ``support``:
the enumeration and goal oracles, the Fraction factorization, the trail
d-separation oracle on a final DAG rebuilt from the edge list, and set
differences of world lists.  ``reduce`` is graded against the reduction's
own definition, context by context: the intention fires where the goal is
unmet at rest and some action level meets it, and the action then takes the
least such level; a shape the definition cannot reduce must end in one
``error:`` line and exit 1.  The edges, the action's parents and the
separation flips of ``reduce`` are graded against the projected DAG that
definition implies: each variable listens to the parents its values change
with.  ``identify`` runs on observations drawn from one final's compatible
worlds, sometimes with one surgered world outside them, over the declared
finals and over the enumerated candidates (``candidates_oracle``); each
ranking is graded against the goal filter, the dependence oracle and the
ranking's own rules.
"""

from __future__ import annotations

import itertools
import json
import random

import pytest

from teleo.errors import TeleoError
from teleo.intervention import do_surgery
from teleo.model import CausalDag, IndependenceStatement, Scm
from teleo.render import render_table
from teleo.speclang import CompiledSpec, print_model
from teleo.teleology import Comparison, GoalPredicate, build_final_model

from support import (
    COMPARISONS,
    candidates_oracle,
    dependence_oracle,
    dsep_oracle,
    effective_parents_oracle,
    filter_oracle,
    random_scm,
    reachability_oracle,
    run_cli,
    uniform_oracle,
    worlds_oracle,
)

SHAPES = 200


def _draw_final(rng: random.Random, scm: Scm, mstar, name: str):
    """A final model over one or two descendants of the action, with a goal
    of one or two comparisons whose levels may sit just outside the domain.
    A draw whose goal no level meets, or whose final DAG has a cycle, must
    be refused by ``build_final_model`` and is drawn again, up to five
    times; then None.  Any other draw must build."""
    reach = reachability_oracle(scm.dag.edges)
    descendants = [n for n in scm.names if (mstar.target, n) in reach]
    for _ in range(5):
        effects = rng.sample(descendants, rng.randint(1, min(2, len(descendants))))
        conjuncts = []
        for _ in range(rng.randint(1, 2)):
            var = rng.choice(effects)
            domain = scm.domain(var)
            level = rng.randint(domain[0] - 1, domain[-1] + 1)
            conjuncts.append(Comparison(var, rng.choice(list(COMPARISONS)), level))
        goal = GoalPredicate(conjuncts)
        met = all(
            any(all(COMPARISONS[c.op](v, c.level) for c in conjuncts if c.variable == var)
                for v in scm.domain(var))
            for var in effects
        )
        edges = _final_edges(scm, mstar.target, effects)
        if met and not any(a == b for a, b in reachability_oracle(edges)):
            return build_final_model(mstar, effects, goal, name)
        with pytest.raises(TeleoError):
            build_final_model(mstar, effects, goal, name)
    return None


def _draw_spec(seed: int) -> tuple[CompiledSpec, int | None]:
    """A random spec, and the ``--rest`` to pass (None for none)."""
    rng = random.Random(seed)
    scm = random_scm(rng, max_vars=6, max_levels=3, lowest=-2)
    targets = [n for n in scm.names if scm.dag.children(n)]
    mstar = do_surgery(scm, rng.choice(targets or scm.names))
    finals = {}
    if targets:
        for name in ("f", "g"):
            f = _draw_final(rng, scm, mstar, name)
            if f is not None:
                finals[name] = f
    domain = scm.domain(mstar.target)
    declared = rng.choice([None, *domain])
    passed = rng.choice([None, None, *domain])
    return CompiledSpec(scm, mstar, finals, declared), passed


def _values(worlds) -> list[list[int]]:
    return [list(w.values) for w in worlds]


def _surgered(scm: Scm, target: str) -> Scm:
    """The model after ``do(target)``: its mechanism and inbound edges go."""
    edges = tuple(e for e in scm.dag.edges if e[1] != target)
    mechanisms = {n: m for n, m in scm.mechanisms.items() if n != target}
    return Scm(CausalDag(scm.names, edges), scm.variables, mechanisms)


def _final_edges(scm: Scm, target: str, effects) -> set[tuple[str, str]]:
    """The surgered DAG's edges once the action listens to its intended
    effects: each arrow action -> effect is replaced by effect -> action,
    and an effect further down gains one."""
    edges = {e for e in scm.dag.edges if e[1] != target}
    edges -= {(target, e) for e in effects}
    return edges | {(e, target) for e in effects}


def _final_dag(scm: Scm, target: str, effects) -> CausalDag:
    return CausalDag(scm.names, tuple(sorted(_final_edges(scm, target, effects))))


def _grid(names) -> list[tuple[str, str, tuple[str, ...]]]:
    """Every pair of variables, unconditioned and given each other one."""
    return [
        (x, y, given)
        for x, y in itertools.combinations(names, 2)
        for given in [(), *((w,) for w in names if w not in (x, y))]
    ]


def _statement(x: str, y: str, given) -> IndependenceStatement:
    return IndependenceStatement(x, y, frozenset(given))


def _changes_with(table: dict[tuple, int], position: int) -> bool:
    """Does the value of ``table`` change with the key's item at
    ``position`` while the other items stay fixed?"""
    seen: dict[tuple, int] = {}
    for key, value in table.items():
        if seen.setdefault(key[:position] + key[position + 1:], value) != value:
            return True
    return False


def _run(*args: str) -> dict:
    result = run_cli("--json", *args)
    assert (result.exit_code, result.stderr) == (0, ""), args
    return json.loads(result.stdout)["result"]


def _check_tables(spec, path: str) -> None:
    scm, target = spec.scm, spec.mstar.target
    names = list(scm.names)
    for command, worlds in (
        (("worlds", path), worlds_oracle(scm)),
        (("intervene", path), worlds_oracle(_surgered(scm, target))),
    ):
        doc = _run(*command)
        assert doc["columns"] == names
        assert doc["worlds"] == _values(worlds)
        assert doc["assignments"] == [w.as_dict() for w in worlds]
        human = run_cli(*command).stdout
        assert human == render_table(doc["columns"], doc["worlds"])
    assert doc["target"] == target


def _check_finalize(spec, path: str, name: str, compatible) -> None:
    f = spec.finals[name]
    doc = _run("finalize", path, "--final", name)
    assert (doc["action"], doc["effects"]) == (f.action, list(f.intended_effects))
    assert doc["worlds"] == _values(compatible)
    assert doc["goal_reachable"] == bool(compatible)
    if not compatible:
        assert doc["dependence"] == doc["separation"] == []
        return
    dag = _final_dag(spec.scm, f.action, f.intended_effects)
    cells = _grid(spec.scm.names)
    for key, oracle in (
        ("dependence", lambda stmt: uniform_oracle(compatible, stmt)),
        ("separation", lambda stmt: dsep_oracle(dag, stmt)),
    ):
        got = {(r["x"], r["y"], tuple(r["given"])): r for r in doc[key]}
        assert len(doc[key]) == len(got) and set(got) == set(cells), key
        verdict = "independent" if key == "dependence" else "separated"
        for cell, record in got.items():
            assert record[verdict] == oracle(_statement(*cell)), (key, cell)


def _check_distinguish(path: str, names, compatible) -> None:
    doc = _run("distinguish", path, "--final", names[0], "--final", names[1])
    first, second = (set(map(tuple, _values(compatible[n]))) for n in names)
    assert doc["only_first"] == sorted(map(list, first - second))
    assert doc["only_second"] == sorted(map(list, second - first))
    assert doc["distinguishable"] == (first != second)


def _reduction_oracle(spec, name: str, rest: int, surgered):
    """The reduction of final ``name`` read off the surgered worlds, context
    by context: ``(error, rows, action levels, surgered world by context and
    level)``, with ``error`` the start of the message a shape the
    definition cannot reduce is refused with, else None."""
    f = spec.finals[name]
    scm, action = spec.scm, f.action
    context = [n for n in scm.dag.exogenous() if n != action]
    goal_vars = [n for n in scm.names if n in f.goal.variables]
    levels = scm.domain(action)
    world = {}
    for w in surgered:
        world[tuple(w[n] for n in context), w[action]] = w
    contexts = sorted({ctx for ctx, _ in world})

    def meets(ctx, level) -> bool:
        return bool(filter_oracle([world[ctx, level]], f.goal))

    achieving = {ctx: [a for a in levels if meets(ctx, a)] for ctx in contexts}
    fires = {ctx: bool(achieving[ctx]) and not meets(ctx, rest) for ctx in contexts}
    pre = {ctx: tuple(world[ctx, rest][g] for g in goal_vars) for ctx in contexts}
    least = {achieving[ctx][0] for ctx in contexts if fires[ctx]}
    if not any(achieving.values()):
        return f"goal {f.goal} is not achievable", None, None, world
    if not context:
        return "no exogenous context to carry", None, None, world
    if any(fires[a] != fires[b] for a in contexts for b in contexts if pre[a] == pre[b]):
        return "intention is not a function", None, None, world
    if len(least) > 1:
        return "no single action level realizes", None, None, world
    act_on = min(least, default=rest)
    chosen = {ctx: act_on if fires[ctx] else rest for ctx in contexts}
    rows = []
    for ctx in contexts:
        after = world[ctx, chosen[ctx]]
        row = after.as_dict()
        row.update({f"{g}0": world[ctx, rest][g] for g in goal_vars})
        row.update({f"{g}1": after[g] for g in goal_vars})
        row["I"] = int(fires[ctx])
        for g in goal_vars:
            del row[g]
        rows.append(row)
    return None, rows, chosen, world


def _check_reduce(spec, path: str, name: str, passed, compatible, surgered) -> None:
    f = spec.finals[name]
    scm, action = spec.scm, f.action
    rest = next(r for r in (passed, spec.rest, scm.domain(action)[0]) if r is not None)
    args = ("reduce", path, "--final", name)
    if passed is not None:
        args += ("--rest", str(passed))
    error, rows, chosen, world = _reduction_oracle(spec, name, rest, surgered)
    result = run_cli("--json", *args)
    if error is not None:
        assert (result.exit_code, result.stdout) == (1, ""), error
        assert result.stderr.startswith(f"error: {error}")
        assert result.stderr.count("\n") == 1
        return
    assert (result.exit_code, result.stderr) == (0, "")
    doc = json.loads(result.stdout)["result"]
    assert (doc["action"], doc["rest"]) == (action, rest)
    columns = doc["columns"]
    assert sorted(columns) == sorted(rows[0])
    assert doc["worlds"] == sorted(map(list, {tuple(r[c] for c in columns) for r in rows}))

    # the projection: the reduction's worlds on the base variables, the goal
    # variables read from their post-action copies
    names = scm.names
    post = {n: f"{n}1" if n in f.goal.variables else n for n in names}
    reduced = {tuple(r[post[n]] for n in names) for r in rows}
    final = set(map(tuple, _values(compatible)))
    projection = doc["projection"]
    assert projection["columns"] == list(names)
    assert projection["worlds_only_reduction"] == sorted(map(list, reduced - final))
    assert projection["worlds_only_final"] == sorted(map(list, final - reduced))
    relation = "diverges" if reduced - final else "subset" if final - reduced else "equal"
    assert projection["relation"] == relation

    # the projected DAG: the action listens to the context variables its
    # level changes with, each goal variable to those of the context and the
    # action it changes with, any other variable to the parents its table
    # changes with
    context = [n for n in scm.dag.exogenous() if n != action]
    edges = {(p, action) for i, p in enumerate(context)
             if _changes_with(chosen, i)}
    for g in f.goal.variables:
        table = {(*ctx, level): w[g] for (ctx, level), w in world.items()}
        edges |= {(p, g) for i, p in enumerate([*context, action])
                  if _changes_with(table, i)}
    for n in scm.names:
        if n != action and n not in f.goal.variables and n in scm.mechanisms:
            edges |= {(p, n) for p in effective_parents_oracle(scm, n)}
    final_dag = _final_dag(scm, action, f.intended_effects)
    projected = CausalDag(scm.names, tuple(sorted(edges)))
    structure = doc["structure"]
    shared = set(map(tuple, structure["edges_shared"]))
    assert shared | set(map(tuple, structure["edges_only_final"])) == set(final_dag.edges)
    assert shared | set(map(tuple, structure["edges_only_reduction"])) == edges
    listens_final = {p for p, c in final_dag.edges if c == action}
    listens_reduction = {p for p, c in edges if c == action}
    assert set(structure["action_listens_final"]) == listens_final
    assert set(structure["action_listens_reduction"]) == listens_reduction
    assert structure["action_wiring_differs"] == (
        bool(listens_reduction) and listens_reduction != listens_final
    )
    flips = set()
    for cell in _grid(names):
        stmt = _statement(*cell)
        sep_f, sep_r = dsep_oracle(final_dag, stmt), dsep_oracle(projected, stmt)
        if sep_f != sep_r:
            flips.add((*cell, sep_f, sep_r))
    got = {
        (r["x"], r["y"], tuple(r["given"]), r["final_separated"], r["reduction_separated"])
        for r in structure["dsep_disagreements"]
    }
    assert got == flips and len(structure["dsep_disagreements"]) == len(flips)


@pytest.mark.parametrize("seed", range(SHAPES))
def test_every_command_answers_as_the_oracles_do(tmp_path, seed):
    spec, passed = _draw_spec(seed)
    path = tmp_path / "model.tele"
    path.write_text(print_model(spec))
    path = str(path)
    _check_tables(spec, path)
    if not spec.finals:
        return
    surgered = worlds_oracle(_surgered(spec.scm, spec.mstar.target))
    compatible = {n: filter_oracle(surgered, f.goal) for n, f in spec.finals.items()}
    for name in spec.finals:
        _check_finalize(spec, path, name, compatible[name])
        _check_reduce(spec, path, name, passed, compatible[name], surgered)
    names = [*spec.finals, *spec.finals][:2]
    _check_distinguish(path, names, compatible)


def _draw_observations(rng: random.Random, surgered, compatible) -> dict[tuple, int]:
    """Rows and counts drawn from one final's compatible worlds (every
    surgered world when no final has any), and in a third of the draws one
    surgered world outside them: ``{values: count}``."""
    pool = rng.choice([w for w in compatible.values() if w] or [surgered])
    values = [rng.choice(pool).values for _ in range(rng.randint(1, 6))]
    outside = [w.values for w in surgered if w not in pool]
    if outside and rng.random() < 1 / 3:
        values.append(rng.choice(outside))
    counts: dict[tuple, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + rng.randint(1, 4)
    return counts


def _write_observations(rng: random.Random, path, names, counts) -> None:
    """The observations as CSV, columns shuffled, one line per row with
    its count."""
    header = rng.sample(list(names), len(names))
    lines = [",".join([*header, "count"])]
    for values, count in counts.items():
        level = dict(zip(names, values))
        lines.append(",".join([*(str(level[n]) for n in header), str(count)]))
    path.write_text("\n".join(lines) + "\n")


def _ranking_oracle(candidates, surgered, names, counts) -> dict:
    """The ``identify`` result for ``(label, goal)`` candidates: support
    and dependence read world by world, then the ranking's rules: the
    support-compatible first, then the fewest compatible worlds, ties in
    candidate order; one class per distinct compatible set, numbered in
    rank order; a winner, a tie at the smallest count, or none (exit 2)."""
    rows = list(counts.items())
    entries = []
    for label, goal in candidates:
        worlds = filter_oracle(surgered, goal)
        inside = {w.values for w in worlds}
        checks = []
        for x, y in itertools.combinations(names, 2) if worlds else ():
            c = dependence_oracle(worlds, names, rows, _statement(x, y, ()))
            checks.append({
                "x": x, "y": y, "given": [],
                "expected_independent": c.expected_independent,
                "observed_independent": c.observed_independent,
                "agree": c.expected_independent == c.observed_independent,
                "skipped_strata": [list(s) for s in c.skipped_strata],
            })
        violating = sorted(map(list, set(counts) - inside))
        entries.append((frozenset(inside), {
            "name": label,
            "support_compatible": not violating,
            "compatible_world_count": len(worlds),
            "violating_rows": violating,
            "dependence_checks": checks,
            "compatible": not violating and all(c["agree"] for c in checks),
        }))
    order = sorted(
        range(len(entries)),
        key=lambda i: (not entries[i][1]["support_compatible"],
                       entries[i][1]["compatible_world_count"], i),
    )
    classes: dict[frozenset, int] = {}
    ranking = []
    for rank, i in enumerate(order, start=1):
        inside, entry = entries[i]
        cls = classes.setdefault(inside, len(classes) + 1)
        ranking.append({"rank": rank, "equivalence_class": cls, **entry})
    survivors = [e for e in ranking if e["support_compatible"]]
    top = [e["name"] for e in survivors
           if e["compatible_world_count"] == survivors[0]["compatible_world_count"]]
    winner, tied, code = None, [], 2
    if len(top) == 1:
        winner, code = top[0], 0
    elif top:
        tied, code = top, 3
    return {
        "observations": sum(counts.values()),
        "columns": list(names),
        "ranking": ranking,
        "winner": winner,
        "tied": tied,
        "exit_code": code,
    }


def _check_identify(args, candidates, surgered, names, counts, diagnostics=()) -> None:
    result = run_cli("--json", *args)
    doc = json.loads(result.stdout)
    expected = _ranking_oracle(candidates, surgered, names, counts)
    assert (result.exit_code, result.stderr) == (expected["exit_code"], ""), args
    assert doc["result"] == expected, args
    assert doc["diagnostics"] == list(diagnostics)


@pytest.mark.parametrize("seed", range(SHAPES))
def test_identify_ranks_as_the_oracles_do(tmp_path, seed):
    spec, _ = _draw_spec(seed)
    if not spec.finals:
        return
    rng = random.Random(f"identify {seed}")
    path = tmp_path / "model.tele"
    path.write_text(print_model(spec))
    names = spec.scm.names
    surgered = worlds_oracle(_surgered(spec.scm, spec.mstar.target))
    compatible = {n: filter_oracle(surgered, f.goal) for n, f in spec.finals.items()}
    counts = _draw_observations(rng, surgered, compatible)
    data = tmp_path / "obs.csv"
    _write_observations(rng, data, names, counts)
    declared = [(n, f.goal) for n, f in spec.finals.items()]
    args = ("identify", str(path), str(data))
    _check_identify(args, declared, surgered, names, counts)
    max_effects = rng.choice([1, 2])
    finals, skipped = candidates_oracle(spec.mstar, max_effects)
    _check_identify(
        (*args, "--enumerate", "--max-effects", str(max_effects)),
        [(f.label, f.goal) for f in finals],
        surgered,
        names,
        counts,
        [f"skipped candidate {label}: {exc}" for label, exc in skipped],
    )
