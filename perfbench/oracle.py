"""Independent checks of teleo's JSON answers on generated inputs.

The benchmark does not trust the program to grade itself.  These checks
recompute each answer from the generator's own model data, with code that
shares nothing with the package: a direct world evaluator, a counting
independence test and a moral-graph d-separation test.  Each check returns
a list of problems; an empty list means the document is correct.
"""

from __future__ import annotations

import itertools
from collections import Counter

from gen import ACTION, GOAL, Inputs, Model


def _independent(rows, x: int, y: int, given: tuple[int, ...], weights=None) -> bool:
    """Exact factorization of columns x and y in every stratum of ``given``."""
    weights = weights or [1] * len(rows)
    strata: dict[tuple, list] = {}
    for row, wt in zip(rows, weights):
        strata.setdefault(tuple(row[g] for g in given), []).append((row[x], row[y], wt))
    for cells in strata.values():
        n, joint, mx, my = 0, Counter(), Counter(), Counter()
        for a, b, wt in cells:
            n += wt
            joint[a, b] += wt
            mx[a] += wt
            my[b] += wt
        if any(n * joint[a, b] != mx[a] * my[b] for a in mx for b in my):
            return False
    return True


def _d_separated(parents: dict[str, tuple[str, ...]], x: str, y: str, given) -> bool:
    """Lauritzen's criterion: separation in the moralized ancestral graph."""
    anc: set[str] = set()
    stack = [x, y, *given]
    while stack:
        v = stack.pop()
        if v not in anc:
            anc.add(v)
            stack.extend(parents.get(v, ()))
    adj: dict[str, set[str]] = {v: set() for v in anc}
    for c in anc:
        ps = parents.get(c, ())
        for p in ps:
            adj[p].add(c)
            adj[c].add(p)
        for p, q in itertools.combinations(ps, 2):
            adj[p].add(q)
            adj[q].add(p)
    seen, stack = {x}, [x]
    while stack:
        for w in adj[stack.pop()]:
            if w == y:
                return False
            if w not in seen and w not in given:
                seen.add(w)
                stack.append(w)
    return True


def _worlds_with(m: Model, fixed: dict[str, int]) -> list[tuple[int, ...]]:
    """Worlds of the model with some exogenous variables held fixed."""
    sub = Model(
        {n: ((fixed[n],) if n in fixed else d) for n, d in m.domains.items()},
        m.parents,
        m.tables,
    )
    return sub.worlds()


def check_finalize(inp: Inputs, doc: dict) -> list[str]:
    m = inp.model
    names = list(m.domains)
    res = doc["result"]
    problems = []
    compat = [w for w in m.worlds() if w[names.index(GOAL)] == 1]
    if not res["goal_reachable"] or res["worlds"] != [list(w) for w in compat]:
        problems.append("compatible worlds differ")
    final_parents = dict(m.parents)
    final_parents[GOAL] = tuple(p for p in m.parents[GOAL] if p != ACTION)
    final_parents[ACTION] = (GOAL,)
    grid = sorted(
        (x, y, given)
        for x, y in itertools.combinations(names, 2)
        for given in [(), *((w,) for w in names if w not in (x, y))]
    )
    for key in ("dependence", "separation"):
        got = sorted((s["x"], s["y"], tuple(s["given"])) for s in res[key])
        if got != grid:
            problems.append(f"{key} statements are not the {len(grid)} of the grid")
    idx = {v: i for i, v in enumerate(names)}
    for dep, sep in zip(res["dependence"], res["separation"]):
        x, y, given = dep["x"], dep["y"], tuple(dep["given"])
        if (sep["x"], sep["y"], tuple(sep["given"])) != (x, y, given):
            problems.append(f"statement order differs at {x},{y}|{given}")
        elif dep["independent"] != _independent(compat, idx[x], idx[y], tuple(idx[g] for g in given)):
            problems.append(f"independence verdict wrong for {x},{y}|{given}")
        elif sep["separated"] != _d_separated(final_parents, x, y, set(given)):
            problems.append(f"separation verdict wrong for {x},{y}|{given}")
    return problems


def check_identify(inp: Inputs, doc: dict, exit_code: int) -> list[str]:
    m = inp.model
    names = list(m.domains)
    idx = {v: i for i, v in enumerate(names)}
    res = doc["result"]
    problems = []
    data = dict(inp.data_rows)
    if res["observations"] != sum(data.values()) or res["columns"] != names:
        problems.append("dataset summary differs")
    worlds = m.worlds()
    rows = sorted(data)
    weights = [data[r] for r in rows]
    for entry in res["ranking"]:
        var, level = entry["name"].split("[")[0].split("=")
        compat = [w for w in worlds if w[idx[var]] == int(level)]
        allowed = set(compat)
        support = all(r in allowed for r in rows)
        if entry["compatible_world_count"] != len(compat) or entry["support_compatible"] != support:
            problems.append(f"support verdict wrong for {entry['name']}")
            continue
        checks = entry["dependence_checks"]
        if len(checks) != len(names) * (len(names) - 1) // 2:
            problems.append(f"dependence grid incomplete for {entry['name']}")
        for c in checks:
            x, y = idx[c["x"]], idx[c["y"]]
            if (c["expected_independent"], c["observed_independent"]) != (
                _independent(compat, x, y, ()), _independent(rows, x, y, (), weights)
            ):
                problems.append(f"dependence check wrong for {entry['name']}: {c['x']},{c['y']}")
    survivors = [e for e in res["ranking"] if e["support_compatible"]]
    best = [e for e in survivors if e["compatible_world_count"] == survivors[0]["compatible_world_count"]] if survivors else []
    want = 2 if not survivors else (0 if len(best) == 1 else 3)
    if res["exit_code"] != want or exit_code != want:
        problems.append(f"exit code {exit_code} where {want} is due")
    return problems


def check_reduce(inp: Inputs, doc: dict) -> list[str]:
    m = inp.model
    names = list(m.domains)
    goal_at = names.index(GOAL)
    context = [n for n in m.exogenous() if n != ACTION]
    others = [n for n in names if n not in context and n not in (ACTION, GOAL)]
    res = doc["result"]
    problems = []
    if res["columns"] != [*context, f"{GOAL}0", "I", ACTION, f"{GOAL}1", *others]:
        problems.append("reduction columns differ")
    rows, projected = [], set()
    for combo in itertools.product(*(m.domains[n] for n in context)):
        fixed = dict(zip(context, combo))
        (at_rest,) = _worlds_with(m, {**fixed, ACTION: 0})
        fires = int(at_rest[goal_at] != 1)
        (after,) = _worlds_with(m, {**fixed, ACTION: fires})
        row = dict(zip(names, after))
        rows.append([*combo, at_rest[goal_at], fires, fires, after[goal_at],
                     *(row[n] for n in others)])
        projected.add(after)
    if res["worlds"] != sorted(rows):
        problems.append("reduction worlds differ")
    compat = {w for w in m.worlds() if w[goal_at] == 1}
    only_final = sorted(compat - projected)
    relation = "equal" if not only_final else "subset"
    proj = res["projection"]
    if projected - compat or proj["relation"] != relation or proj["worlds_only_final"] != [
        list(w) for w in only_final
    ]:
        problems.append("projection onto the base variables differs")
    return problems


def check(inp: Inputs, doc: dict, exit_code: int) -> list[str]:
    """Problems with one command's JSON document; empty when it is right."""
    if inp.workload == "identify_enumerate":
        return check_identify(inp, doc, exit_code)
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if inp.workload == "finalize_grid":
        return check_finalize(inp, doc)
    return check_reduce(inp, doc)
