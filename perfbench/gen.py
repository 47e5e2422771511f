#!/usr/bin/env python3
"""Seeded input generator for the teleo benchmark.

Each workload turns a seed into one `.tele` model spec (and, for
`identify_enumerate`, one CSV dataset) plus the `teleo` command line that
runs on them.  The same workload and seed always give byte-identical files.
The generator also keeps the model as plain Python data, so the benchmark
can check the program's answers against its own small evaluator.

    python3 perfbench/gen.py --workload reduce_ternary --seed 7 --out /tmp/in

Every model is built so that its command does real work on every seed:

- the goal is always reachable, so `finalize` never takes its early exit;
- the goal variable's parents are the action and exogenous variables only,
  with a table that fixes the share of worlds meeting the goal, and every
  other mechanism has the same number of parents, so the amount of work
  does not drift with the seed;
- in `reduce_ternary` action level 1 forces the goal, so `build_reduction`
  always succeeds and never stops at its documented `ReductionError`.
"""

from __future__ import annotations

import argparse
import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path

# Generator parameters per workload.  BENCHMARK.json says why each workload
# is in the benchmark; keep its descriptions in step with these numbers.
WORKLOADS = {
    "finalize_grid": {
        "context": 9, "endogenous": 7, "domain": 2,
        "goal_parents": 3, "goal_rows": 1, "parents": 2,
    },
    "identify_enumerate": {
        "context": 6, "endogenous": 1, "domain": 2, "goal_rows": 3,
        "parents": 2, "distinct_rows": 80, "max_count": 5, "max_effects": 2,
    },
    "reduce_ternary": {
        "context": 7, "endogenous": 9, "domain": 3, "action_domain": 2,
        "goal_parents": 2, "met_at_rest": 3, "parents": 2,
    },
}

ACTION = "A"
GOAL = "G"


@dataclass
class Model:
    """A generated model as plain data, in declaration order."""

    domains: dict[str, tuple[int, ...]] = field(default_factory=dict)
    parents: dict[str, tuple[str, ...]] = field(default_factory=dict)
    tables: dict[str, dict[tuple[int, ...], int]] = field(default_factory=dict)
    finals: list[tuple[str, str, str, int]] = field(default_factory=list)

    def add(self, name, domain, parents=(), table=None):
        self.domains[name] = tuple(domain)
        if parents:
            self.parents[name] = tuple(parents)
            self.tables[name] = table

    def exogenous(self) -> list[str]:
        return [n for n in self.domains if n not in self.parents]

    def worlds(self) -> list[tuple[int, ...]]:
        """Every world of the model, action free, in lexicographic order.

        Variables are declared after their parents, so one pass in
        declaration order evaluates every mechanism.
        """
        exo = self.exogenous()
        names = list(self.domains)
        out = []
        for combo in itertools.product(*(self.domains[n] for n in exo)):
            a = dict(zip(exo, combo))
            for n in names:
                if n not in a:
                    a[n] = self.tables[n][tuple(a[p] for p in self.parents[n])]
            out.append(tuple(a[n] for n in names))
        return sorted(out)

    def spec(self) -> str:
        lines = ["# generated by perfbench/gen.py"]
        for n, d in self.domains.items():
            lines.append(f"var {n} in {d[0]}..{d[-1]}")
        for c, ps in self.parents.items():
            lines.extend(f"edge {p} -> {c}" for p in ps)
        for c, ps in self.parents.items():
            rows = "; ".join(
                f"({', '.join(map(str, k))})->{v}" for k, v in sorted(self.tables[c].items())
            )
            lines.append(f"mech {c} = table({', '.join(ps)}) {{ {rows} }}")
        lines += [f"do {ACTION}", f"rest {ACTION} = 0"]
        for name, effect, var, level in self.finals:
            lines.append(f"final {name} {{ effects: {effect}; goal: {var} = {level} }}")
        return "\n".join(lines) + "\n"


def _random_table(rng, parent_domains, domain):
    return {
        k: rng.choice(domain) for k in itertools.product(*parent_domains)
    }


def _planted_table(rng, parent_domains, ones: int):
    """Binary table over the parents with exactly ``ones`` rows mapping to 1.

    The parents are exogenous, so exactly ``ones / rows`` of all worlds have
    the child at 1, whatever the seed.  The first parent is the action, and
    the table is redrawn until the child depends on it.
    """
    keys = list(itertools.product(*parent_domains))
    while True:
        hot = set(rng.sample(range(len(keys)), ones))
        table = {k: int(i in hot) for i, k in enumerate(keys)}
        if any(table[k] != table[(1 - k[0],) + k[1:]] for k in keys):
            return table


def _add_endogenous(rng, m: Model, names, domain, parents, pool):
    """Endogenous variables, each with ``parents`` random parents drawn from
    ``pool``, which grows as they are added, and a random total table.  The
    number of parents is fixed because the edge count and the table sizes
    set the cost of every command."""
    pool = list(pool)
    for n in names:
        ps = rng.sample(pool, parents)
        m.add(n, domain, ps, _random_table(rng, [m.domains[p] for p in ps], domain))
        pool.append(n)


@dataclass
class Inputs:
    """Files a workload writes, the command it runs, and the model behind it."""

    workload: str
    seed: int
    model: Model
    args: list[str]  # teleo arguments; "{spec}" and "{data}" stand for the files
    data_rows: list[tuple[tuple[int, ...], int]] | None = None

    def write(self, out: Path) -> list[str]:
        """Write the input files into ``out``; return the teleo arguments."""
        out.mkdir(parents=True, exist_ok=True)
        spec = out / f"{self.workload}-{self.seed}.tele"
        spec.write_text(self.model.spec(), encoding="utf-8")
        paths = {"{spec}": str(spec)}
        if self.data_rows is not None:
            data = out / f"{self.workload}-{self.seed}.csv"
            header = ",".join(self.model.domains) + ",count"
            body = [",".join(map(str, v)) + f",{c}" for v, c in self.data_rows]
            data.write_text("\n".join([header, *body]) + "\n", encoding="utf-8")
            paths["{data}"] = str(data)
        return [paths.get(a, a) for a in self.args]


def finalize_grid(seed: int) -> Inputs:
    p = WORKLOADS["finalize_grid"]
    rng = random.Random(f"finalize_grid:{seed}")
    m = Model()
    binary = tuple(range(p["domain"]))
    context = [f"U{i}" for i in range(1, p["context"] + 1)]
    for n in context:
        m.add(n, binary)
    m.add(ACTION, binary)
    gp = [ACTION, *rng.sample(context, p["goal_parents"])]
    m.add(GOAL, binary, gp, _planted_table(rng, [binary] * len(gp), p["goal_rows"]))
    _add_endogenous(
        rng, m, [f"X{i}" for i in range(1, p["endogenous"] + 1)], binary,
        p["parents"], [*context, ACTION, GOAL],
    )
    m.finals.append(("f0", GOAL, GOAL, 1))
    return Inputs("finalize_grid", seed, m, ["finalize", "{spec}", "--final", "f0"])


def identify_enumerate(seed: int) -> Inputs:
    """The action has exactly two children, both leaves with planted tables,
    so enumeration always yields the same 8 candidates.  The data are drawn
    from the compatible worlds of the planted hypothesis D1 = 1."""
    p = WORKLOADS["identify_enumerate"]
    rng = random.Random(f"identify_enumerate:{seed}")
    m = Model()
    binary = tuple(range(p["domain"]))
    context = [f"U{i}" for i in range(1, p["context"] + 1)]
    for n in context:
        m.add(n, binary)
    m.add(ACTION, binary)
    _add_endogenous(
        rng, m, [f"X{i}" for i in range(1, p["endogenous"] + 1)], binary,
        p["parents"], context,
    )
    for child, parent in zip(("D1", "D2"), rng.sample(context, 2)):
        m.add(child, binary, (ACTION, parent), _planted_table(rng, [binary, binary], p["goal_rows"]))
    names = list(m.domains)
    d1 = names.index("D1")
    planted = [w for w in m.worlds() if w[d1] == 1]
    rows = rng.sample(planted, p["distinct_rows"])
    data = [(w, rng.randint(1, p["max_count"])) for w in rows]
    args = ["identify", "{spec}", "{data}", "--enumerate",
            "--max-effects", str(p["max_effects"])]
    return Inputs("identify_enumerate", seed, m, args, data)


def reduce_ternary(seed: int) -> Inputs:
    """Ternary context, binary action with rest 0.  The goal G = 1 is forced
    by action level 1, so the intention is a function of the pre-action goal
    and one action level realizes it.  At rest the goal holds in a fixed
    number of the goal's parent contexts, which fixes the size of the
    answer."""
    p = WORKLOADS["reduce_ternary"]
    rng = random.Random(f"reduce_ternary:{seed}")
    m = Model()
    ternary = tuple(range(p["domain"]))
    context = [f"U{i}" for i in range(1, p["context"] + 1)]
    for n in context:
        m.add(n, ternary)
    m.add(ACTION, tuple(range(p["action_domain"])))
    gp = [ACTION, *rng.sample(context, p["goal_parents"])]
    at_rest = list(itertools.product(*([ternary] * p["goal_parents"])))
    met = set(rng.sample(at_rest, p["met_at_rest"]))
    table = {(1, *k): 1 for k in at_rest}
    table.update({(0, *k): 1 if k in met else rng.choice((0, 2)) for k in at_rest})
    m.add(GOAL, ternary, gp, table)
    _add_endogenous(
        rng, m, [f"X{i}" for i in range(1, p["endogenous"] + 1)], ternary,
        p["parents"], [*context, ACTION, GOAL],
    )
    m.finals.append(("g", GOAL, GOAL, 1))
    return Inputs("reduce_ternary", seed, m, ["reduce", "{spec}", "--final", "g"])


GENERATORS = {
    "finalize_grid": finalize_grid,
    "identify_enumerate": identify_enumerate,
    "reduce_ternary": reduce_ternary,
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(GENERATORS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    print(" ".join(["teleo", "--json", *GENERATORS[args.workload](args.seed).write(args.out)]))


if __name__ == "__main__":
    main()
