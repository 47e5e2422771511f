"""Child-process probes: set-up timing, host speed, and the traced command run.

    python3 perfbench/probe.py setup SPEC [DATA]
    python3 perfbench/probe.py reference
    python3 perfbench/probe.py trace OUT.json -- TELEO-ARGS...

`setup` does what every teleo command does before its own work: import
`teleo.cli`, compile the spec with `speclang.load_model`, and load the
dataset when there is one.  The caller times the whole process.

`reference` does a fixed amount of pure-Python work of the kind teleo's
exact core does (tuples, counting, fractions) and imports nothing from
teleo, so no change to teleo can move its time.  The caller times it to
measure how fast the host runs at that moment; it exits 1 if its answer is
wrong.

`trace` wraps the public functions of every layer with span recorders,
runs the command in-process exactly as the `teleo` script would, and writes
the spans' per-function summary to OUT.json.  The command's own output goes
to standard output untouched, so its digest can be compared with the
untraced run's.  Wrappers go on every module namespace that binds a
function, including `from ... import` bindings, so inner calls are traced
too.  A function that a layer no longer has is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

# (module, function) pairs whose calls become spans.  A pair the package no
# longer defines is reported as absent rather than failing the run, and no
# optional module (such as a compiled kernel) is imported by name.
TRACED = [
    ("speclang", "load_model"),
    ("model", "enumerate_worlds"),
    ("model", "uniform_independent"),
    ("model", "CausalDag.topological_order"),
    ("intervention", "enumerate_worlds_star"),
    ("teleology", "build_final_model"),
    ("teleology", "compatible_worlds"),
    ("teleology", "implied_dependencies"),
    ("teleology", "enumerate_goal_hypotheses"),
    ("dsep", "d_separated"),
    ("identification", "load_dataset"),
    ("identification", "check_support"),
    ("identification", "check_dependence"),
    ("identification", "rank_hypotheses"),
    ("reduction", "build_reduction"),
    ("reduction", "compare_structures"),
    ("reduction", "project_reduction"),
    ("reduction", "reduction_worlds"),
]

# Functions whose results' lengths are summed: world rows, candidates.
ROWS = {"model.enumerate_worlds", "teleology.enumerate_goal_hypotheses"}


def setup(spec: str, data: str | None = None) -> None:
    import teleo.cli  # noqa: F401 - every command pays for this import
    from teleo.identification import load_dataset
    from teleo.speclang import load_model

    compiled = load_model(Path(spec).read_text(encoding="utf-8"))
    if data is not None:
        load_dataset(Path(data).read_text(encoding="utf-8"), compiled.scm)


REFERENCE_ANSWER = 270336


def reference() -> int:
    worlds = list(itertools.product(range(2), repeat=12))
    total = 0
    for i in range(12):
        for j in range(i + 1, 12):
            counts = Counter((w[i], w[j]) for w in worlds if w[(i + j) % 12])
            shares = {k: Fraction(v, len(worlds)) for k, v in counts.items()}
            total += sum(counts.values()) * sum(shares.values()).denominator
    return 0 if total == REFERENCE_ANSWER else 1


class Recorder:
    """Spans in memory: name, start, end, parent index; plus work counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.failed: Counter = Counter()
        self.rows: Counter = Counter()
        self.arguments: dict[str, set[int]] = defaultdict(set)

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        counts_rows = name in ROWS
        counts_arguments = name == "teleology.compatible_worlds"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.failed[name] += 1
                raise
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if counts_rows:
                self.rows[name] += len(out)
            elif counts_arguments:
                self.arguments[name].add(id(args[0]))
            return out

        return traced

    def summary(self) -> dict:
        calls: Counter = Counter()
        self_s: Counter = Counter()
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for (name, start, end, _), inner in zip(self.spans, child_s):
            calls[name] += 1
            self_s[name] += end - start - inner
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "failed": dict(self.failed),
            "rows": dict(self.rows),
            "distinct": {k: len(v) for k, v in self.arguments.items()},
        }


def install(rec: Recorder) -> list[str]:
    """Wrap every traced function wherever a teleo module binds it.

    Returns the traced names the package does not define.
    """
    absent = []
    modules = [m for n, m in list(sys.modules.items()) if n == "teleo" or n.startswith("teleo.")]
    for mod_name, attr in TRACED:
        name = f"{mod_name}.{attr}"
        try:
            owner = importlib.import_module(f"teleo.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, rec.wrap(name, getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            absent.append(name)
            continue
        wrapper = rec.wrap(name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    return absent


def trace(out: str, argv: list[str]) -> int:
    import teleo.cli

    rec = Recorder()
    absent = install(rec)
    root = rec.wrap("cli", teleo.cli.cli.main)
    code = 0
    try:
        root(args=argv, prog_name="teleo")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    doc = rec.summary()
    doc["absent"] = absent
    doc["exit_code"] = code
    Path(out).write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    return code


def main() -> int:
    mode, *rest = sys.argv[1:]
    if mode == "setup":
        setup(*rest)
        return 0
    if mode == "reference":
        return reference()
    out, sep, *argv = rest
    if sep != "--":
        raise SystemExit("usage: probe.py trace OUT.json -- TELEO-ARGS...")
    return trace(out, argv)


if __name__ == "__main__":
    sys.exit(main())
