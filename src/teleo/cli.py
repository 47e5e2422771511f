"""Command-line surface: world tables, hypotheses, verdicts.

All verdicts go to standard output; diagnostics and errors go to standard
error.  Exit codes: 0 success, 1 any usage, model or data error.  The
``identify`` command additionally uses 0 / 2 / 3 as its verdict contract:
unique most-specific compatible hypothesis / none compatible / tied.

``--json`` swaps the human tables for one JSON document with stable keys
``command``, ``result`` and ``diagnostics``.

The commands are one table: each ``@_command`` registration names its
positionals and its ``_opt`` options, and ``_Cli.parse`` reads the command
line from that table by hand, with argparse's grammar and ``error:`` lines.
Global flags come before the command, and one ``--`` ends them.  After it,
options and positionals mix, an option's value follows it or ``=``, a value
starts with ``-`` only as a negative number, a repeated option keeps its
last value, and ``--`` makes every later token positional.
"""

from __future__ import annotations

import gc
import itertools
import os
import re
import sys
from operator import itemgetter
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterable

from teleo import __version__
from teleo.errors import TeleoError
from teleo.identification import load_dataset, rank_hypotheses, summarize_ranking
from teleo.intervention import do_surgery, enumerate_worlds_star
from teleo.model import WorldTable, enumerate_worlds
from teleo.reduction import build_reduction, compare_structures, reduction_worlds
from teleo.render import Records, json_chunks, render_table
from teleo.speclang import CompiledSpec, load_model
from teleo.teleology import (
    compatible_worlds,
    distinguishable,
    enumerate_goal_hypotheses,
    implied_dependencies,
)


def _opt(flag: str, dest: str, help: str, kind: type = str, required: bool = False):
    """An option: ``kind`` is ``str`` or ``int`` for a value, ``list`` for a
    value appended at each use, ``bool`` for a flag."""
    return flag, (dest, kind, required, help)


_HELP = (None, bool, False, "show this help message and exit")
# argparse's test for a token that is a negative number, so a value; re
# compiles it on first use, which a command line of known options never is
_NEGATIVE = r"^-\d+$|^-\d*\.\d+$"


class _Cli:
    """The command table and its parser."""

    def __init__(self, description: str, *flags: tuple):
        self.description = description
        self.flags = {"-h": _HELP, "--help": _HELP, **dict(flags)}
        self.commands: dict[str, tuple[Callable, list[str], dict[str, tuple]]] = {}

    def command(self, *arguments):
        """Register ``run(args) -> exit code`` as the command ``<run>`` taking
        ``arguments``: its positionals' names, then its ``_opt`` options."""

        def register(run: Callable[[SimpleNamespace], int | None]):
            options = {"-h": _HELP, "--help": _HELP}
            options.update(a for a in arguments if not isinstance(a, str))
            positionals = [a for a in arguments if isinstance(a, str)]
            self.commands[run.__name__] = (run, positionals, options)
            return run

        return register

    def error(self, message: str):
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)

    def exit(self, text: str):
        sys.stdout.write(text)
        sys.exit(0)

    def parse(self, argv: list[str], prog: str = "teleo") -> SimpleNamespace:
        """The command of ``argv`` as its ``run`` function, with ``json`` and
        the command's values by destination; help (naming the program
        ``prog``), version and errors exit."""
        head = list(itertools.takewhile(lambda t: t[:1] == "-" and t != "--", argv))
        for token in head:
            if token not in self.flags:
                self.error(f"unrecognized arguments: {token}")
        for token in head:  # the first of help and version acts
            if token != "--json":
                version = f"teleo, version {__version__}\n"
                self.exit(version if token == "--version" else self.help(prog))
        rest = argv[len(head):]
        rest = rest[rest[:1] == ["--"]:]  # one "--" ends the flags
        if rest[-1:] == ["--"] and "--" not in rest[:-1]:  # a final "--" ends nothing
            rest.pop()
        if not rest:
            self.error("the following arguments are required: COMMAND")
        if rest[0] not in self.commands:
            choices = ", ".join(map(repr, self.commands))
            self.error(f"argument COMMAND: invalid choice: {rest[0]!r} "
                       f"(choose from {choices})")
        run, positionals, options = self.commands[rest[0]]
        args = {"json": "--json" in head, "run": run}
        for dest, kind, _, _ in options.values():
            if dest:
                args[dest] = kind() if kind in (list, bool) else None
        tokens = rest[1:]
        end = tokens.index("--") if "--" in tokens else len(tokens)  # then all positional
        shapes = [self._shape(token, options) for token in tokens[:end]]
        free, extras, seen, beside, steps = [], [], set(), -1, enumerate(tokens)
        for j, token in steps:
            flag, value = shapes[j] if j < end else (None, None)
            if j == end:  # this "--" goes with a positional right before it or to come
                if beside != j - 1 and len(free) == len(positionals):
                    extras.append(token)
            elif flag is None and len(free) < len(positionals):
                free.append(token)
                beside = j
            elif flag not in options:
                extras.append(token)
            else:
                dest, kind, _, _ = options[flag]
                if dest is None and flag == "-h" and value:  # "-hh" is "-h -h"
                    value = value.lstrip("h") or None
                if kind is bool and value is not None:
                    name = flag if dest else "-h/--help"
                    self.error(f"argument {name}: ignored explicit argument {value!r}")
                if dest is None:
                    self.exit(self.help(prog, rest[0]))
                if kind is not bool and value is None:
                    j, value = next(steps, (end, None))
                    if j == end or j < end and shapes[j][0] is not None:
                        self.error(f"argument {flag}: expected one argument")
                try:
                    value = True if kind is bool else int(value) if kind is int else value
                except ValueError:
                    self.error(f"argument {flag}: invalid int value: {value!r}")
                args[dest] = [*args[dest], value] if kind is list else value
                seen.add(flag)
        missing = positionals[len(free):]
        missing += [flag for flag, (_, _, required, _) in options.items()
                    if required and flag not in seen]
        if missing:
            self.error(f"the following arguments are required: {', '.join(missing)}")
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return SimpleNamespace(**args, **dict(zip(map(str.lower, positionals), free)))

    @staticmethod
    def _shape(token: str, options: dict) -> tuple[str | None, str | None]:
        """``(flag, value given with it)`` for a token that is an option,
        known or not, or ``(None, None)`` for a positional.  No option is
        abbreviated, and the short ``-h`` takes a value attached."""
        flag, eq, value = token.partition("=")
        if token in options or eq and flag in options:
            return flag, value if eq else None
        if token.startswith("-h"):
            return "-h", token[2:]
        if token[:1] != "-" or token == "-" or " " in token or re.match(_NEGATIVE, token):
            return None, None
        return token, None

    def help(self, prog: str, name: str | None = None) -> str:
        """The usage and arguments of the command ``name``, or of the program
        ``prog``."""
        if name is None:
            about, positionals, options = self.description, ["COMMAND ..."], self.flags
            rows = [(n, c[0].__doc__.splitlines()[0]) for n, c in self.commands.items()]
        else:
            run, positionals, options = self.commands[name]
            about, rows = run.__doc__, [(p, "") for p in positionals]
        labels = {flag: flag if kind is bool else f"{flag} {dest.upper()}"
                  for flag, (dest, kind, _, _) in options.items() if dest}
        usage = ["usage:", prog, *([name] if name else []), "[-h]"]
        usage += [label if options[f][2] else f"[{label}]" for f, label in labels.items()]
        rows += [("-h, --help", _HELP[3]), *((labels[f], options[f][3]) for f in labels)]
        width = max(len(label) for label, _ in rows) + 2
        rows = [f"  {label:{width}}{text}".rstrip() for label, text in rows]
        about = [line.strip() for line in about.strip().splitlines()]
        usage = " ".join(usage + positionals)
        return "\n".join([usage, "", *about, "", "arguments:", *rows, ""])

    def main(self, args=None, prog_name=None):
        """Run the command line ``args`` (default ``sys.argv[1:]``) and exit
        with the command's code; ``prog_name`` names the program in help."""
        argv = sys.argv[1:] if args is None else list(args)
        parsed = self.parse(argv, prog_name or "teleo")
        # a command's containers live until it exits, so the cyclic
        # collector would only scan them (README, "The collector")
        enabled = gc.isenabled()
        gc.disable()
        try:
            sys.exit(parsed.run(parsed) or 0)
        except TeleoError as exc:
            self.error(str(exc))
        finally:
            if enabled:
                gc.enable()


cli = _Cli("Teleological analysis of discrete causal models.",
           _opt("--version", "version", "show program's version number and exit", bool),
           _opt("--json", "json", "Emit one JSON document.", bool))
_command = cli.command


def _read(path: str, what: str) -> str:
    p = Path(path)
    if not p.exists() or p.is_dir():
        raise TeleoError(f"{what} {path!r} not found")
    try:
        # one leading byte-order mark is dropped after decoding, so a bad
        # byte's offset stays an offset into the file
        return p.read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        reason = f"is not UTF-8 text (byte {exc.start})"
        raise TeleoError(f"{what} {path!r} {reason}") from None
    except OSError as exc:
        reason = exc.strerror or type(exc).__name__
        raise TeleoError(f"cannot read {what} {path!r}: {reason}") from None


def _load_spec(path: str) -> CompiledSpec:
    return load_model(_read(path, "model spec"))


def _emit(
    args,
    command: str,
    result: Callable[[], dict],
    human: Callable[[], str],
    diagnostics=(),
):
    """Print the JSON document or the human text; only that one is built."""
    diagnostics = list(diagnostics)
    if args.json:
        doc = {"command": command, "result": result(), "diagnostics": diagnostics}
        chunks = itertools.chain(json_chunks(doc), ("\n",))
    else:
        for note in diagnostics:
            print(note, file=sys.stderr)
        chunks = (human(),)
    try:  # the document is written as it is rendered, piece by piece
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left early; the flush at exit goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _table_result(table: WorldTable) -> dict:
    return {
        "columns": table.columns,
        "worlds": table.rows,
        "assignments": Records(table.columns, table.rows),
    }


def _table_text(table: WorldTable) -> str:
    return render_table(table.columns, table.rows)


def _statements(keys: tuple[str, ...], rows: Iterable[tuple]) -> Records:
    """Rows of ``(statement, *verdicts)`` as records of x, y, given and
    ``keys``.  Each conditioning set is sorted once, into one tuple that all
    its rows share; the writer encodes each distinct tuple once, as a JSON
    list."""
    given: dict[frozenset[str], tuple[str, ...]] = {}
    records = []
    for row in rows:
        s = row[0]
        names = given.get(s.given)
        if names is None:
            names = given[s.given] = tuple(sorted(s.given))
        records.append((s.x, s.y, names) + row[1:])
    return Records(("x", "y", "given", *keys), records)


@_command("SPEC")
def worlds(args):
    """Print every world consistent with the model."""
    compiled = _load_spec(args.spec)
    table = enumerate_worlds(compiled.scm)
    _emit(args, "worlds", lambda: _table_result(table), lambda: _table_text(table))


@_command("SPEC", _opt("--do", "target", "Variable to intervene on."))
def intervene(args):
    """Print the worlds of the model after surgery on one variable."""
    compiled = _load_spec(args.spec)
    target = args.target or (compiled.mstar.target if compiled.mstar else None)
    if not target:
        raise TeleoError("no intervention: pass --do or declare one")
    m = do_surgery(compiled.scm, target)
    table = enumerate_worlds_star(m)
    _emit(args, "intervene", lambda: {"target": target, **_table_result(table)},
          lambda: _table_text(table))


def _require_final(compiled: CompiledSpec, name: str):
    if name not in compiled.finals:
        known = ", ".join(compiled.finals) or "none declared"
        raise TeleoError(f"no final block {name!r} ({known})")
    return compiled.finals[name]


@_command("SPEC", _opt("--final", "name", "Final block to evaluate.", required=True))
def finalize(args):
    """Print a goal hypothesis's compatible worlds and implied (in)dependence."""
    compiled = _load_spec(args.spec)
    f = _require_final(compiled, args.name)
    table = compatible_worlds(f)
    reports = implied_dependencies(f) if len(table) else []

    def result() -> dict:
        return {
            "name": f.label,
            "action": f.action,
            "effects": f.intended_effects,
            "goal": str(f.goal),
            "goal_reachable": bool(len(table)),
            **_table_result(table),
            "dependence": _statements(("independent",), map(itemgetter(0, 2), reports)),
            "separation": _statements(("separated",), map(itemgetter(0, 1), reports)),
        }

    def human() -> str:
        head = (
            f"final {f.label}: do({f.action}) listens to "
            f"{{{', '.join(f.intended_effects)}}}; goal {f.goal}\n"
        )
        if not len(table):
            return head + f"goal unreachable: no possible world satisfies {f.goal}\n"
        dep_lines = [
            "expected dependence under the hypothesis (uniform over compatible worlds):"
        ]
        sep_lines = ["separation in the final dag:"]
        by_size = sorted(reports, key=lambda r: len(r[0].given))
        for stmt, separated, independent in by_size:
            text = str(stmt)  # once for both lines: it sorts the conditioning set
            verdict = "independent" if independent else "dependent"
            dep_lines.append(f"  {text}: {verdict} (expected)")
            graph = "separated" if separated else "connected"
            sep_lines.append(f"  {text}: {graph}")
        body = [f"compatible worlds:\n{_table_text(table)}", *dep_lines, "", *sep_lines]
        return head + "\n".join(body) + "\n"

    _emit(args, "finalize", result, human)


@_command("SPEC", _opt("--final", "names", "Name two final blocks.", list))
def distinguish(args):
    """Can two goal hypotheses be told apart from observational data?"""
    if len(args.names) != 2:
        raise TeleoError("pass exactly two --final names")
    compiled = _load_spec(args.spec)
    f1, f2 = (_require_final(compiled, n) for n in args.names)
    verdict = distinguishable(f1, f2)

    def human() -> str:
        pair = f"{f1.label} vs {f2.label}"
        if not verdict.distinguishable:
            return f"{pair}: not distinguishable (identical compatible worlds)\n"
        lines = [f"{pair}: distinguishable"]
        for label, worlds in (
            (f1.label, verdict.only_first),
            (f2.label, verdict.only_second),
        ):
            lines.append(f"worlds compatible only with {label}:")
            lines.append(_table_text(worlds).rstrip("\n") if worlds.rows else "(none)")
        return "\n".join(lines) + "\n"

    def result() -> dict:
        return {
            "first": f1.label,
            "second": f2.label,
            "distinguishable": verdict.distinguishable,
            "columns": f1.mstar.model.names,
            "only_first": verdict.only_first.rows,
            "only_second": verdict.only_second.rows,
        }

    _emit(args, "distinguish", result, human)


@_command(
    "SPEC",
    "DATA",
    _opt("--enumerate", "enumerate_all",
         "Rank enumerated hypotheses instead of declared finals.", bool),
    _opt("--max-effects", "max_effects",
         "Largest intended-effect set when enumerating (default: 1).", int),
)
def identify(args):
    """Rank goal hypotheses against observed data.

    Exit codes: 0 a unique most-specific compatible hypothesis, 2 none
    compatible, 3 tied at the top.
    """
    if args.max_effects is not None and not args.enumerate_all:
        raise TeleoError("--max-effects needs --enumerate")
    max_effects = 1 if args.max_effects is None else args.max_effects
    if max_effects < 1:
        raise TeleoError("--max-effects must be at least 1")
    compiled = _load_spec(args.spec)
    dataset = load_dataset(_read(args.data, "dataset"), compiled.scm)
    diagnostics: list[str] = []
    if args.enumerate_all:
        if compiled.mstar is None:
            raise TeleoError("spec declares no intervention to enumerate for")
        candidates, skipped = enumerate_goal_hypotheses(compiled.mstar, max_effects)
        # a descendant leaves a candidate: reversing the earliest child's
        # arrow closes no cycle, so no candidate means no descendant
        if not candidates:
            raise TeleoError(
                f"do({compiled.mstar.target}) has no descendants, "
                "so there are no goal hypotheses to enumerate"
            )
        diagnostics = [f"skipped candidate {name}: {exc}" for name, exc in skipped]
    else:
        candidates = list(compiled.finals.values())
        if not candidates:
            raise TeleoError("spec declares no final blocks; use --enumerate")
    ranking = rank_hypotheses(candidates, dataset)
    summary = summarize_ranking(ranking)

    def human() -> str:
        lines = [f"{dataset.total} observations, {len(dataset.rows)} distinct rows"]
        for entry in ranking:
            v = entry.verdict
            parts = [
                f"rank {entry.rank}: {v.hypothesis.label}",
                f"[class {entry.equivalence_class}]",
            ]
            if v.support_compatible:
                parts.append(
                    f"support ok, compatible worlds {v.compatible_world_count},"
                )
                disagreements = [c for c in v.dependence_checks if not c.agree]
                if disagreements:
                    parts.append(
                        f"dependence checks disagree ({len(disagreements)} of "
                        f"{len(v.dependence_checks)})"
                    )
                else:
                    parts.append("dependence checks agree")
            else:
                n = len(v.violating_rows)
                rows = "row" if n == 1 else "rows"
                parts.append(f"support violated ({n} distinct observed {rows} outside)")
            lines.append(" ".join(parts))
        if summary.winner is not None:
            lines.append(f"winner: {summary.winner}")
        elif summary.exit_code == 2:
            lines.append("no compatible hypothesis")
        else:
            lines.append(f"tied: {', '.join(summary.tied)}")
        return "\n".join(lines) + "\n"

    def result() -> dict:
        return {
            "observations": dataset.total,
            "columns": dataset.columns,
            "ranking": [
                {
                    "rank": e.rank,
                    "name": e.verdict.hypothesis.label,
                    "equivalence_class": e.equivalence_class,
                    "support_compatible": e.verdict.support_compatible,
                    "compatible_world_count": e.verdict.compatible_world_count,
                    "violating_rows": e.verdict.violating_rows.rows,
                    "dependence_checks": _statements(
                        ("expected_independent", "observed_independent", "agree",
                         "skipped_strata"),
                        [(c.statement, c.expected_independent, c.observed_independent,
                          c.agree, c.skipped_strata) for c in e.verdict.dependence_checks],
                    ),
                    "compatible": e.verdict.compatible,
                }
                for e in ranking
            ],
            "winner": summary.winner,
            "tied": summary.tied,
            "exit_code": summary.exit_code,
        }

    _emit(args, "identify", result, human, diagnostics)
    return summary.exit_code


@_command(
    "SPEC",
    _opt("--final", "name", "Final block to reduce.", required=True),
    _opt("--rest", "rest_level", "Action level of the pre-action state "
         "(default: declared rest, else the domain minimum).", int),
)
def reduce(args):
    """Build the purely causal counterpart of a final model and compare."""
    compiled = _load_spec(args.spec)
    f = _require_final(compiled, args.name)
    rest = compiled.rest if args.rest_level is None else args.rest_level
    r = build_reduction(f, rest)
    table = reduction_worlds(r)
    cmp = compare_structures(f, r)

    def human() -> str:
        shared = ", ".join(r.shared_columns)
        relation = {
            "equal": "equal to the compatible worlds",
            "subset": "a subset of the compatible worlds",
            "diverges": "NOT contained in the compatible worlds",
        }[cmp.world_relation]

        def fmt_edges(edges):
            return ", ".join(f"{p} -> {c}" for p, c in edges) or "(none)"

        lines = [
            f"causal reduction of final {f.label} (action {r.action}, rest {r.rest}):",
            _table_text(table).rstrip("\n"),
            "",
            f"projection onto ({shared}): {relation} of {f.label}",
            "structural comparison:",
            f"  action {r.action} listens to: "
            f"{', '.join(cmp.action_listens_final) or '(nothing)'} (final model) vs "
            f"{', '.join(cmp.action_listens_reduction) or '(nothing)'} (reduction)",
            f"  edges only in final dag: {fmt_edges(cmp.only_final)}",
            f"  edges only in reduction: {fmt_edges(cmp.only_reduction)}",
            f"  shared edges: {fmt_edges(cmp.shared_edges)}",
        ]
        if cmp.dsep_disagreements:
            lines.append("  separation disagreements (final vs reduction):")
            for stmt, sep_f, sep_r in cmp.dsep_disagreements:
                a = "separated" if sep_f else "connected"
                b = "separated" if sep_r else "connected"
                lines.append(f"    {stmt}: {a} vs {b}")
        else:
            lines.append("  separation disagreements: none")
        return "\n".join(lines) + "\n"

    def result() -> dict:
        return {
            "name": f.label,
            "action": r.action,
            "rest": r.rest,
            **_table_result(table),
            "projection": {
                "columns": r.shared_columns,
                "relation": cmp.world_relation,
                "worlds_only_reduction": cmp.worlds_only_reduction.rows,
                "worlds_only_final": cmp.worlds_only_final.rows,
            },
            "structure": {
                "action_listens_final": cmp.action_listens_final,
                "action_listens_reduction": cmp.action_listens_reduction,
                "edges_only_final": cmp.only_final,
                "edges_only_reduction": cmp.only_reduction,
                "edges_shared": cmp.shared_edges,
                "action_wiring_differs": cmp.action_wiring_differs,
                "dsep_disagreements": _statements(
                    ("final_separated", "reduction_separated"), cmp.dsep_disagreements
                ),
            },
        }

    _emit(args, "reduce", result, human)


main = cli.main


if __name__ == "__main__":
    main()
