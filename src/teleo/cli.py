"""Command-line surface: world tables, hypotheses, verdicts.

All verdicts go to standard output; diagnostics and errors go to standard
error.  Exit codes: 0 success, 1 any usage, model or data error.  The
``identify`` command additionally uses 0 / 2 / 3 as its verdict contract:
unique most-specific compatible hypothesis / none compatible / tied.

``--json`` swaps the human tables for one JSON document with stable keys
``command``, ``result`` and ``diagnostics``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import os
import sys
from operator import itemgetter
from pathlib import Path
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


class _Cli(argparse.ArgumentParser):
    """Parser with uniform error handling: every failure is one ``error:``
    line on standard error and exit code 1."""

    def error(self, message: str):
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)

    def main(self, args=None, prog_name=None):
        """Run the command line ``args`` (default ``sys.argv[1:]``) and exit
        with the command's code; ``prog_name`` names the program in help."""
        self.prog = prog_name or self.prog
        argv = sys.argv[1:] if args is None else list(args)
        # name an unknown option before the command, not the value after it;
        # a "--" there ends the options (argparse would take it as the command)
        for i, token in enumerate(argv):
            if token == "--":
                del argv[i]
            if token == "--" or not token.startswith("-"):
                break
            if token not in self._option_string_actions:
                self.error(f"unrecognized arguments: {token}")
        # a final "--" ends no options, but argparse refuses it after an
        # option's value; it is a positional only after an earlier "--"
        if argv[-1:] == ["--"] and "--" not in argv[:-1]:
            argv.pop()
        parsed = self.parse_args(argv)
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


cli = _Cli("teleo", allow_abbrev=False,
           description="Teleological analysis of discrete causal models.")
cli.add_argument("--version", action="version", version=f"teleo, version {__version__}")
cli.add_argument("--json", action="store_true", help="Emit one JSON document.")
_commands = cli.add_subparsers(metavar="COMMAND", required=True)


def _arg(*flags: str, **options) -> tuple[tuple[str, ...], dict]:
    return flags, options


def _command(*arguments: tuple[tuple[str, ...], dict]):
    """Register ``run(args) -> exit code`` as the command ``<run> SPEC arguments``."""

    def register(run: Callable[[argparse.Namespace], int | None]):
        sub = _commands.add_parser(run.__name__, description=run.__doc__,
                                   help=run.__doc__.splitlines()[0], allow_abbrev=False)
        sub.add_argument("spec", metavar="SPEC")
        for flags, options in arguments:
            sub.add_argument(*flags, **options)
        sub.set_defaults(run=run)
        return run

    return register


def _read(path: str, what: str) -> str:
    p = Path(path)
    if not p.exists() or p.is_dir():
        raise TeleoError(f"{what} {path!r} not found")
    try:
        return p.read_text(encoding="utf-8")
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
    ``keys``.  Each conditioning set is sorted once, into one list that all
    its rows share."""
    given: dict[frozenset[str], list[str]] = {}
    records = []
    for row in rows:
        s = row[0]
        names = given.get(s.given)
        if names is None:
            names = given[s.given] = sorted(s.given)
        records.append((s.x, s.y, names) + row[1:])
    return Records(("x", "y", "given", *keys), records)


@_command()
def worlds(args):
    """Print every world consistent with the model."""
    compiled = _load_spec(args.spec)
    table = enumerate_worlds(compiled.scm)
    _emit(args, "worlds", lambda: _table_result(table), lambda: _table_text(table))


@_command(_arg("--do", dest="target", help="Variable to intervene on."))
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


@_command(_arg("--final", dest="name", required=True, help="Final block to evaluate."))
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


@_command(
    _arg("--final", dest="names", action="append", default=[],
         help="Name two final blocks."),
)
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
    _arg("data", metavar="DATA"),
    _arg("--enumerate", dest="enumerate_all", action="store_true",
         help="Rank enumerated hypotheses instead of declared finals."),
    _arg("--max-effects", type=int,
         help="Largest intended-effect set when enumerating (default: 1)."),
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
    _arg("--final", dest="name", required=True, help="Final block to reduce."),
    _arg("--rest", dest="rest_level", type=int,
         help="Action level of the pre-action state "
         "(default: declared rest, else the domain minimum)."),
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
