"""Command-line surface: world tables, hypotheses, verdicts.

All verdicts go to standard output; diagnostics and errors go to standard
error.  Exit codes: 0 success, 1 any usage, model or data error.  The
``identify`` command additionally uses 0 / 2 / 3 as its verdict contract:
unique most-specific compatible hypothesis / none compatible / tied.

``--json`` swaps the human tables for one JSON document with stable keys
``command``, ``result`` and ``diagnostics``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Callable

import click

from teleo import __version__
from teleo.errors import TeleoError
from teleo.identification import load_dataset, rank_hypotheses, summarize_ranking
from teleo.intervention import do_surgery, enumerate_worlds_star
from teleo.model import WorldTable, enumerate_worlds
from teleo.reduction import build_reduction, compare_structures, reduction_worlds
from teleo.render import render_table
from teleo.speclang import CompiledSpec, load_model
from teleo.teleology import (
    build_final_model,
    compatible_worlds,
    distinguishable,
    enumerate_goal_hypotheses,
    implied_dependencies,
)


class _Cli(click.Group):
    """Group with uniform error handling: every failure exits 1."""

    def main(self, *args, **kwargs):  # noqa: D102 - click override
        kwargs["standalone_mode"] = False
        try:
            rv = super().main(*args, **kwargs)
        except click.ClickException as exc:
            click.echo(f"error: {exc.format_message()}", err=True)
            sys.exit(1)
        except click.Abort:
            sys.exit(1)
        except TeleoError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
        sys.exit(rv if isinstance(rv, int) else 0)


@click.group(cls=_Cli)
@click.version_option(version=__version__, prog_name="teleo")
@click.option("--json", "as_json", is_flag=True, help="Emit one JSON document.")
@click.pass_context
def cli(ctx, as_json: bool):
    """Teleological analysis of discrete causal models."""
    ctx.obj = {"json": as_json}


def _read(path: str, what: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise click.ClickException(f"{what} {path!r} not found")
    return p.read_text(encoding="utf-8")


def _load_spec(path: str) -> CompiledSpec:
    return load_model(_read(path, "model spec"))


def _emit(
    ctx,
    command: str,
    result: Callable[[], dict],
    human: Callable[[], str],
    diagnostics=(),
):
    """Print the JSON document or the human text; only that one is built."""
    diagnostics = list(diagnostics)
    if ctx.obj["json"]:
        doc = {"command": command, "result": result(), "diagnostics": diagnostics}
        click.echo(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for note in diagnostics:
            click.echo(note, err=True)
        click.echo(human(), nl=False)


def _table_result(table: WorldTable) -> dict:
    return {
        "columns": list(table.columns),
        "worlds": [list(values) for values in table.rows],
        "assignments": [dict(zip(table.columns, values)) for values in table.rows],
    }


def _table_text(table: WorldTable) -> str:
    return render_table(table.columns, table.rows)


def _stmt_fields(stmt) -> dict:
    return {"x": stmt.x, "y": stmt.y, "given": sorted(stmt.given)}


@cli.command()
@click.argument("spec")
@click.pass_context
def worlds(ctx, spec: str):
    """Print every world consistent with the model."""
    compiled = _load_spec(spec)
    table = enumerate_worlds(compiled.scm)
    _emit(ctx, "worlds", lambda: _table_result(table), lambda: _table_text(table))


@cli.command()
@click.argument("spec")
@click.option("--do", "target", default=None, help="Variable to intervene on.")
@click.pass_context
def intervene(ctx, spec: str, target: str | None):
    """Print the worlds of the model after surgery on one variable."""
    compiled = _load_spec(spec)
    target = target or compiled.document.do_target
    if target is None:
        raise click.ClickException("no intervention: pass --do or declare one")
    m = do_surgery(compiled.scm, target)
    table = enumerate_worlds_star(m)
    _emit(
        ctx,
        "intervene",
        lambda: {"target": target, **_table_result(table)},
        lambda: _table_text(table),
    )


def _require_final(compiled: CompiledSpec, name: str):
    if name not in compiled.finals:
        known = ", ".join(compiled.finals) or "none declared"
        raise click.ClickException(f"no final block {name!r} ({known})")
    return compiled.finals[name]


@cli.command()
@click.argument("spec")
@click.option("--final", "name", required=True, help="Final block to evaluate.")
@click.pass_context
def finalize(ctx, spec: str, name: str):
    """Print the worlds compatible with a goal hypothesis and the
    (in)dependence pattern it implies."""
    compiled = _load_spec(spec)
    f = _require_final(compiled, name)
    table = compatible_worlds(f)
    reports = implied_dependencies(f) if len(table) else []

    def result() -> dict:
        return {
            "name": f.label,
            "action": f.action,
            "effects": list(f.intended_effects),
            "goal": str(f.goal),
            "goal_reachable": bool(len(table)),
            **_table_result(table),
            "dependence": [
                {**_stmt_fields(r.statement), "independent": r.dist_independent}
                for r in reports
            ],
            "separation": [
                {**_stmt_fields(r.statement), "separated": r.graph_separated}
                for r in reports
            ],
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
        for r in sorted(reports, key=lambda r: len(r.statement.given)):
            verdict = "independent" if r.dist_independent else "dependent"
            dep_lines.append(f"  {r.statement}: {verdict} (expected)")
            graph = "separated" if r.graph_separated else "connected"
            sep_lines.append(f"  {r.statement}: {graph}")
        return (
            head
            + "compatible worlds:\n"
            + _table_text(table)
            + "\n"
            + "\n".join(dep_lines)
            + "\n\n"
            + "\n".join(sep_lines)
            + "\n"
        )

    _emit(ctx, "finalize", result, human)


@cli.command()
@click.argument("spec")
@click.option("--final", "names", multiple=True, help="Name two final blocks.")
@click.pass_context
def distinguish(ctx, spec: str, names: tuple[str, ...]):
    """Can two goal hypotheses be told apart from observational data?"""
    if len(names) != 2:
        raise click.ClickException("pass exactly two --final names")
    compiled = _load_spec(spec)
    f1, f2 = (_require_final(compiled, n) for n in names)
    verdict = distinguishable(f1, f2)
    columns = f1.mstar.model.names

    def human() -> str:
        if not verdict.distinguishable:
            return (
                f"{f1.label} vs {f2.label}: not distinguishable "
                "(identical compatible worlds)\n"
            )
        lines = [f"{f1.label} vs {f2.label}: distinguishable"]
        for label, worlds in (
            (f1.label, verdict.only_first),
            (f2.label, verdict.only_second),
        ):
            lines.append(f"worlds compatible only with {label}:")
            if worlds.rows:
                lines.append(_table_text(worlds).rstrip("\n"))
            else:
                lines.append("(none)")
        return "\n".join(lines) + "\n"

    def result() -> dict:
        return {
            "first": f1.label,
            "second": f2.label,
            "distinguishable": verdict.distinguishable,
            "columns": list(columns),
            "only_first": [list(v) for v in verdict.only_first.rows],
            "only_second": [list(v) for v in verdict.only_second.rows],
        }

    _emit(ctx, "distinguish", result, human)


@cli.command()
@click.argument("spec")
@click.argument("data")
@click.option("--enumerate", "enumerate_all", is_flag=True,
              help="Rank enumerated hypotheses instead of declared finals.")
@click.option("--max-effects", type=int, default=1, show_default=True,
              help="Largest intended-effect set when enumerating.")
@click.pass_context
def identify(ctx, spec: str, data: str, enumerate_all: bool, max_effects: int):
    """Rank goal hypotheses against observed data.

    Exit codes: 0 a unique most-specific compatible hypothesis, 2 none
    compatible, 3 tied at the top.
    """
    compiled = _load_spec(spec)
    dataset = load_dataset(_read(data, "dataset"), compiled.scm)
    diagnostics: list[str] = []
    if enumerate_all:
        if compiled.mstar is None:
            raise click.ClickException("spec declares no intervention to enumerate for")
        candidates = []
        for hyp in enumerate_goal_hypotheses(compiled.mstar, max_effects):
            try:
                candidates.append(
                    build_final_model(
                        compiled.mstar, hyp.effects, hyp.goal, name=hyp.label
                    )
                )
            except TeleoError as exc:
                diagnostics.append(f"skipped candidate {hyp.label}: {exc}")
    else:
        candidates = list(compiled.finals.values())
        if not candidates:
            raise click.ClickException(
                "spec declares no final blocks; use --enumerate"
            )
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
            "columns": list(dataset.columns),
            "ranking": [
                {
                    "rank": e.rank,
                    "name": e.verdict.hypothesis.label,
                    "equivalence_class": e.equivalence_class,
                    "support_compatible": e.verdict.support_compatible,
                    "compatible_world_count": e.verdict.compatible_world_count,
                    "violating_rows": [list(v) for v in e.verdict.violating_rows.rows],
                    "dependence_checks": [
                        {
                            **_stmt_fields(c.statement),
                            "expected_independent": c.expected_independent,
                            "observed_independent": c.observed_independent,
                            "agree": c.agree,
                            "skipped_strata": [list(s) for s in c.skipped_strata],
                        }
                        for c in e.verdict.dependence_checks
                    ],
                    "compatible": e.verdict.compatible,
                }
                for e in ranking
            ],
            "winner": summary.winner,
            "tied": list(summary.tied),
            "exit_code": summary.exit_code,
        }

    _emit(ctx, "identify", result, human, diagnostics)
    ctx.exit(summary.exit_code)


@cli.command()
@click.argument("spec")
@click.option("--final", "name", required=True, help="Final block to reduce.")
@click.option("--rest", "rest_level", type=int, default=None,
              help="Action level of the pre-action state (default: declared rest, else the domain minimum).")
@click.pass_context
def reduce(ctx, spec: str, name: str, rest_level: int | None):
    """Build the purely causal counterpart of a final model and compare."""
    compiled = _load_spec(spec)
    f = _require_final(compiled, name)
    if rest_level is None:
        rest_level = compiled.rest
    r = build_reduction(f, rest_level)
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
                "columns": list(r.shared_columns),
                "relation": cmp.world_relation,
                "worlds_only_reduction": [
                    list(v) for v in cmp.worlds_only_reduction.rows
                ],
                "worlds_only_final": [list(v) for v in cmp.worlds_only_final.rows],
            },
            "structure": {
                "action_listens_final": list(cmp.action_listens_final),
                "action_listens_reduction": list(cmp.action_listens_reduction),
                "edges_only_final": [list(e) for e in cmp.only_final],
                "edges_only_reduction": [list(e) for e in cmp.only_reduction],
                "edges_shared": [list(e) for e in cmp.shared_edges],
                "action_wiring_differs": cmp.action_wiring_differs,
                "dsep_disagreements": [
                    {
                        **_stmt_fields(stmt),
                        "final_separated": sep_f,
                        "reduction_separated": sep_r,
                    }
                    for stmt, sep_f, sep_r in cmp.dsep_disagreements
                ],
            },
        }

    _emit(ctx, "reduce", result, human)


def main():
    cli()


if __name__ == "__main__":
    main()
