"""The mutant catalogue: hand-made faults in ``src/teleo``, each with the
tests that must catch it.

This is mutation analysis (DeMillo, Lipton & Sayward, "Hints on test data
selection", 1978) with a hand-picked catalogue.  A mutant replaces one exact
snippet of one file with a faulty one, and names the pytest node ids that
must fail on it.

Run it as ``python3 tests/mutants.py [ID ...]`` (every mutant, or the named
ones).  It copies the repository once into a temporary directory and first
runs every named test on the unmutated copy, which must pass.  Then, one
mutant at a time, it writes the mutated file, runs
``python -m pytest -x -q -p no:cacheprovider`` on that mutant's node ids in
one child process, and restores the file.  It prints each mutant as caught
or survived with its time, and exits 1 if any survived or could not be run.
Mutants never run in parallel.

pytest does not collect this file.  ``tests/test_mutants.py`` checks,
without starting a process, that each ``old`` snippet occurs exactly once in
its file and that each node id names a test, so a change that moves the code
must move its mutant too.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    id: str
    path: str  # relative to src/teleo
    old: str  # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository


RECORDS_CASES = "tests/test_properties.py::test_records_and_int_rows_cases"
COLUMNAR = "tests/test_properties.py::test_columnar_tables_match_the_world_oracle"
ANY_ORDER = "tests/test_properties.py::test_tables_in_any_declaration_order_match_the_world_oracle"
UNIVERSE = "tests/test_universe.py"
PARSER_ROWS = "tests/test_cli.py::TestParser::test_rows_parse_as_the_oracle_parses"
COLLECTOR = "tests/test_cli.py::TestCollector::test_no_command_leaves_cyclic_garbage"
FILL_CASES = "tests/test_render.py::test_one_digit_cases"
JOIN_CASES = "tests/test_render.py::test_every_column_kind_joins_like_the_stdlib_encoder"
ONE_TABLE = "tests/test_cells.py::test_one_table_answers_many_statements_like_the_uniform_oracle"
BATCH = "tests/test_cells.py::test_the_batch_kernel_decides_pairs_in_any_order_like_the_oracles"
GRID = "tests/test_properties.py::test_the_grid_columns_match_the_trail_and_uniform_oracles"

MUTANTS = (
    Mutant(
        "render-bool-column-as-int", "render.py",
        "    if kinds == {int}:\n",
        "    if kinds <= {int, bool}:\n",
        (f"{RECORDS_CASES}[records-format-chars-in-keys-and-cells]",),
    ),
    Mutant(
        "render-labels-in-declaration-order", "render.py",
        "order = sorted(range(len(keys)), key=keys.__getitem__)",
        "order = range(len(keys))",
        (f"{RECORDS_CASES}[records-unsorted-keys]",),
    ),
    Mutant(
        "render-records-of-lists-in-braces", "render.py",
        'labels, brackets = [""] * len(columns), "[]"',
        'labels, brackets = [""] * len(columns), "{}"',
        (f"{RECORDS_CASES}[records-of-lists-no-columns]",),
    ),
    Mutant(
        "render-bool-keyable", "render.py",
        "_KEYABLE = {str, int, type(None)}",
        "_KEYABLE = {str, int, bool, type(None)}",
        ("tests/test_properties.py::test_json_writer_column_cases",),
    ),
    Mutant(
        "dsep-given-in-hash-order", "dsep.py",
        "dag._mask(sorted(given))",
        "dag._mask(given)",
        ("tests/test_dsep.py::TestBlockingRules::"
         "test_unknown_conditioning_names_are_checked_in_sorted_order",),
    ),
    Mutant(
        "speclang-unknown-statement-at-column-1", "speclang.py",
        "            cur.pos -= len(head)\n",
        "            cur.pos = 0\n",
        ("tests/test_speclang.py::test_each_rule_reports_its_statement"
         "[indented-unknown-statement]",),
    ),
    Mutant(
        "cli-byte-order-mark-kept", "cli.py",
        'file.read().removeprefix("\\ufeff")',
        'file.read()',
        ("tests/test_cli.py::TestErrorHandling::test_a_byte_order_mark_is_dropped",),
    ),
    Mutant(
        "cli-byte-order-mark-decoded-away", "cli.py",
        'open(path, encoding="utf-8")',
        'open(path, encoding="utf-8-sig")',
        ("tests/test_cli.py::TestErrorHandling::"
         "test_a_bad_byte_after_a_byte_order_mark_is_placed_in_the_file",),
    ),
    Mutant(
        "cli-freeze-on-every-call", "cli.py",
        "if args is None:  # the program ends",
        "if True:  # the program ends",
        ("tests/test_cli.py::TestProgramExit::test_an_in_process_call_never_freezes",),
    ),
    Mutant(
        "cli-write-error-unhandled", "cli.py",
        "if not isinstance(exc, BrokenPipeError):",
        "if False:",
        ("tests/test_cli.py::TestProcess::test_a_full_disk_is_one_error_line[text]",),
    ),
    Mutant(
        "cli-read-after-path-exists", "cli.py",
        "    try:\n        with open(path, ",
        '    if not __import__("pathlib").Path(path).exists():\n'
        '        raise TeleoError(f"{what} {path!r} not found")\n'
        "    try:\n        with open(path, ",
        ("tests/test_cli.py::TestErrorHandling::"
         "test_a_path_too_long_is_an_error_not_a_crash[spec]",),
    ),
    Mutant(
        "render-imports-typing", "render.py",
        "from collections.abc import Iterable, Iterator, Sequence",
        "from typing import Iterable, Iterator, Sequence",
        ("tests/test_cli.py::TestProcess::"
         "test_the_command_line_loads_neither_typing_nor_pathlib",),
    ),
    Mutant(
        "cli-no-negative-number-rule", "cli.py",
        ' or " " in token or re.match(_NEGATIVE, token):',
        ' or " " in token:',
        (f"{PARSER_ROWS}[reduce SPEC --final warm --rest -1]",),
    ),
    Mutant(
        "cli-abbreviated-option-accepted", "cli.py",
        '        flag, eq, value = token.partition("=")\n',
        '        flag, eq, value = token.partition("=")\n'
        "        flag = next((f for f in options if f[:2] == flag[:2] == '--'\n"
        "                     and f.startswith(flag)), flag)\n"
        "        token = flag + eq + value\n",
        (f"{PARSER_ROWS}[identify SPEC obs.csv --max 2]",),
    ),
    Mutant(
        "cli-first-of-a-repeated-option-kept", "cli.py",
        "if kind is list else value\n",
        "if kind is list else args[dest] if flag in seen else value\n",
        (f"{PARSER_ROWS}[finalize SPEC --final warm --final cheap]",),
    ),
    Mutant(
        "cli-double-dash-after-the-options-dropped", "cli.py",
        "if beside != j - 1 and len(free) == len(positionals):",
        "if False:",
        ("tests/test_cli.py::TestParser::"
         "test_random_command_lines_parse_as_the_oracle_parses",),
    ),
    Mutant(
        "cli-no-dash-h-chaining", "cli.py",
        'value = value.lstrip("h") or None',
        "value = value or None",
        (f"{PARSER_ROWS}[worlds -hh]",),
    ),
    Mutant(
        "render-imports-json-at-start-up", "render.py",
        "from itertools import chain, repeat\n",
        "from itertools import chain, repeat\nimport json\n",
        ("tests/test_cli.py::TestProcess::"
         "test_the_command_line_parses_without_argparse_or_json",),
    ),
    Mutant(
        "render-imports-json-on-every-encode", "render.py",
        "    scalar = _SCALARS.get(type(value))\n",
        "    import json\n    scalar = _SCALARS.get(type(value))\n",
        ("tests/test_cli.py::TestJsonMode::test_no_command_imports_json",),
    ),
    Mutant(
        "render-record-columns-in-source-order", "render.py",
        "columns = list(map(columns.__getitem__, order))",
        "columns = list(columns)",
        ("tests/test_cli.py::TestJsonMode::test_finalize_json_reconstructs_the_table",),
    ),
    Mutant(
        "cli-closed-stdout-unchecked", "cli.py",
        "if sys.stdout is None:  # ``teleo ... >&-``",
        "if False:",
        ("tests/test_cli.py::TestProcess::"
         "test_a_closed_standard_output_is_one_error_line[text]",),
    ),
    # the statement grid as columns, with the collector paused
    Mutant(
        "teleology-verdict-columns-swapped", "teleology.py",
        "for d in (separated, independent)]",
        "for d in (independent, separated)]",
        ("tests/test_cli.py::TestGoldenOutput::test_finalize_warm",),
    ),
    Mutant(
        "teleology-grid-tests-the-bit-of-x", "teleology.py",
        "not reached[x] >> position[y] & 1",
        "not reached[x] >> position[x] & 1",
        ("tests/test_cli.py::TestGoldenOutput::test_finalize_warm", GRID),
    ),
    Mutant(
        "cli-collector-restore-dropped", "cli.py",
        "                if enabled:\n                    gc.enable()",
        "                if False:\n                    gc.enable()",
        (f"{COLLECTOR}[on]",),
    ),
    Mutant(
        "teleology-skipped-error-keeps-its-traceback", "teleology.py",
        "skipped.append((name, exc.with_traceback(None)))",
        "skipped.append((name, exc))",
        (f"{COLLECTOR}[off]",),
    ),
    Mutant(
        "teleology-reversal-error-raised-in-its-handler", "teleology.py",
        "        reason = str(exc)\n    # raised outside the handler, so that it holds no chained"
        " traceback\n    raise TeleologyError(",
        "        reason = str(exc)\n        raise TeleologyError(",
        (f"{COLLECTOR}[off]",),
    ),
    Mutant(
        "dsep-no-y-check-on-a-memo-hit", "dsep.py",
        "    y = dag._at(stmt.y)\n",
        "    y = dag._position.get(stmt.y, 0)\n",
        ("tests/test_dsep.py::TestBlockingRules::"
         "test_unknown_variable_is_named_before_and_after_a_walk",),
    ),
    Mutant(
        "model-x-weighed-outside-the-stratum", "model.py",
        "(at := s & mask, weigh(at))",
        "(at := s & mask, weigh(mask))",
        (ONE_TABLE, BATCH),
    ),
    Mutant(
        "model-grid-swaps-x-and-y", "model.py",
        "        yield x, y, [(), *singles[:i],",
        "        yield y, x, [(), *singles[:i],",
        ("tests/test_cli.py::TestGoldenOutput::test_finalize_warm",),
    ),
    Mutant(
        "cli-no-leaf-message", "cli.py",
        "        if not candidates:\n            raise TeleoError(\n                f\"do(",
        "        if False:\n            raise TeleoError(\n                f\"do(",
        ("tests/test_cli.py::TestErrorHandling::test_identify_needs_candidates[enumerate-a-leaf]",),
    ),
    Mutant(
        "render-type-scan-stops-after-the-first-row", "render.py",
        "set(map(type, column))",
        "set(map(type, column[:1]))",
        (f"{RECORDS_CASES}[records-format-chars-in-keys-and-cells]",),
    ),
    # the universe of level masks (world tables over one universe)
    Mutant(
        "model-exogenous-block-shifted-by-one", "model.py",
        "<< k * inner for k, v in enumerate(domain)}",
        "<< k * inner + 1 for k, v in enumerate(domain)}",
        (COLUMNAR,),
    ),
    Mutant(
        "model-geometric-constant-of-a-wrong-period", "model.py",
        "// ((1 << inner * len(domain)) - 1)",
        "// ((1 << inner * (len(domain) + 1)) - 1)",
        (f"{UNIVERSE}::test_single_level_domains_hold_every_world", COLUMNAR),
    ),
    Mutant(
        "model-filter-keeps-an-uncompressed-view", "model.py",
        "if mask & kept and (packed := compress(mask))",
        "if (packed := mask & kept)",
        (f"{UNIVERSE}::test_filtered_tables_are_compressed_to_their_rows",),
    ),
    Mutant(
        "model-rows-unsorted-with-an-exogenous-variable-late", "model.py",
        "return table if columns[: len(exogenous)] == tuple(exogenous) else",
        "return table if True else",
        (ANY_ORDER,),
    ),
    Mutant(
        "model-outside-as-and", "model.py",
        "return root._keep(self.kept & ~other.kept)",
        "return root._keep(self.kept & other.kept)",
        ("tests/test_model_core.py::TestWorldTable::"
         "test_outside_keeps_the_rows_the_other_table_lacks",
         f"{UNIVERSE}::test_mask_set_operations_match_the_row_set_oracle"),
    ),
    # observed rows checked by the model's own equations
    Mutant(
        "model-consistent-ignores-the-child-level", "model.py",
        "kept &= sum(rows & at.get(mech.table.get(combo), 0) for combo, rows in strata)",
        "kept &= sum(rows for combo, rows in strata)",
        (f"{UNIVERSE}::test_consistent_rows_are_the_worlds_of_the_model",),
    ),
    Mutant(
        "model-consistent-mechanisms-or-ed", "model.py",
        "kept &= sum(rows & at.get(mech.table.get(combo), 0) for combo, rows in strata)",
        "kept |= sum(rows & at.get(mech.table.get(combo), 0) for combo, rows in strata)",
        (f"{UNIVERSE}::test_consistent_rows_are_the_worlds_of_the_model",),
    ),
    Mutant(
        "model-consistent-exogenous-domain-unchecked", "model.py",
        "kept &= passing(at, v.domain.__contains__)",
        "kept &= passing(at, lambda level: True)",
        (f"{UNIVERSE}::test_consistent_rows_are_the_worlds_of_the_model",),
    ),
    Mutant(
        "model-consistent-drops-the-kept-mask", "model.py",
        "root, kept = self._root or self, self.kept",
        "root, kept = self._root or self, (self._root or self).kept",
        (f"{UNIVERSE}::test_consistent_rows_are_the_worlds_of_the_model",),
    ),
    Mutant(
        "teleology-distinguish-filters-from-the-second-root", "teleology.py",
        "t1, t2 = compatible_worlds(f1), f1.mstar.worlds_meeting(f2.goal)",
        "t1, t2 = compatible_worlds(f1), compatible_worlds(f2)",
        ("tests/test_properties.py::test_world_set_differences_match_the_world_oracle",),
    ),
    Mutant(
        "identification-rank-class-keyed-on-the-goal", "identification.py",
        "key = compatible_worlds(verdict.hypothesis).kept",
        "key = verdict.hypothesis.goal",
        ("tests/test_commands.py::test_identify_ranks_as_the_oracles_do",),
    ),
    Mutant(
        "identification-rank-class-keyed-on-rows", "identification.py",
        "key = compatible_worlds(verdict.hypothesis).kept",
        "key = compatible_worlds(verdict.hypothesis).rows",
        (f"{UNIVERSE}::test_ranking_builds_no_rows_of_the_compatible_worlds",),
    ),
    Mutant(
        "model-column-bytes-unreversed", "model.py",
        'return digits.to_bytes(n, "big")[::-1]',
        'return digits.to_bytes(n, "big")',
        (COLUMNAR,),
    ),
    Mutant(
        "model-compressor-keeps-every-digit", "model.py",
        'digits.translate(_LOWER, b"01")',
        "digits.translate(_LOWER)",
        (f"{UNIVERSE}::test_the_compressor_packs_and_scatter_unpacks",),
    ),
    Mutant(
        "reduction-survey-reads-the-uncompressed-masks", "reduction.py",
        "masks = {g: {v: c for v, m in levels[g].items() if (c := compress(m))}",
        "masks = {g: {v: c for v, m in levels[g].items() if (c := m)}",
        ("tests/test_properties.py::test_the_reduction_matches_the_per_level_oracle",),
    ),
    Mutant(
        "reduction-compare-scatters-nothing", "reduction.py",
        "chosen = sum(scatter(acts[v], slots, n)",
        "chosen = sum(0 * scatter(acts[v], slots, n)",
        ("tests/test_properties.py::test_world_set_differences_match_the_world_oracle",),
    ),
    Mutant(
        "reduction-compare-chosen-and-goal-swapped", "reduction.py",
        "only_reduction = table_over(shared, exogenous, n, read, chosen & ~goal)",
        "only_reduction = table_over(shared, exogenous, n, read, goal & ~chosen)",
        ("tests/test_properties.py::test_world_set_differences_match_the_world_oracle",),
    ),
    # the columnar change's kernel mutants, rewritten against the masks
    Mutant(
        "model-given-rows-unsorted", "model.py",
        "rows = tuple(sorted(set(rows)))",
        "rows = tuple(dict.fromkeys(rows))",
        ("tests/test_model_core.py::TestWorldTable::"
         "test_unsorted_and_repeated_rows_are_sorted_and_deduplicated",),
    ),
    Mutant(
        "model-filter-any-for-all", "model.py",
        "return root._keep(reduce(operator.and_, masks, self.kept))",
        "return root._keep(reduce(operator.or_, masks, 0) & self.kept)",
        (COLUMNAR,),
    ),
    Mutant(
        "model-dropped-stratum", "model.py",
        "        for k, n in enumerate(totals):\n",
        "        for k, n in list(enumerate(totals))[1:]:\n",
        (ONE_TABLE,),
    ),
    Mutant(
        "model-failed-pair-revived-by-a-later-stratum", "model.py",
        "            for i in live:\n",
        "            for i in range(len(pairs)):\n",
        (ONE_TABLE, BATCH),
    ),
    Mutant(
        "model-counts-from-the-first-stratum", "model.py",
        "x_cells = cells[x][k]",
        "x_cells = cells[x][0]",
        (ONE_TABLE, BATCH),
    ),
    Mutant(
        "model-cells-kept-across-weights", "model.py",
        "if entry is None or entry[0] is not weights:",
        "if entry is None:",
        (BATCH,),
    ),
    Mutant(
        "model-no-empty-table-error", "model.py",
        "        if not strata:\n            raise EmptyTableError",
        "        if False:\n            raise EmptyTableError",
        ("tests/test_model_core.py::TestUniformIndependence::test_empty_table_is_degenerate",),
    ),
    Mutant(
        "model-dataset-weights-ignored", "model.py",
        "weigh = int.bit_count if layers is None else",
        "weigh = int.bit_count if True else",
        ("tests/test_properties.py::"
         "test_factorization_matches_the_fraction_oracle_on_weighted_rows",),
    ),
    Mutant(
        "model-parents-read-in-sorted-order", "model.py",
        "stratify(n, map(levels.__getitem__, mech.parents))",
        "stratify(n, map(levels.__getitem__, sorted(mech.parents)))",
        (COLUMNAR,),
    ),
    Mutant(
        "model-empty-projection-loses-its-row", "model.py",
        "return WorldTable(columns, [stratum for stratum, _ in strata])",
        "return WorldTable(columns, [stratum for stratum, _ in strata if stratum])",
        ("tests/test_model_core.py::TestEnumerateWorlds::"
         "test_an_empty_model_has_the_one_empty_world",),
    ),
    Mutant(
        "model-level-test-skips-the-first-level", "model.py",
        "return sum(mask for level, mask in levels.items() if test(level))",
        "return sum(mask for level, mask in list(levels.items())[1:] if test(level))",
        (COLUMNAR,),
    ),
    # one-digit world tables written by strided fills
    Mutant(
        "render-fill-stride-off-by-one", "render.py",
        "buf[slot::len(unit)] = column.translate(_ASCII_DIGITS)",
        "buf[slot::len(unit) + 1] = column.translate(_ASCII_DIGITS)",
        (f"{FILL_CASES}[two-keyed-columns-257-rows]",),
    ),
    Mutant(
        "render-fill-keys-percent-escaped", "render.py",
        '[label + "\\0" for label in labels]',
        '[label.replace("%", "%%") + "\\0" for label in labels]',
        (f"{FILL_CASES}[keys-with-percent-quote-and-non-ascii]",),
    ),
    Mutant(
        "render-fill-takes-a-two-digit-level", "render.py",
        "c.translate(None, bytes(range(10)))",
        "c.translate(None, bytes(range(11)))",
        ("tests/test_render.py::test_tables_beyond_one_digit_or_without_rows_take_no_fill[keyed-level-10]",),
    ),
    Mutant(
        "render-fill-separator-after-the-last-item", "render.py",
        'tail = "\\n" + "  " * level + "]"',
        'tail = ",\\n" + "  " * level + "]"',
        (f"{FILL_CASES}[objects-three-levels-down]",),
    ),
    Mutant(
        "render-fill-closing-bracket-at-the-wrong-indent", "render.py",
        'tail = "\\n" + "  " * level + "]"',
        'tail = "\\n" + "  " * (level + 1) + "]"',
        (f"{FILL_CASES}[objects-three-levels-down]",),
    ),
    # every other table joined with the fill's skeleton
    Mutant(
        "render-join-pieces-shifted-by-one-column", "render.py",
        "zip(map(repeat, pieces), rendered)",
        "zip(map(repeat, pieces[1:] + pieces[:1]), rendered)",
        (f"{JOIN_CASES}[keyed-strings]",),
    ),
    Mutant(
        "render-join-first-separator-kept", "render.py",
        '"".join(chain.from_iterable(zip(*slots)))[1:]',
        '"".join(chain.from_iterable(zip(*slots)))',
        (f"{JOIN_CASES}[lists-ints-past-64-bits]",),
    ),
    Mutant(
        "render-bytes-column-through-the-distinct-value-path", "render.py",
        "kinds = {int} if type(column) is bytes else",
        "kinds = {bool} if type(column) is bytes else",
        ("tests/test_render.py::test_int_and_bytes_columns_cost_no_call_per_value[keyed]",),
    ),
    Mutant(
        "render-column-values-one-level-too-shallow", "render.py",
        "_column(column, level + 2)",
        "_column(column, level + 1)",
        (f"{JOIN_CASES}[keyed-lists]",),
    ),
    Mutant(
        "render-list-of-equal-length-rows-to-the-table", "render.py",
        "    if isinstance(value, Records):\n",
        "    if (type(value) is list and value and {type(v) for v in value} == {list}\n"
        "            and len(set(map(len, value))) == 1):\n"
        "        value = Records(None, zip(*value), len(value))\n"
        "    if isinstance(value, Records):\n",
        ("tests/test_render.py::test_plain_lists_are_written_item_by_item[equal-length-int-rows]",),
    ),
)


def _pytest(tree: Path, tests: tuple[str, ...]) -> tuple[int, str, float]:
    """Run ``tests`` in one child pytest in ``tree``: its exit code, its
    output and its time.  No bytecode is written, so a restored file is
    never read from a cache built for its mutant."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    return done.returncode, done.stdout, time.perf_counter() - start


def main(argv: list[str]) -> int:
    unknown = set(argv) - {m.id for m in MUTANTS}
    if unknown:
        print(f"unknown mutant: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not argv or m.id in argv]
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch) / "repo"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks",
            ".perfbench_work"))
        tests = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
        code, out, took = _pytest(tree, tests)
        if code != 0:
            print(f"the unmutated tree fails its tests (exit {code}):\n{out}")
            return 1
        print(f"unmutated: {len(tests)} tests pass in {took:.1f} s")
        bad = 0
        for m in chosen:
            path = tree / "src" / "teleo" / m.path
            source = path.read_text(encoding="utf-8")
            if source.count(m.old) != 1:
                print(f"stale     {m.id}: its snippet is not in {m.path} exactly once")
                bad += 1
                continue
            path.write_text(source.replace(m.old, m.new), encoding="utf-8")
            try:
                code, out, took = _pytest(tree, m.tests)
            finally:
                path.write_text(source, encoding="utf-8")
            # pytest exits 1 when a test failed; 0 is a survivor, and any
            # other code means the tests did not run as asked
            verdict = {0: "survived", 1: "caught"}.get(code, f"error {code}")
            print(f"{verdict:<9} {m.id}  {took:.1f} s")
            if code != 1:
                bad += 1
                print(out)
    caught = len(chosen) - bad
    print(f"{len(chosen)} mutants: {caught} caught, {bad} not, "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
