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
PARSER_ROWS = "tests/test_cli.py::TestParser::test_rows_parse_as_the_oracle_parses"

MUTANTS = (
    Mutant(
        "render-bool-column-as-int", "render.py",
        '        labels[i] += "%d" if kinds == {int} else "%s"\n'
        "        if kinds != {int}:",
        '        labels[i] += "%d" if kinds <= {int, bool} else "%s"\n'
        "        if not kinds <= {int, bool}:",
        (f"{RECORDS_CASES}[records-format-chars-in-keys-and-cells]",),
    ),
    Mutant(
        "render-labels-in-declaration-order", "render.py",
        "order = sorted(range(len(keys)), key=keys.__getitem__)",
        "order = range(len(keys))",
        (f"{RECORDS_CASES}[records-unsorted-keys]",),
    ),
    Mutant(
        "render-unescaped-percent-in-key", "render.py",
        '_quote(keys[i]).replace("%", "%%") + ": "',
        '_quote(keys[i]) + ": "',
        (f"{RECORDS_CASES}[records-format-chars-in-keys-and-cells]",),
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
        "import itertools\n",
        "import itertools\nimport json\n",
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
        "columns, brackets = list(map(source.__getitem__, order)), \"{}\"",
        "columns, brackets = source, \"{}\"",
        ("tests/test_cli.py::TestJsonMode::test_finalize_json_reconstructs_the_table",),
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
