import ast
import gc
import hashlib
import importlib.util
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import teleo.model
import teleo.teleology
from teleo import __version__
from teleo.cli import cli
from teleo.reduction import build_reduction, project_reduction
from teleo.render import render_table
from teleo.speclang import load_model, print_model

from support import cli_oracle, cli_outcome, run_cli

ROOT = Path(__file__).resolve().parents[1]
SPEC = str(ROOT / "models" / "heating.tele")
GOLDEN = Path(__file__).resolve().parent / "golden"

WARM_CSV = "W,H,T,B,count\n1,0,1,0,5\n0,1,1,1,5\n"
ALL_CSV = "W,H,T,B\n0,0,0,0\n1,0,1,0\n0,1,1,1\n1,1,2,1\n"
# mild wins; warm, cheap, costly and notcold each see a row outside their worlds
VIOLATING_CSV = "W,H,T,B,count\n1,0,1,0,5\n0,1,1,1,5\n0,0,0,0,1\n"
CHAIN_SPEC = (
    "var X in 0..1\nvar Y in 0..1\nvar Z in 0..1\nedge X -> Y\nedge Y -> Z\n"
    "mech Y = sum(X)\nmech Z = sum(Y)\ndo X\n"
)
# enumerating the effects of A, each goal on T alone closes the cycle A -> B -> T -> A
SKIPPING_SPEC = (
    "var U in 0..1\nvar A in 0..1\nvar B in 0..1\nvar T in 0..2\n"
    "edge U -> A\nedge A -> B\nedge B -> T\nedge A -> T\n"
    "mech A = sum(U)\nmech B = sum(A)\nmech T = sum(B, A)\ndo A\n"
)


def golden(name: str) -> str:
    return (GOLDEN / name).read_text()


class TestGoldenOutput:
    def test_worlds_table(self):
        result = run_cli("worlds", SPEC)
        assert result.exit_code == 0
        assert result.stdout == golden("worlds_heating.txt")
        assert result.stderr == ""

    def test_finalize_warm(self):
        result = run_cli("finalize", SPEC, "--final", "warm")
        assert result.exit_code == 0
        assert result.stdout == golden("finalize_warm.txt")
        assert result.stderr == ""
        assert "W and H: dependent (expected)" in result.stdout

    def test_reduce_warm(self):
        result = run_cli("reduce", SPEC, "--final", "warm")
        assert result.exit_code == 0
        assert result.stdout == golden("reduce_warm.txt")
        assert result.stderr == ""

    def test_distinguish_warm_cheap(self):
        result = run_cli("distinguish", SPEC, "--final", "warm", "--final", "cheap")
        assert result.exit_code == 0
        assert result.stdout == golden("distinguish_warm_cheap.txt")
        assert result.stderr == ""


class TestHumanOutput:
    def test_a_final_is_not_distinguishable_from_itself(self):
        result = run_cli("distinguish", SPEC, "--final", "warm", "--final", "warm")
        assert (result.exit_code, result.stderr) == (0, "")
        assert result.stdout == (
            "warm vs warm: not distinguishable (identical compatible worlds)\n"
        )

    def test_a_reduction_that_keeps_every_separation_says_so(self):
        result = run_cli("reduce", SPEC, "--final", "cheap")
        assert (result.exit_code, result.stderr) == (0, "")
        assert result.stdout.endswith("  separation disagreements: none\n")


class TestIntervene:
    def test_exogenous_target_reproduces_base_table(self):
        result = run_cli("intervene", SPEC, "--do", "H")
        assert result.exit_code == 0
        assert result.stdout == golden("worlds_heating.txt")
        assert result.stderr == ""

    def test_target_defaults_to_declared_do(self):
        result = run_cli("intervene", SPEC)
        assert result.exit_code == 0
        assert result.stdout == golden("worlds_heating.txt")
        assert result.stderr == ""

    def test_missing_target_without_declaration(self, tmp_path):
        spec = tmp_path / "bare.tele"
        spec.write_text("var X in 0..1\nvar Y in 0..1\nedge X -> Y\nmech Y = sum(X)\n")
        result = run_cli("intervene", str(spec))
        assert result.exit_code == 1


class TestIdentify:
    def test_unique_winner_exits_zero(self, tmp_path):
        data = tmp_path / "obs.csv"
        data.write_text(WARM_CSV)
        result = run_cli("identify", SPEC, str(data))
        assert result.exit_code == 0
        assert "winner: warm" in result.stdout

    def test_no_compatible_hypothesis_exits_two(self, tmp_path):
        data = tmp_path / "obs.csv"
        data.write_text(ALL_CSV)
        result = run_cli("identify", SPEC, str(data))
        assert result.exit_code == 2
        assert "no compatible hypothesis" in result.stdout

    def test_tied_equivalence_class_exits_three(self, tmp_path):
        spec = tmp_path / "tied.tele"
        spec.write_text(
            Path(SPEC).read_text()
            + "final warm2 { effects: T; goal: T = 1 }\n"
        )
        data = tmp_path / "obs.csv"
        data.write_text(WARM_CSV)
        result = run_cli("identify", str(spec), str(data))
        assert result.exit_code == 3
        assert "tied: warm, warm2" in result.stdout

    def test_enumerated_candidates(self, tmp_path):
        data = tmp_path / "obs.csv"
        data.write_text(WARM_CSV)
        result = run_cli("identify", SPEC, str(data), "--enumerate")
        assert result.exit_code == 0
        assert "winner: T=1" in result.stdout

    def test_effect_set_variants_of_the_winning_goal_tie(self, tmp_path):
        # every variant of a goal has the goal's compatible worlds
        data = tmp_path / "obs.csv"
        data.write_text(WARM_CSV)
        result = run_cli("identify", SPEC, str(data), "--enumerate", "--max-effects", "2")
        assert result.exit_code == 3
        lines = result.stdout.splitlines()
        assert lines[1].startswith("rank 1: T=1 [class 1] support ok")
        assert lines[2].startswith("rank 2: T=1[T,B] [class 1] support ok")
        assert lines[-1] == "tied: T=1, T=1[T,B]"

    def test_ranking_is_printed_most_specific_first(self, tmp_path):
        data = tmp_path / "obs.csv"
        data.write_text(WARM_CSV)
        result = run_cli("identify", SPEC, str(data))
        lines = result.stdout.splitlines()
        assert lines[1].startswith("rank 1: warm")

    def test_cyclic_candidates_are_skipped_with_a_diagnostic(self, tmp_path):
        # turning Z's arrow toward X closes X -> Y -> Z -> X, so both Z
        # goals over the effect set {Z} are skipped; {Y, Z} reverses X -> Y
        spec = tmp_path / "chain.tele"
        spec.write_text(CHAIN_SPEC)
        data = tmp_path / "obs.csv"
        data.write_text("X,Y,Z\n0,0,0\n1,1,1\n")
        args = ("identify", str(spec), str(data), "--enumerate", "--max-effects", "2")
        skipped = [
            f"skipped candidate Z={level}: reversing arrows toward X for effects "
            "{Z} breaks the graph: graph has a cycle through X, Y, Z"
            for level in (0, 1)
        ]
        result = run_cli(*args)
        assert result.exit_code == 2
        assert result.stderr == "".join(line + "\n" for line in skipped)
        assert result.stdout == (
            "2 observations, 2 distinct rows\n"
            + "".join(
                f"rank {rank}: {name} [class {cls}] support violated "
                "(1 distinct observed row outside)\n"
                for rank, (name, cls) in enumerate(
                    [("Y=0", 1), ("Y=1", 2), ("Y=0[Y,Z]", 1),
                     ("Y=1[Y,Z]", 2), ("Z=0[Y,Z]", 1), ("Z=1[Y,Z]", 2)],
                    start=1,
                )
            )
            + "no compatible hypothesis\n"
        )
        result = run_cli("--json", *args)
        doc = json.loads(result.stdout)
        assert result.exit_code == 2 == doc["result"]["exit_code"]
        assert doc["diagnostics"] == skipped
        assert len(doc["result"]["ranking"]) == 6


class TestJsonMode:
    def test_worlds_json_reconstructs_the_table(self):
        result = run_cli("--json", "worlds", SPEC)
        doc = json.loads(result.stdout)
        assert doc["command"] == "worlds"
        assert doc["diagnostics"] == []
        rebuilt = render_table(doc["result"]["columns"], doc["result"]["worlds"])
        assert rebuilt == golden("worlds_heating.txt")

    def test_worlds_json_carries_assignment_objects(self):
        result = run_cli("--json", "worlds", SPEC)
        doc = json.loads(result.stdout)
        assignments = doc["result"]["assignments"]
        assert len(assignments) == 4
        assert {"W": 0, "H": 0, "T": 0, "B": 0} in assignments

    def test_an_empty_model_has_the_one_empty_world(self, tmp_path):
        # the empty assignment is one world: a table of one row over no columns
        spec = tmp_path / "empty.tele"
        spec.write_text("")
        result = run_cli("--json", "worlds", str(spec))
        assert result.exit_code == 0
        assert json.loads(result.stdout)["result"] == {
            "columns": [], "worlds": [[]], "assignments": [{}]
        }
        assert '"assignments": [\n      {}\n    ],' in result.stdout
        human = run_cli("worlds", str(spec))
        assert (human.exit_code, human.stdout, human.stderr) == (0, "\n\n", "")

    def test_finalize_json_reconstructs_the_table(self):
        result = run_cli("--json", "finalize", SPEC, "--final", "warm")
        doc = json.loads(result.stdout)
        rebuilt = render_table(doc["result"]["columns"], doc["result"]["worlds"])
        assert rebuilt in golden("finalize_warm.txt")
        dep = {
            (d["x"], d["y"], tuple(d["given"])): d["independent"]
            for d in doc["result"]["dependence"]
        }
        assert dep[("W", "H", ())] is False

    def test_reduce_json_reconstructs_the_table(self):
        result = run_cli("--json", "reduce", SPEC, "--final", "warm")
        doc = json.loads(result.stdout)
        rebuilt = render_table(doc["result"]["columns"], doc["result"]["worlds"])
        assert rebuilt in golden("reduce_warm.txt")
        structure = doc["result"]["structure"]
        assert structure["action_listens_final"] == ["T"]
        assert structure["action_listens_reduction"] == ["W"]

    def test_identify_json_carries_the_exit_code(self, tmp_path):
        data = tmp_path / "obs.csv"
        data.write_text(ALL_CSV)
        result = run_cli("--json", "identify", SPEC, str(data))
        doc = json.loads(result.stdout)
        assert doc["result"]["exit_code"] == 2 == result.exit_code
        assert doc["result"]["winner"] is None

    @pytest.mark.parametrize(
        "args",
        [
            ["worlds", SPEC],
            ["intervene", SPEC],
            ["finalize", SPEC, "--final", "warm"],
            # mild allows every world warm does, so only_first is empty
            ["distinguish", SPEC, "--final", "warm", "--final", "mild"],
            ["reduce", SPEC, "--final", "warm"],
            ["identify", SPEC, "VIOLATING_CSV"],
            ["identify", SPEC, "VIOLATING_CSV", "--enumerate", "--max-effects", "2"],
        ],
        ids=lambda args: "-".join(a for a in args if a not in (SPEC, "--final")),
    )
    def test_json_bytes_are_the_stdlib_encoding(self, tmp_path, args):
        data = tmp_path / "obs.csv"
        data.write_text(VIOLATING_CSV)
        args = [str(data) if a == "VIOLATING_CSV" else a for a in args]
        result = run_cli("--json", *args)
        doc = json.loads(result.stdout)
        assert result.stdout == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert result.stderr == ""
        assert result.exit_code == doc["result"].get("exit_code", 0)
        if args[0] == "identify":
            ranking = doc["result"]["ranking"]
            assert any(e["violating_rows"] for e in ranking)
            checks = [c for e in ranking for c in e["dependence_checks"]]
            # unconditional pair checks have one stratum, which the data
            # shows, so every skipped_strata list is present and empty
            assert checks and all(c["skipped_strata"] == [] for c in checks)

    def test_no_command_imports_json(self, tmp_path, monkeypatch):
        # the writer imports json only for a value or a key of a type that
        # no command writes, so a blocked import fails no command
        commands = TestCollector.commands(tmp_path)
        monkeypatch.setitem(sys.modules, "json", None)
        for argv, code in commands:
            assert run_cli(*argv).exit_code == code, argv

    def test_json_never_builds_the_human_text(self, monkeypatch, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("render_table called")

        monkeypatch.setattr("teleo.cli.render_table", refuse)
        data = tmp_path / "obs.csv"
        data.write_text(WARM_CSV)
        commands = [
            ["worlds", SPEC],
            ["intervene", SPEC],
            ["finalize", SPEC, "--final", "warm"],
            ["distinguish", SPEC, "--final", "warm", "--final", "cheap"],
            ["identify", SPEC, str(data), "--enumerate"],
            ["reduce", SPEC, "--final", "warm"],
        ]
        for args in commands:
            result = run_cli("--json", *args)
            assert result.exit_code == 0, (args, result.stderr)
            assert json.loads(result.stdout)["command"] == args[0]
        # the human text of every command but identify renders a table
        for args in commands:
            if args[0] == "identify":
                assert run_cli(*args).exit_code == 0
            else:
                with pytest.raises(AssertionError, match="render_table called"):
                    run_cli(*args)


def _load_benchmark_generator():
    """Import ``perfbench/gen.py``, which is a script, not a package module."""
    name = "perfbench_gen"
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


BENCHMARK_GEN = _load_benchmark_generator()
BENCHMARK_DIGESTS = json.loads((ROOT / "perfbench" / "expected.json").read_text())["digests"]


class TestBenchmarkInputs:
    """The benchmark's generated inputs, much larger than the heating model,
    give the exit code and stdout digest recorded with the benchmark."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("workload", sorted(BENCHMARK_GEN.GENERATORS))
    def test_output_matches_the_recorded_digest(self, tmp_path, workload, seed):
        args = BENCHMARK_GEN.GENERATORS[workload](seed).write(tmp_path)
        result = run_cli("--json", *args)
        digest = hashlib.sha256(result.stdout.encode()).hexdigest()
        assert [result.exit_code, digest] == BENCHMARK_DIGESTS[workload][str(seed)]

    @pytest.mark.parametrize(
        "workload, context, code, length, digest",
        [
            ("finalize_grid", None, 0, 200170,
             "93dae30ba4f17dd565474501b3035f67c7e1aa4a951c3aa95305e60cc4561fa9"),
            ("identify_enumerate", None, 3, 733,
             "6c4f71e7f21db4ef6b230f636fcb27a38c36ded7af79d4d2318df1f542d6b548"),
            ("reduce_ternary", None, 0, 167439,
             "68abd56f1705ff6f68150e18ba1faccc5240f0ed0ba2f562b1de9cbdf426144a"),
            # the input of test_reduce_on_a_19683_context_survey
            ("reduce_ternary", 9, 0, 1654525,
             "07d0ce4505e0b99fe841e20ab0d3ad680341bf8d932770c646a44333a9caedb7"),
        ],
        ids=["finalize_grid", "identify_enumerate", "reduce_ternary", "reduce_19683"],
    )
    def test_human_output_matches_the_recorded_digest(
        self, tmp_path, monkeypatch, workload, context, code, length, digest
    ):
        # seed 3 without --json: the text tables, which the benchmark never writes
        if context is not None:
            monkeypatch.setitem(BENCHMARK_GEN.WORKLOADS[workload], "context", context)
        args = BENCHMARK_GEN.GENERATORS[workload](3).write(tmp_path)
        result = run_cli(*args)
        assert (result.exit_code, len(result.stdout)) == (code, length)
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("workload", sorted(BENCHMARK_GEN.GENERATORS))
    def test_spec_round_trips_through_the_printer(self, workload, seed):
        spec = load_model(BENCHMARK_GEN.GENERATORS[workload](seed).model.spec())
        assert load_model(print_model(spec)) == spec

    def test_finalize_on_a_256_row_compatible_table(
        self, tmp_path, monkeypatch
    ):
        # finalize_grid with 11 context variables: 2^12 worlds, the goal in
        # 256 of them, 3,610 statements on one compatible table
        monkeypatch.setitem(BENCHMARK_GEN.WORKLOADS["finalize_grid"], "context", 11)
        args = BENCHMARK_GEN.GENERATORS["finalize_grid"](3).write(tmp_path)
        result = run_cli("--json", *args)
        assert result.exit_code == 0
        assert len(json.loads(result.stdout)["result"]["assignments"]) == 256
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
            "007785d3b576ba73095341b310f8392499583797cc7afba7606d4d19c0113196"
        )

    def test_reduce_on_a_19683_context_survey(self, tmp_path, monkeypatch):
        # reduce_ternary with 9 context variables: 2 * 3^9 surgered worlds,
        # one reduction world per context, and a 14.6 MB document
        monkeypatch.setitem(BENCHMARK_GEN.WORKLOADS["reduce_ternary"], "context", 9)
        args = BENCHMARK_GEN.GENERATORS["reduce_ternary"](3).write(tmp_path)
        result = run_cli("--json", *args)
        assert result.exit_code == 0
        assert len(result.stdout) == 14556614
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
            "538f6cb88d62efca46aef0b4bc952570db8bfcab7d91cb6ef52d6a2353c2ef00"
        )

    def test_finalize_runs_each_kernel_once_per_statement(self, tmp_path, monkeypatch):
        # the identity the traced benchmark run checks: over n variables the
        # grid has C(n,2)(n-1) statements, each with one d_separated and one
        # uniform_independent call, as bound in teleo.teleology
        calls = dict.fromkeys(("d_separated", "uniform_independent"), 0)
        for name in calls:
            kernel = getattr(teleo.teleology, name)

            def counting(*args, _kernel=kernel, _name=name):
                calls[_name] += 1
                return _kernel(*args)

            monkeypatch.setattr(teleo.teleology, name, counting)
        args = BENCHMARK_GEN.GENERATORS["finalize_grid"](3).write(tmp_path)
        result = run_cli("--json", *args)
        n = len(json.loads(result.stdout)["result"]["columns"])
        assert (result.exit_code, n) == (0, 18)
        grid = math.comb(n, 2) * (n - 1)
        assert calls == {"d_separated": grid, "uniform_independent": grid}
        assert grid == 2601

    def test_the_reduction_checks_only_the_tables_it_makes(self, monkeypatch):
        # the pre-action copy G0, the intention, the action and the
        # post-action copy G1 are tabulated; no downstream mechanism of this
        # model reads G, so all nine are passed through with their check
        spec = load_model(BENCHMARK_GEN.GENERATORS["reduce_ternary"](3).model.spec())
        checked = _count_checks(monkeypatch)
        r = build_reduction(spec.finals["g"], spec.rest)
        assert checked == ["G0", "I", "A", "G1"]
        assert len(r.scm.mechanisms) == 13
        assert r.scm.mechanisms["X1"] is spec.mstar.model.mechanisms["X1"]

    def test_the_projection_checks_only_the_tables_it_makes(self, monkeypatch):
        # the mechanisms that name no post-action copy are passed through
        # with their check; the action's new table and the goal copy G1,
        # renamed G, are checked (the parent checked all 11 tables)
        spec = load_model(BENCHMARK_GEN.GENERATORS["reduce_ternary"](3).model.spec())
        r = build_reduction(spec.finals["g"], spec.rest)
        checked = _count_checks(monkeypatch)
        projected = project_reduction(r)
        assert checked == ["A", "G"]
        assert len(projected.mechanisms) == 11
        assert projected.mechanisms["X1"] is r.scm.mechanisms["X1"]
        assert projected.variable("U1") is r.scm.variable("U1")


def _count_checks(monkeypatch) -> list[str]:
    """The child of each mechanism whose table ``check_table`` checks from
    now on; a check that returns at once is not counted."""
    checked = []

    def counting(mech, variables):
        mark = mech.__dict__.get("_checked")
        check_table(mech, variables)
        if mech.__dict__["_checked"] is not mark:
            checked.append(mech.child)

    check_table = teleo.model.check_table
    monkeypatch.setattr(teleo.model, "check_table", counting)
    return checked


class TestCollector:
    """Commands run with the cyclic collector paused (README, "The
    collector"), which is only sound while no command leaves cyclic garbage
    behind, and the pause must end with the command."""

    @staticmethod
    def commands(tmp_path) -> list[tuple[tuple[str, ...], int]]:
        """Every command with its exit code: on the heating model, with and
        without ``--json``, on the seed-3 benchmark inputs, on three errors
        and on a spec whose enumeration skips candidates."""
        (tmp_path / "warm.csv").write_text(WARM_CSV)
        (tmp_path / "skipping.tele").write_text(SKIPPING_SPEC)
        (tmp_path / "skipping.csv").write_text("U,A,B,T\n0,0,0,0\n1,1,1,2\n")
        warm, skipping = str(tmp_path / "warm.csv"), str(tmp_path / "skipping.tele")
        heating = [
            (("worlds", SPEC), 0),
            (("intervene", SPEC), 0),
            (("finalize", SPEC, "--final", "warm"), 0),
            (("distinguish", SPEC, "--final", "warm", "--final", "cheap"), 0),
            (("identify", SPEC, warm), 0),
            (("identify", SPEC, warm, "--enumerate", "--max-effects", "2"), 3),
            (("reduce", SPEC, "--final", "warm"), 0),
        ]
        benchmark = [
            (("--json", *BENCHMARK_GEN.GENERATORS[w](3).write(tmp_path / w)),
             BENCHMARK_DIGESTS[w]["3"][0])
            for w in sorted(BENCHMARK_GEN.GENERATORS)
        ]
        return [
            *heating,
            *((("--json", *argv), code) for argv, code in heating),
            *benchmark,
            (("worlds", str(tmp_path / "nowhere.tele")), 1),
            (("finalize", SPEC, "--final", "nope"), 1),
            # the dataset's columns are not the spec's variables
            (("identify", skipping, warm, "--enumerate", "--max-effects", "2"), 1),
            (("identify", skipping, str(tmp_path / "skipping.csv"), "--enumerate",
              "--max-effects", "2"), 2),
        ]

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_no_command_leaves_cyclic_garbage(self, tmp_path, enabled):
        commands = self.commands(tmp_path)
        before = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            for argv, code in commands:
                gc.collect()
                result = run_cli(*argv)
                after = (result.exit_code, gc.collect(), gc.isenabled())
                assert after == (code, 0, enabled), argv
        finally:
            (gc.enable if before else gc.disable)()


class TestErrorHandling:
    def test_missing_spec_file(self):
        result = run_cli("worlds", "nowhere.tele")
        assert result.exit_code == 1
        assert result.stdout == ""

    def test_parse_error_reports_line(self, tmp_path):
        spec = tmp_path / "bad.tele"
        spec.write_text("var W in 0..1\nvar W in 0..1\n")
        result = run_cli("worlds", str(spec))
        assert result.exit_code == 1
        assert result.stdout == ""
        assert "line 2" in result.stderr

    def test_final_effect_outside_the_descendants_reports_its_line(
        self, tmp_path
    ):
        # the final is not needed to list the worlds, but the spec is refused
        spec = tmp_path / "upstream.tele"
        text = Path(SPEC).read_text()
        spec.write_text(text.replace("B; goal: B = 0", "W; goal: W = 0"))
        result = run_cli("worlds", str(spec))
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == (
            "error: line 26: "
            "intended effects must be causal descendants of H; W are not\n"
        )

    def test_non_ascii_digit_is_an_error_not_a_crash(self, tmp_path):
        spec = tmp_path / "superscript.tele"
        spec.write_text("var W in 0..\u00b2\n", encoding="utf-8")
        result = run_cli("worlds", str(spec))
        assert result.exit_code == 1
        assert result.stdout == ""
        # an escaped exception would propagate out of run_cli instead
        assert result.stderr.startswith("error: line 1")
        assert "Traceback" not in result.stderr

    def test_non_ascii_digit_in_dataset_is_an_error_not_a_crash(self, tmp_path):
        data = tmp_path / "obs.csv"
        data.write_text("W,H,T,B\n\u0661,0,1,0\n", encoding="utf-8")
        result = run_cli("identify", SPEC, str(data))
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error: line 2: non-integer")
        assert "Traceback" not in result.stderr

    def test_integer_past_the_digit_limit_is_an_error_not_a_crash(
        self, tmp_path
    ):
        spec = tmp_path / "long.tele"
        spec.write_text("var X in 0.." + "9" * 5000 + "\n")
        data = tmp_path / "obs.csv"
        data.write_text("W,H,T,B\n" + "1" * 5000 + ",0,1,0\n")
        for args, message in (
            (
                ("worlds", str(spec)),
                "line 1, column 13: integer literal of 5000 characters is too long",
            ),
            (
                ("identify", SPEC, str(data)),
                "line 2: integer field of 5000 characters is too long",
            ),
        ):
            start = time.perf_counter()
            result = run_cli(*args)
            assert time.perf_counter() - start < 1.0
            assert result.exit_code == 1
            assert result.stdout == ""
            assert result.stderr == f"error: {message}\n"

    def test_candidate_cap_fails_before_building_subsets(self, tmp_path):
        # 40 binary children of the action, effect sets of up to 20
        children = [f"C{i}" for i in range(40)]
        spec = tmp_path / "wide.tele"
        spec.write_text(
            "var A in 0..1\ndo A\n"
            + "".join(
                f"var {c} in 0..1\nedge A -> {c}\nmech {c} = sum(A)\n"
                for c in children
            )
        )
        data = tmp_path / "obs.csv"
        data.write_text(",".join(["A", *children]) + "\n" + ",".join(["0"] * 41) + "\n")
        args = ("identify", str(spec), str(data), "--enumerate", "--max-effects", "20")
        start = time.perf_counter()
        result = run_cli(*args)
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 1
        assert result.stdout == ""
        # each of the 80 levels is in sum_{k<=20} C(39, k-1) = 2^38 subsets
        assert result.stderr == (
            f"error: hypothesis enumeration needs {80 * 2**38} candidates, "
            "cap is 4096\n"
        )

    def test_spec_that_is_not_utf8_is_an_error_not_a_crash(self, tmp_path):
        spec = tmp_path / "bad.tele"
        spec.write_bytes(b"\xff\xfevar W in 0..1\n")
        result = run_cli("worlds", str(spec))
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == (
            f"error: model spec {str(spec)!r} is not UTF-8 text (byte 0)\n"
        )

    def test_dataset_that_is_not_utf8_is_an_error_not_a_crash(self, tmp_path):
        data = tmp_path / "obs.csv"
        data.write_bytes(b"W,H,T,B\n\xff\xfe,0,1,0\n")
        result = run_cli("identify", SPEC, str(data))
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == (
            f"error: dataset {str(data)!r} is not UTF-8 text (byte 8)\n"
        )

    def test_a_byte_order_mark_is_dropped(self, tmp_path):
        # spreadsheets save "CSV UTF-8" with one before the header
        spec = tmp_path / "heating.tele"
        spec.write_text("\ufeff" + Path(SPEC).read_text(encoding="utf-8"), encoding="utf-8")
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(WARM_CSV, encoding="utf-8")
        marked.write_text("\ufeff" + WARM_CSV, encoding="utf-8")
        for args, without in (
            (("worlds", str(spec)), ("worlds", SPEC)),
            (("--json", "finalize", str(spec), "--final", "warm"),
             ("--json", "finalize", SPEC, "--final", "warm")),
            (("identify", str(spec), str(marked)), ("identify", SPEC, str(plain))),
        ):
            result, expected = run_cli(*args), run_cli(*without)
            assert expected.exit_code == 0
            assert (result.exit_code, result.stdout, result.stderr) == (
                expected.exit_code, expected.stdout, expected.stderr)

    def test_a_bad_byte_after_a_byte_order_mark_is_placed_in_the_file(self, tmp_path):
        data = tmp_path / "obs.csv"
        data.write_bytes(b"\xef\xbb\xbfW,H,T,B\n\xff\xfe,0,1,0\n")
        result = run_cli("identify", SPEC, str(data))
        assert result.exit_code == 1
        assert result.stderr == (
            f"error: dataset {str(data)!r} is not UTF-8 text (byte 11)\n"
        )

    def test_unreadable_spec_is_an_error_not_a_crash(self, monkeypatch):
        def refuse(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr("pathlib.Path.read_text", refuse)
        result = run_cli("worlds", SPEC)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == (
            f"error: cannot read model spec {SPEC!r}: Permission denied\n"
        )

    def test_a_directory_is_not_found(self, tmp_path):
        result = run_cli("worlds", str(tmp_path))
        assert (result.exit_code, result.stdout) == (1, "")
        assert result.stderr == f"error: model spec {str(tmp_path)!r} not found\n"

    @pytest.mark.parametrize(
        "spec, options, message",
        [
            (CHAIN_SPEC.replace("do X\n", ""), ("--enumerate",),
             "spec declares no intervention to enumerate for"),
            (CHAIN_SPEC, (), "spec declares no final blocks; use --enumerate"),
            (CHAIN_SPEC.replace("do X\n", "do Z\n"), ("--enumerate",),
             "do(Z) has no descendants, so there are no goal hypotheses to enumerate"),
        ],
        ids=["enumerate-without-do", "no-finals", "enumerate-a-leaf"],
    )
    def test_identify_needs_candidates(self, tmp_path, spec, options, message):
        (tmp_path / "chain.tele").write_text(spec)
        (tmp_path / "obs.csv").write_text("X,Y,Z\n0,0,0\n")
        args = (str(tmp_path / "chain.tele"), str(tmp_path / "obs.csv"), *options)
        result = run_cli("identify", *args)
        assert (result.exit_code, result.stdout) == (1, "")
        assert result.stderr == f"error: {message}\n"

    def test_unknown_final_name(self):
        result = run_cli("finalize", SPEC, "--final", "nope")
        assert result.exit_code == 1
        assert result.stdout == ""

    def test_distinguish_needs_two_names(self):
        result = run_cli("distinguish", SPEC, "--final", "warm")
        assert result.exit_code == 1
        assert result.stdout == ""

    def test_dataset_domain_error_reports_line(self, tmp_path):
        data = tmp_path / "obs.csv"
        data.write_text("W,H,T,B\n0,1,5,1\n")
        result = run_cli("identify", SPEC, str(data))
        assert result.exit_code == 1
        assert result.stdout == ""
        assert "line 2" in result.stderr

    def test_max_effects_below_one_is_an_error(self, tmp_path):
        spec = tmp_path / "chain.tele"
        spec.write_text(CHAIN_SPEC)
        data = tmp_path / "obs.csv"
        data.write_text("X,Y,Z\n0,0,0\n")
        args = ("identify", str(spec), str(data), "--enumerate", "--max-effects", "0")
        result = run_cli(*args)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "error: --max-effects must be at least 1\n"

    def test_unreachable_goal_is_reported_not_crashed(self, tmp_path):
        spec = tmp_path / "far.tele"
        spec.write_text(
            "var X in 0..1\nvar Y in 0..1\nvar Z in 0..2\n"
            "edge X -> Y\nedge Y -> Z\n"
            "mech Y = sum(X)\nmech Z = sum(Y)\n"
            "do Y\n"
            "final far { effects: Z; goal: Z = 2 }\n"
        )
        result = run_cli("finalize", str(spec), "--final", "far")
        assert result.exit_code == 0
        assert "goal unreachable" in result.stdout


class TestGlobalFlags:
    def test_version(self):
        result = run_cli("--version")
        assert result.exit_code == 0
        assert __version__ in result.stdout

    def test_seed_is_an_unknown_option(self):
        result = run_cli("--seed", "7", "worlds", SPEC)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert "--seed" in result.stderr
        assert "Traceback" not in result.stderr

    def test_double_dash_before_the_command_ends_the_options(self):
        result = run_cli("--json", "--", "worlds", SPEC)
        assert result == run_cli("--json", "worlds", SPEC)
        assert result.exit_code == 0

    @pytest.mark.parametrize(
        "args",
        [
            ("finalize", SPEC, "--final", "warm"),
            ("--json", "finalize", SPEC, "--final", "warm"),
            ("distinguish", SPEC, "--final", "warm", "--final", "cheap"),
            ("worlds", SPEC),
        ],
        ids=["finalize", "json-finalize", "distinguish", "worlds"],
    )
    def test_a_final_double_dash_ends_no_options(self, args):
        result = run_cli(*args, "--")
        assert result == run_cli(*args)
        assert result.exit_code == 0 and result.stdout

    def test_a_double_dash_after_an_earlier_one_is_a_positional(self):
        assert run_cli("worlds", "--", SPEC) == run_cli("worlds", SPEC)
        result = run_cli("finalize", "--final", "warm", "--", "--")
        assert result.exit_code == 1
        assert result.stderr == "error: model spec '--' not found\n"
        result = run_cli("worlds", SPEC, "--", "--")
        assert result.stderr == "error: unrecognized arguments: --\n"


USAGE_ERRORS = [
    pytest.param((), "COMMAND", id="bare"),
    pytest.param(("frobnicate", SPEC), "'frobnicate'", id="unknown-command"),
    pytest.param(("worlds",), "SPEC", id="missing-spec"),
    pytest.param(("finalize", SPEC), "--final", id="missing-final"),
    pytest.param(("--seed", "7", "worlds", SPEC), "--seed", id="seed-before-command"),
    pytest.param(("--js", "worlds", SPEC), "--js", id="abbreviated-json"),
    pytest.param(("identify", SPEC, "obs.csv", "--max", "2"), "--max",
                 id="abbreviated-max-effects"),
    pytest.param(("worlds", SPEC, "--json"), "--json", id="json-after-command"),
    pytest.param(("identify", SPEC, "obs.csv", "--max-effects", "abc"), "'abc'",
                 id="max-effects-not-int"),
    pytest.param(("reduce", SPEC, "--final", "warm", "--rest", "x"), "'x'",
                 id="rest-not-int"),
    pytest.param(("worlds", SPEC, "extra"), "extra", id="extra-positional"),
    pytest.param(("identify", SPEC, "obs.csv", "--max-effects", "3"),
                 "error: --max-effects needs --enumerate",
                 id="max-effects-without-enumerate"),
    pytest.param(("identify", SPEC, "obs.csv", "--enumerate", "--max-effects", "0"),
                 "error: --max-effects must be at least 1", id="max-effects-below-one"),
]
HELP = [("--help",), ("-h",), ("identify", "--help")]
# the argparse oracle's command parsers by name
ORACLE_COMMANDS = cli_oracle._subparsers._group_actions[0].choices


class TestUsageErrors:
    """Every usage error is one ``error:`` line on standard error, naming
    the offending token where there is one, and exit code 1."""

    @pytest.mark.parametrize("args, named", USAGE_ERRORS)
    def test_one_line_and_exit_one(self, args, named):
        result = run_cli(*args)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n")
        assert named in result.stderr

    @pytest.mark.parametrize("args", HELP)
    def test_help_prints_usage_and_exits_zero(self, args):
        result = run_cli(*args)
        assert result.exit_code == 0
        assert result.stdout.startswith("usage: teleo")
        assert result.stderr == ""

    def test_help_names_every_command(self):
        result = run_cli("--help")
        assert (result.exit_code, result.stderr) == (0, "")
        for name, parser in ORACLE_COMMANDS.items():
            summary = parser.description.splitlines()[0]
            assert f"  {name}" in result.stdout and summary in result.stdout, name

    def test_a_command_s_help_names_its_arguments(self):
        for name, parser in ORACLE_COMMANDS.items():
            result = run_cli(name, "--help")
            assert (result.exit_code, result.stderr) == (0, ""), name
            assert result.stdout.startswith(f"usage: teleo {name} "), name
            for action in parser._actions:
                if action.option_strings:
                    assert action.option_strings[-1] in result.stdout, (name, action)
                    assert action.help in result.stdout, (name, action)
                else:
                    assert f"  {action.metavar}\n" in result.stdout, (name, action)


# the rows of TestUsageErrors and TestGlobalFlags, then the grammar's corners:
# options before and after positionals, "=" values, negative numbers,
# repeated options and "--" in each position
PARSER_ROWS = [
    *(param.values[0] for param in USAGE_ERRORS),
    *HELP,
    ("--version",), ("--json", "--version", "--seed"), ("--version", "-h"),
    ("--json", "--", "worlds", SPEC),
    *(args + ("--",) for args in [
        ("finalize", SPEC, "--final", "warm"),
        ("--json", "finalize", SPEC, "--final", "warm"),
        ("distinguish", SPEC, "--final", "warm", "--final", "cheap"),
        ("worlds", SPEC),
    ]),
    ("worlds", "--", SPEC), ("finalize", "--final", "warm", "--", "--"),
    ("worlds", SPEC, "--", "--"),
    ("finalize", "--final", "warm", SPEC), ("finalize", SPEC, "--final=warm"),
    ("identify", "--enumerate", SPEC, "--max-effects=2", "obs.csv"),
    ("identify", SPEC, "--max-effects", "2", "obs.csv", "--enumerate"),
    ("reduce", SPEC, "--final", "warm", "--rest", "-1"),
    ("reduce", SPEC, "--final", "warm", "--rest", "-1.5"),
    ("reduce", SPEC, "--final", "warm", "--rest", "-x"),
    ("intervene", SPEC, "--do", "-1"), ("intervene", SPEC, "--do", "-a b"),
    ("finalize", SPEC, "--final", "warm", "--final", "cheap"),
    ("reduce", SPEC, "--final", "a", "--rest", "1", "--rest", "2", "--final", "b"),
    ("distinguish", SPEC, "--final", "warm", "--final=cheap", "--final", "x"),
    ("identify", SPEC, "obs.csv", "--enumerate=x"),
    ("identify", SPEC, "obs.csv", "--enumerate", "--enumerate"),
    ("worlds", "-"), ("-", "worlds", SPEC), ("--", "-", SPEC), ("worlds", "-", "-"),
    ("--",), ("--", "--"), ("--", "--", "worlds", SPEC), ("--json", "--"),
    ("worlds", "--"), ("worlds", "--", "--"), ("worlds", "--", "--", "--"),
    ("finalize", SPEC, "--final", "--"), ("finalize", SPEC, "--", "--final", "warm"),
    ("finalize", SPEC, "--final=--"), ("identify", SPEC, "--", "--"),
    ("identify", "--", SPEC, "obs.csv"), ("identify", SPEC, "--", "obs.csv", "x"),
    ("reduce", SPEC, "--final", "warm", "--rest=--"),
    ("finalize", SPEC, "--final="), ("finalize", SPEC, "--final=a=b"),
    ("finalize", SPEC, "--final"), ("finalize", SPEC, "--final", "--json"),
    ("worlds", SPEC, "--final", "warm"), ("worlds", SPEC, "-x", "a", "--y=1"),
    ("worlds", "-hx"), ("worlds", "-hh"), ("worlds", "-h="), ("worlds", "-h=h"),
    ("worlds", "--help=x"), ("worlds", SPEC, "extra", "-h"),
    ("identify", SPEC, "--max-effects", "abc", "-h"), ("worlds", "", ""),
    ("finalize", "--final", "a b", "-a b"), ("worlds", "-1\n"),
]

_BEFORE = ["--json", "--json", "--", "--version", "-h", "--seed", "-1", "-", "--json=1"]
_COMMAND = [*ORACLE_COMMANDS] * 3 + [
    "frobnicate", "--", "-x", "-1", "",
]
_AFTER = [
    "m.tele", "obs.csv", "warm", "x", "2", "0", "-1", "-1.5", "-", "--", "--",
    "--final", "--final", "--final=cheap", "--final=", "--final=--", "--do", "--do=H",
    "--enumerate", "--enumerate=x", "--max-effects", "--max-effects=abc",
    "--max-effects=2", "--rest", "--rest=-2", "--max", "--fin", "--json", "--version",
    "-x", "-a b", "", "-h", "--help", "-hx", "-hh", "-h=", "--help=x", "-e1",
]


def random_argv(rng: random.Random) -> tuple[str, ...]:
    """Global tokens, a command and its tokens, each drawn from an alphabet."""
    argv = [rng.choice(_BEFORE) for _ in range(rng.choice([0, 0, 0, 1, 2]))]
    if rng.random() < 0.95:
        argv.append(rng.choice(_COMMAND))
    argv += [rng.choice(_AFTER) for _ in range(rng.randint(0, 6))]
    return tuple(argv)


def _option_after_a_leading_dash_dash(argv) -> str | None:
    """The token after a ``--`` that ends the global flags, if argparse takes
    it for an option.  The oracle's scan deletes that ``--``, so argparse
    read the token as a global flag (``teleo -- --version`` printed the
    version); the hand parser takes it for the command."""
    flags = list(itertools.takewhile(lambda t: t.startswith("-") and t != "--", argv))
    rest = argv[len(flags):]
    if set(flags) <= {"--json"} and rest[:1] == ("--",) and rest[1:2] != ("--",):
        if rest[1:] and cli_oracle._parse_optional(rest[1]) is not None:
            return rest[1]
    return None


def assert_parsed_as_the_oracle_parses(argv) -> None:
    """The hand parser exits as the argparse oracle does, with the same
    code and ``error:`` line, or gives the same values.  Help is compared by
    its exit code, its stream and its ``usage: teleo`` prefix."""
    new = cli_outcome(cli.parse, argv)
    command = _option_after_a_leading_dash_dash(argv)
    if command is not None:
        assert (new.exit_code, new.stdout) == (1, ""), argv
        assert new.stderr.startswith(
            f"error: argument COMMAND: invalid choice: {command!r} (choose from "
        ), argv
        return
    old = cli_outcome(cli_oracle.parse, argv)
    if old.exit_code == 0 and old.stdout.startswith("usage: teleo"):
        assert (new.exit_code, new.stdout[:12], new.stderr) == (0, "usage: teleo", ""), argv
    else:
        assert new == old, argv


class TestParser:
    """The hand parser against the argparse parser it replaced, kept in
    ``tests/support.py`` as the command-line oracle.  Only the parse steps
    run; no command does."""

    @pytest.mark.parametrize(
        "argv", PARSER_ROWS,
        ids=lambda argv: " ".join("SPEC" if t == SPEC else t or "''" for t in argv) or "()",
    )
    def test_rows_parse_as_the_oracle_parses(self, argv):
        assert_parsed_as_the_oracle_parses(argv)

    def test_random_command_lines_parse_as_the_oracle_parses(self):
        rng = random.Random(26)
        for _ in range(500):
            assert_parsed_as_the_oracle_parses(random_argv(rng))

    @pytest.mark.parametrize("token", ["--version", "--json", "-h", "--seed", "--json=1"])
    def test_a_leading_dash_dash_makes_the_next_token_the_command(self, token):
        result = run_cli("--", token, "worlds", SPEC)
        assert (result.exit_code, result.stdout) == (1, "")
        assert result.stderr.startswith(f"error: argument COMMAND: invalid choice: '{token}'")

    def test_a_literal_dash_dash_value_is_kept(self):
        parsed = cli.parse(["identify", SPEC, "--", "--"])
        assert (parsed.spec, parsed.data) == (SPEC, "--")
        assert cli.parse(["distinguish", SPEC, "--final=--"]).names == ["--"]
        result = run_cli("finalize", SPEC, "--final=--")
        assert result.exit_code == 1
        assert result.stderr.startswith("error: no final block '--' (warm, ")


TELEO = ("-m", "teleo.cli")


def _python(*args: str, **options) -> subprocess.Popen:
    """Start ``python ARGS...`` in the checkout, importing teleo from ``src``,
    with standard output buffered, as it is unless PYTHONUNBUFFERED is set."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, **options,
    )


class TestProcess:
    """teleo started as a program, the way its users run it."""

    def run(self, *args: str) -> tuple[int, str, str]:
        with _python(*args, text=True) as proc:
            out, err = proc.communicate(timeout=60)
        return proc.returncode, out, err

    def test_worlds_matches_the_golden_table(self):
        assert self.run(*TELEO, "worlds", "models/heating.tele") == (
            0, golden("worlds_heating.txt"), ""
        )

    def test_a_spec_is_read_from_a_pipe(self):
        spec = (ROOT / "models" / "heating.tele").read_bytes()
        with _python(*TELEO, "worlds", "/dev/stdin", stdin=subprocess.PIPE) as proc:
            out, err = proc.communicate(spec, timeout=60)
        assert (proc.returncode, err) == (0, b"")
        assert out.decode() == golden("worlds_heating.txt")

    def test_version(self):
        expected = f"teleo, version {__version__}\n"
        assert self.run(*TELEO, "--version") == (0, expected, "")

    def test_the_command_line_imports_only_the_standard_library(self):
        code = (
            "import sys; before = set(sys.modules); import teleo.cli; "
            "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
            "print(sorted(new - set(sys.stdlib_module_names) - {'teleo'}))"
        )
        assert self.run("-c", code) == (0, "[]\n", "")

    def test_the_command_line_imports_every_traced_module(self):
        # the traced benchmark run wraps the functions of the modules that
        # are loaded when it starts, so a module ``teleo.cli`` loads later
        # would go untraced; ``perfbench/probe.py`` is read, not changed
        source = (ROOT / "perfbench" / "probe.py").read_text(encoding="utf-8")
        traced = next(
            ast.literal_eval(node.value)
            for node in ast.parse(source).body
            if isinstance(node, ast.Assign) and node.targets[0].id == "TRACED"
        )
        modules = sorted({f"teleo.{module}" for module, _ in traced})
        code = (
            "import sys, teleo.cli; "
            f"print([m for m in {modules!r} if m not in sys.modules])"
        )
        assert "teleo.model" in modules
        assert self.run("-c", code) == (0, "[]\n", "")

    def test_the_command_line_generates_no_code_and_reads_no_fractions(self):
        # dataclasses (with inspect, ast, dis and tokenize under it),
        # fractions (with decimal) and heapq (the graph sort works on
        # masks) are start-up the package does not need;
        # ``before`` is what the bare interpreter has already loaded
        code = (
            "import sys; before = set(sys.modules); import teleo.cli; "
            "new = set(sys.modules) - before; "
            "print(sorted(new & {'dataclasses', 'inspect', 'fractions', 'heapq'}))"
        )
        assert self.run("-c", code) == (0, "[]\n", "")

    def test_the_command_line_parses_without_argparse_or_json(self):
        # the command table is parsed by hand and the writer quotes strings
        # with the C function ``json.encoder`` binds, so start-up loads
        # neither argparse (with gettext and locale) nor json
        code = (
            "import sys; before = set(sys.modules); import teleo.cli; "
            "new = set(sys.modules) - before; "
            "print(sorted(new & {'argparse', 'gettext', 'locale', 'json'}))"
        )
        assert self.run("-c", code) == (0, "[]\n", "")

    def test_a_reader_that_stops_early_gets_no_traceback(self, tmp_path):
        # the JSON document is far larger than a pipe buffer, so the write
        # meets the closed pipe (``teleo --json finalize ... | head -c 20``)
        self.stop_early(tmp_path, "finalize_grid")

    def test_a_reader_that_stops_reduce_mid_stream_gets_no_traceback(self, tmp_path):
        # reduce's 1.4 MB document is written piece by piece, so the pipe
        # breaks between two pieces
        self.stop_early(tmp_path, "reduce_ternary")

    def stop_early(self, tmp_path, workload: str) -> None:
        args = BENCHMARK_GEN.GENERATORS[workload](3).write(tmp_path)
        with _python(*TELEO, "--json", *args) as proc:
            assert proc.stdout.read(20) == b'{\n  "command": "' + args[0][:4].encode()
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 0
        assert err == b""
