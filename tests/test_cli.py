import ast
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from teleo import __version__
from teleo.render import render_table
from teleo.speclang import load_model, print_model

from support import run_cli

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
        ],
        ids=["enumerate-without-do", "no-finals"],
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
        assert result.stderr == "error: max_effects must be at least 1\n"

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


class TestUsageErrors:
    """Every usage error is one ``error:`` line on standard error, naming
    the offending token where there is one, and exit code 1."""

    @pytest.mark.parametrize(
        "args, named",
        [
            ((), "COMMAND"),
            (("frobnicate", SPEC), "'frobnicate'"),
            (("worlds",), "SPEC"),
            (("finalize", SPEC), "--final"),
            (("--seed", "7", "worlds", SPEC), "--seed"),
            (("--js", "worlds", SPEC), "--js"),
            (("identify", SPEC, "obs.csv", "--max", "2"), "--max"),
            (("worlds", SPEC, "--json"), "--json"),
            (("identify", SPEC, "obs.csv", "--max-effects", "abc"), "'abc'"),
            (("reduce", SPEC, "--final", "warm", "--rest", "x"), "'x'"),
            (("worlds", SPEC, "extra"), "extra"),
        ],
        ids=[
            "bare", "unknown-command", "missing-spec", "missing-final",
            "seed-before-command", "abbreviated-json", "abbreviated-max-effects",
            "json-after-command", "max-effects-not-int", "rest-not-int",
            "extra-positional",
        ],
    )
    def test_one_line_and_exit_one(self, args, named):
        result = run_cli(*args)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n")
        assert named in result.stderr

    @pytest.mark.parametrize("args", [("--help",), ("-h",), ("identify", "--help")])
    def test_help_prints_usage_and_exits_zero(self, args):
        result = run_cli(*args)
        assert result.exit_code == 0
        assert result.stdout.startswith("usage: teleo")
        assert result.stderr == ""


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
        # dataclasses (with inspect, ast, dis and tokenize under it) and
        # fractions (with decimal) are start-up the package does not need;
        # ``before`` is what the bare interpreter has already loaded
        code = (
            "import sys; before = set(sys.modules); import teleo.cli; "
            "new = set(sys.modules) - before; "
            "print(sorted(new & {'dataclasses', 'inspect', 'fractions'}))"
        )
        assert self.run("-c", code) == (0, "[]\n", "")

    def test_a_reader_that_stops_early_gets_no_traceback(self, tmp_path):
        # the JSON document is far larger than a pipe buffer, so the write
        # meets the closed pipe (``teleo --json finalize ... | head -c 20``)
        args = BENCHMARK_GEN.GENERATORS["finalize_grid"](3).write(tmp_path)
        with _python(*TELEO, "--json", *args) as proc:
            assert proc.stdout.read(20) == b'{\n  "command": "fina'
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 0
        assert err == b""
