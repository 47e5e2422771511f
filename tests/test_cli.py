import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from teleo import __version__
from teleo.cli import cli
from teleo.render import render_table

ROOT = Path(__file__).resolve().parents[1]
SPEC = str(ROOT / "models" / "heating.tele")
GOLDEN = Path(__file__).resolve().parent / "golden"

WARM_CSV = "W,H,T,B,count\n1,0,1,0,5\n0,1,1,1,5\n"
ALL_CSV = "W,H,T,B\n0,0,0,0\n1,0,1,0\n0,1,1,1\n1,1,2,1\n"


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(cli, list(args))


def golden(name: str) -> str:
    return (GOLDEN / name).read_text()


class TestGoldenOutput:
    def test_worlds_table(self, runner):
        result = invoke(runner, "worlds", SPEC)
        assert result.exit_code == 0
        assert result.output == golden("worlds_heating.txt")

    def test_finalize_warm(self, runner):
        result = invoke(runner, "finalize", SPEC, "--final", "warm")
        assert result.exit_code == 0
        assert result.output == golden("finalize_warm.txt")
        assert "W and H: dependent (expected)" in result.output

    def test_reduce_warm(self, runner):
        result = invoke(runner, "reduce", SPEC, "--final", "warm")
        assert result.exit_code == 0
        assert result.output == golden("reduce_warm.txt")

    def test_distinguish_warm_cheap(self, runner):
        result = invoke(runner, "distinguish", SPEC, "--final", "warm", "--final", "cheap")
        assert result.exit_code == 0
        assert result.output == golden("distinguish_warm_cheap.txt")


class TestIntervene:
    def test_exogenous_target_reproduces_base_table(self, runner):
        result = invoke(runner, "intervene", SPEC, "--do", "H")
        assert result.exit_code == 0
        assert result.output == golden("worlds_heating.txt")

    def test_target_defaults_to_declared_do(self, runner):
        result = invoke(runner, "intervene", SPEC)
        assert result.exit_code == 0
        assert result.output == golden("worlds_heating.txt")

    def test_missing_target_without_declaration(self, runner, tmp_path):
        spec = tmp_path / "bare.tele"
        spec.write_text("var X in 0..1\nvar Y in 0..1\nedge X -> Y\nmech Y = sum(X)\n")
        result = invoke(runner, "intervene", str(spec))
        assert result.exit_code == 1


class TestIdentify:
    def test_unique_winner_exits_zero(self, runner, tmp_path):
        data = tmp_path / "obs.csv"
        data.write_text(WARM_CSV)
        result = invoke(runner, "identify", SPEC, str(data))
        assert result.exit_code == 0
        assert "winner: warm" in result.output

    def test_no_compatible_hypothesis_exits_two(self, runner, tmp_path):
        data = tmp_path / "obs.csv"
        data.write_text(ALL_CSV)
        result = invoke(runner, "identify", SPEC, str(data))
        assert result.exit_code == 2
        assert "no compatible hypothesis" in result.output

    def test_tied_equivalence_class_exits_three(self, runner, tmp_path):
        spec = tmp_path / "tied.tele"
        spec.write_text(
            Path(SPEC).read_text()
            + "final warm2 { effects: T; goal: T = 1 }\n"
        )
        data = tmp_path / "obs.csv"
        data.write_text(WARM_CSV)
        result = invoke(runner, "identify", str(spec), str(data))
        assert result.exit_code == 3
        assert "tied: warm, warm2" in result.output

    def test_enumerated_candidates(self, runner, tmp_path):
        data = tmp_path / "obs.csv"
        data.write_text(WARM_CSV)
        result = invoke(runner, "identify", SPEC, str(data), "--enumerate")
        assert result.exit_code == 0
        assert "winner: T=1" in result.output

    def test_ranking_is_printed_most_specific_first(self, runner, tmp_path):
        data = tmp_path / "obs.csv"
        data.write_text(WARM_CSV)
        result = invoke(runner, "identify", SPEC, str(data))
        lines = result.output.splitlines()
        assert lines[1].startswith("rank 1: warm")


class TestJsonMode:
    def test_worlds_json_reconstructs_the_table(self, runner):
        result = invoke(runner, "--json", "worlds", SPEC)
        doc = json.loads(result.output)
        assert doc["command"] == "worlds"
        assert doc["diagnostics"] == []
        rebuilt = render_table(doc["result"]["columns"], doc["result"]["worlds"])
        assert rebuilt == golden("worlds_heating.txt")

    def test_worlds_json_carries_assignment_objects(self, runner):
        result = invoke(runner, "--json", "worlds", SPEC)
        doc = json.loads(result.output)
        assignments = doc["result"]["assignments"]
        assert len(assignments) == 4
        assert {"W": 0, "H": 0, "T": 0, "B": 0} in assignments

    def test_finalize_json_reconstructs_the_table(self, runner):
        result = invoke(runner, "--json", "finalize", SPEC, "--final", "warm")
        doc = json.loads(result.output)
        rebuilt = render_table(doc["result"]["columns"], doc["result"]["worlds"])
        assert rebuilt in golden("finalize_warm.txt")
        dep = {
            (d["x"], d["y"], tuple(d["given"])): d["independent"]
            for d in doc["result"]["dependence"]
        }
        assert dep[("W", "H", ())] is False

    def test_reduce_json_reconstructs_the_table(self, runner):
        result = invoke(runner, "--json", "reduce", SPEC, "--final", "warm")
        doc = json.loads(result.output)
        rebuilt = render_table(doc["result"]["columns"], doc["result"]["worlds"])
        assert rebuilt in golden("reduce_warm.txt")
        structure = doc["result"]["structure"]
        assert structure["action_listens_final"] == ["T"]
        assert structure["action_listens_reduction"] == ["W"]

    def test_identify_json_carries_the_exit_code(self, runner, tmp_path):
        data = tmp_path / "obs.csv"
        data.write_text(ALL_CSV)
        result = invoke(runner, "--json", "identify", SPEC, str(data))
        doc = json.loads(result.output)
        assert doc["result"]["exit_code"] == 2 == result.exit_code
        assert doc["result"]["winner"] is None


class TestErrorHandling:
    def test_missing_spec_file(self, runner):
        result = invoke(runner, "worlds", "nowhere.tele")
        assert result.exit_code == 1

    def test_parse_error_reports_line(self, runner, tmp_path):
        spec = tmp_path / "bad.tele"
        spec.write_text("var W in 0..1\nvar W in 0..1\n")
        result = invoke(runner, "worlds", str(spec))
        assert result.exit_code == 1
        assert "line 2" in result.output

    def test_non_ascii_digit_is_an_error_not_a_crash(self, runner, tmp_path):
        spec = tmp_path / "superscript.tele"
        spec.write_text("var W in 0..\u00b2\n", encoding="utf-8")
        result = invoke(runner, "worlds", str(spec))
        assert result.exit_code == 1
        # the runner records an escaped exception instead of printing it
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("error: line 1")
        assert "Traceback" not in result.output

    def test_non_ascii_digit_in_dataset_is_an_error_not_a_crash(self, runner, tmp_path):
        data = tmp_path / "obs.csv"
        data.write_text("W,H,T,B\n\u0661,0,1,0\n", encoding="utf-8")
        result = invoke(runner, "identify", SPEC, str(data))
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("error: line 2: non-integer")
        assert "Traceback" not in result.output

    def test_unknown_final_name(self, runner):
        result = invoke(runner, "finalize", SPEC, "--final", "nope")
        assert result.exit_code == 1

    def test_distinguish_needs_two_names(self, runner):
        result = invoke(runner, "distinguish", SPEC, "--final", "warm")
        assert result.exit_code == 1

    def test_dataset_domain_error_reports_line(self, runner, tmp_path):
        data = tmp_path / "obs.csv"
        data.write_text("W,H,T,B\n0,1,5,1\n")
        result = invoke(runner, "identify", SPEC, str(data))
        assert result.exit_code == 1
        assert "line 2" in result.output

    def test_unreachable_goal_is_reported_not_crashed(self, runner, tmp_path):
        spec = tmp_path / "far.tele"
        spec.write_text(
            "var X in 0..1\nvar Y in 0..1\nvar Z in 0..2\n"
            "edge X -> Y\nedge Y -> Z\n"
            "mech Y = sum(X)\nmech Z = sum(Y)\n"
            "do Y\n"
            "final far { effects: Z; goal: Z = 2 }\n"
        )
        result = invoke(runner, "finalize", str(spec), "--final", "far")
        assert result.exit_code == 0
        assert "goal unreachable" in result.output


class TestGlobalFlags:
    def test_version(self, runner):
        result = invoke(runner, "--version")
        assert result.exit_code == 0
        assert __version__ in result.output

    def test_seed_is_accepted(self, runner):
        result = invoke(runner, "--seed", "7", "worlds", SPEC)
        assert result.exit_code == 0
