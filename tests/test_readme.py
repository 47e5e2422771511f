"""The README's examples run: the library block prints what its comments
say, and each command of the command-line block succeeds."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from support import run_cli

ROOT = Path(__file__).resolve().parent.parent


def readme_block(heading: str, language: str) -> str:
    """The first ``language`` block under the README's ``heading``."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_its_comments(monkeypatch):
    block = readme_block("Library", "python")
    expected = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
    assert expected and len(expected) == block.count("print(")
    monkeypatch.chdir(ROOT)  # the example opens models/ by a relative path
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_each_command_line_example_succeeds(monkeypatch, tmp_path):
    # the commands without their [optional] parts, and with a dataset that
    # the warm hypothesis alone explains
    data = tmp_path / "obs.csv"
    data.write_text("W,H,T,B,count\n1,0,1,0,5\n0,1,1,1,5\n")
    lines = readme_block("Command line", "sh").splitlines()
    commands = [shlex.split(re.sub(r"\[.*?\]", "", s), comments=True) for s in lines]
    assert commands and all(c[0] == "teleo" for c in commands)
    monkeypatch.chdir(ROOT)  # the examples read models/ by a relative path
    for command in commands:
        args = [str(data) if arg == "obs.csv" else arg for arg in command[1:]]
        result = run_cli(*args)
        assert (result.exit_code, result.stderr) == (0, ""), command
