"""The README's library example runs, and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def library_block() -> str:
    """The python block under the README's ``## Library`` heading."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_its_comments(monkeypatch):
    block = library_block()
    expected = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
    assert expected and len(expected) == block.count("print(")
    monkeypatch.chdir(ROOT)  # the example opens models/ by a relative path
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected
