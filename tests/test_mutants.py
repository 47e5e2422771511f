"""The mutant catalogue (``tests/mutants.py``) stays applicable: each
mutant's snippet is in its file exactly once, and each of its node ids
names a test.  No process is started; ``python3 tests/mutants.py`` runs the
mutants themselves."""

import importlib
from pathlib import Path

import pytest

from mutants import MUTANTS, ROOT

PARAM = type(pytest.param(None))


def _test_ids(function) -> set[str]:
    """The parameter ids that ``function``'s parametrize marks give by name:
    a ``pytest.param`` id, an entry of an ``ids`` list, or what an ``ids``
    function makes of a value."""
    found = set()
    for mark in getattr(function, "pytestmark", []):
        if mark.name != "parametrize":
            continue
        ids = mark.kwargs.get("ids")
        for i, value in enumerate(mark.args[1]):
            if isinstance(value, PARAM) and value.id is not None:
                found.add(value.id)
            elif isinstance(ids, (list, tuple)):
                found.add(ids[i])
            elif callable(ids):
                found.add(ids(value))
    return found


def test_the_catalogue_has_unique_ids():
    ids = [m.id for m in MUTANTS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.id for m in MUTANTS])
def test_each_snippet_occurs_once(mutant):
    source = (ROOT / "src" / "teleo" / mutant.path).read_text(encoding="utf-8")
    assert source.count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.tests


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.id for m in MUTANTS])
def test_each_node_id_names_a_test(mutant):
    for node in mutant.tests:
        path, *names = node.split("::")
        assert path.startswith("tests/test_") and (ROOT / path).is_file(), node
        names[-1], _, param = names[-1].partition("[")
        target = importlib.import_module(Path(path).stem)
        for name in names:
            target = getattr(target, name)
        assert callable(target), node
        if param:
            assert param.removesuffix("]") in _test_ids(target), node
