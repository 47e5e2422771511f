"""Each library error that no other test raises, pinned by type and by its
whole message, and the size budgets that refuse a model before it is
built."""

import time
from pathlib import Path

import pytest

from teleo.errors import (
    BudgetError,
    ComparisonError,
    DatasetError,
    EmptyTableError,
    EnumerationBudgetError,
    GoalError,
    ModelStructureError,
    ReductionError,
    TeleoError,
    UnknownVariableError,
)
from teleo.identification import Dataset, load_dataset
from teleo.model import MAX_WORLDS, CausalDag, Mechanism, Scm, Variable, WorldTable
from teleo.reduction import build_reduction, compare_structures
from teleo.speclang import load_model
from teleo.teleology import Comparison, GoalPredicate

from support import run_cli

ROOM = (Path(__file__).resolve().parents[1] / "models" / "heating.tele").read_text()
X, Y = Variable("X", (0, 1)), Variable("Y", (0, 1))
X_TO_Y = CausalDag(("X", "Y"), (("X", "Y"),))
COPY = Mechanism("Y", ("X",), {(0,): 0, (1,): 1})
MODEL = Scm(X_TO_Y, (X, Y), {"Y": COPY})


def chain(extra: str = "") -> str:
    """A spec whose final's goal is on Y, with ``extra`` declared too."""
    return (
        f"var X in 0..1\nvar Y in 0..1\n{extra}edge X -> Y\nmech Y = sum(X)\n"
        "do X\nfinal f { effects: Y; goal: Y = 1 }\n"
    )


def reduce(spec: str):
    return build_reduction(load_model(spec).finals["f"])


def compare_across_bases():
    warm = load_model(ROOM).finals["warm"]
    wider = load_model(ROOM.replace("var B", "var Z in 0..1\nvar B"))
    return compare_structures(warm, build_reduction(wider.finals["warm"]))


CASES = {
    "variable-name": (
        lambda: Variable("1X", (0, 1)),
        ModelStructureError, "invalid variable name '1X'",
    ),
    "duplicate-node": (
        lambda: CausalDag(("A", "A"), ()),
        ModelStructureError, "duplicate node 'A'",
    ),
    "edge-from-a-non-node": (
        lambda: CausalDag(("A",), (("B", "A"),)),
        ModelStructureError, "edge endpoint 'B' is not a node",
    ),
    "mechanism-without-parents": (
        lambda: Mechanism("Y", (), {(): 0}),
        ModelStructureError, "mechanism for Y: needs at least one parent",
    ),
    "duplicate-variable": (
        lambda: Scm(X_TO_Y, (X, Y, X), {"Y": COPY}),
        ModelStructureError, "duplicate variable declaration",
    ),
    "variables-are-not-the-nodes": (
        lambda: Scm(X_TO_Y, (X, Variable("Z", (0, 1))), {"Y": COPY}),
        ModelStructureError, "dag nodes and declared variables differ",
    ),
    "mechanism-of-another-node": (
        lambda: Scm(X_TO_Y, (X, Y), {"Y": Mechanism("X", ("Y",), COPY.table)}),
        ModelStructureError, "mechanism filed under Y drives X",
    ),
    "unknown-model-variable": (
        lambda: MODEL.variable("Q"),
        UnknownVariableError, "unknown variable 'Q'",
    ),
    "distribution-of-no-worlds": (
        lambda: WorldTable(("X",), ()).distribution("X"),
        EmptyTableError, "distribution over an empty world table",
    ),
    "non-positive-count": (
        lambda: Dataset(("X",), [((0,), 0)]),
        DatasetError, "non-positive count 0 for row (0,)",
    ),
    "row-of-another-width": (
        lambda: Dataset(("X", "Y"), [((0,), 1)]),
        DatasetError, "row (0,) does not match columns",
    ),
    "dataset-without-rows": (
        lambda: Dataset(("X",), []),
        DatasetError, "dataset has no rows",
    ),
    "duplicate-column": (
        lambda: load_dataset("X,X\n0,0\n", MODEL),
        DatasetError, "line 1: duplicate column in header",
    ),
    "no-header": (
        lambda: load_dataset("# nothing observed\n", MODEL),
        DatasetError, "empty input: no header line",
    ),
    "comparison-operator": (
        lambda: Comparison("Y", "~", 1),
        GoalError, "unknown comparison operator '~'",
    ),
    "goal-without-comparisons": (
        lambda: GoalPredicate(()),
        GoalError, "goal predicate needs at least one comparison",
    ),
    "copy-name-taken": (
        lambda: reduce(chain("var Y0 in 0..1\n")),
        ReductionError, "cannot add Y0: the name is taken",
    ),
    "intention-name-taken": (
        lambda: reduce(chain("var I in 0..1\n")),
        ReductionError, "cannot add I: the name is taken",
    ),
    "reduction-of-another-base": (
        compare_across_bases,
        ComparisonError, "final model and reduction come from different bases",
    ),
}


@pytest.mark.parametrize("build, error, message", CASES.values(), ids=CASES)
def test_the_error_and_its_message(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error
    assert str(exc.value) == message


def _binaries(names) -> str:
    return "".join(f"var {n} in 0..1\n" for n in names)


_XS = [f"X{i}" for i in range(40)]
# each spec names a size past the cap, which is known from its domain widths
# alone; the cap is checked before anything of that size is built, so no
# spec here allocates more than a few million levels
BUDGETS = {
    "wide-domain": ("var X in 0..1000000000000\n", 10**12 + 1,
                    "line 1: the level count of X is 1000000000001"),
    "sixty-binary-exogenous": (_binaries(f"U{i}" for i in range(60)), 2**60,
                               "the world count is 1152921504606846976"),
    "sum-over-forty-parents": (
        _binaries(_XS) + "var Y in 0..40\n" + "".join(f"edge {x} -> Y\n" for x in _XS)
        + f"mech Y = sum({', '.join(_XS)})\n", 2**40,
        "line 82: the parent combination count of Y is 1099511627776",
    ),
    "two-row-table-over-wide-parents": (
        "var A in 0..999999\nvar B in 0..999999\nvar Y in 0..1\nedge A -> Y\n"
        "edge B -> Y\nmech Y = table(A, B) { (0,0)->0; (1,1)->1 }\n", 10**12,
        "line 6: the parent combination count of Y is 1000000000000",
    ),
}


@pytest.mark.parametrize("spec, size, message", BUDGETS.values(), ids=BUDGETS)
def test_a_size_past_the_cap_is_refused_before_it_is_built(spec, size, message):
    start = time.perf_counter()
    with pytest.raises(TeleoError) as exc:
        load_model(spec).scm.worlds
    assert str(exc.value) == f"{message}, over the cap of {MAX_WORLDS}"
    budget = exc.value if exc.value.__cause__ is None else exc.value.__cause__
    assert isinstance(budget, BudgetError) and (budget.size, budget.cap) == (size, MAX_WORLDS)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("spec, size, message", BUDGETS.values(), ids=BUDGETS)
def test_a_size_past_the_cap_is_one_error_line(spec, size, message, tmp_path):
    path = tmp_path / "wide.tele"
    path.write_text(spec, encoding="utf-8")
    start = time.perf_counter()
    run = run_cli("worlds", str(path))
    assert (run.exit_code, run.stdout) == (1, "")
    assert run.stderr == f"error: {message}, over the cap of {MAX_WORLDS}\n"
    assert time.perf_counter() - start < 1


def test_the_candidate_budget_is_a_budget_error():
    assert issubclass(EnumerationBudgetError, BudgetError)
    exc = EnumerationBudgetError(12, 3)
    message = "hypothesis enumeration needs 12 candidates, cap is 3"
    assert (str(exc), exc.size, exc.cap) == (message, 12, 3)
