"""Confronting goal hypotheses with observational data.

A dataset is a bag of fully observed rows with positive counts.  A
hypothesis is compatible on support when every observed row lies inside its
compatible-world set; dependence checks compare the independence pattern the
hypothesis predicts with the one the empirical frequencies show.  Both sides
run through the one exact kernel, ``WorldTable.factorizes``: the compatible
worlds with weight 1 each, the dataset rows with their observed counts.
Frequencies factorize or they do not, by integer arithmetic.  There is no
statistical testing here, deliberately.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterable

from teleo.errors import BindingError, ComparisonError, DatasetError, TeleoError
from teleo.model import (
    IndependenceStatement,
    Record,
    Scm,
    WorldTable,
    weight_layers,
)
from teleo.speclang import INTEGER
from teleo.teleology import FinalModel, compatible_worlds

__all__ = [
    "Dataset",
    "load_dataset",
    "DependenceCheck",
    "IdentificationVerdict",
    "check_support",
    "check_dependence",
    "RankedHypothesis",
    "rank_hypotheses",
    "RankingSummary",
    "summarize_ranking",
]


class Dataset(Record):
    """Aggregated observation counts over the model's variables.

    ``rows`` holds distinct value tuples (aligned with ``columns``) with
    their counts, sorted by values; aggregation makes every downstream
    computation independent of input row order.
    """

    columns: tuple[str, ...]
    rows: tuple[tuple[tuple[int, ...], int], ...]

    def __init__(self, columns: Iterable[str], rows: Iterable[tuple[tuple, int]]):
        columns = tuple(columns)
        merged: dict[tuple[int, ...], int] = {}
        for values, count in rows:
            if count < 1:
                raise DatasetError(f"non-positive count {count} for row {values}")
            if len(values) != len(columns):
                raise DatasetError(f"row {values} does not match columns")
            merged[tuple(values)] = merged.get(tuple(values), 0) + count
        if not merged:
            raise DatasetError("dataset has no rows")
        self.__dict__.update(columns=columns, rows=tuple(sorted(merged.items())))

    @property
    def total(self) -> int:
        return sum(c for _, c in self.rows)

    @cached_property
    def support(self) -> WorldTable:
        """The distinct observed rows as a world table, aligned with ``rows``."""
        return WorldTable(self.columns, (values for values, _ in self.rows))

    @cached_property
    def layers(self) -> tuple[int, ...]:
        """The counts as binary weight layers over the rows of ``support``
        (``model.weight_layers``)."""
        return weight_layers([count for _, count in self.rows])


def load_dataset(text: str, scm: Scm) -> Dataset:
    """Parse the CSV dialect and bind it to a model.

    Header names the variables, in any order, optionally ending with a
    literal ``count`` column (which, in a model with a variable ``count``,
    follows that variable's own column); body rows are integer levels (an
    optional ``-`` and ASCII digits, as in the spec language); ``#`` starts
    a comment.  Duplicate rows are aggregated.  Every value must lie in the
    declared domain and the columns must cover the model exactly.
    """
    header: list[str] | None = None
    has_count = False
    position: list[int] = []
    rows: list[tuple[tuple[int, ...], int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if header is None:
            header = fields
            if header[-1] == "count" and (
                "count" not in scm.names or "count" in header[:-1]
            ):
                has_count = True
                header = header[:-1]
            unknown = [h for h in header if h not in scm.names]
            if unknown:
                raise DatasetError(f"unknown variable {unknown[0]!r}", lineno)
            if len(set(header)) != len(header):
                raise DatasetError("duplicate column in header", lineno)
            if set(header) != set(scm.names):
                missing = [n for n in scm.names if n not in header]
                raise DatasetError(
                    f"columns do not cover the model; missing {', '.join(missing)}",
                    lineno,
                )
            # reorder values into declaration order at parse time
            position = [header.index(n) for n in scm.names]
            continue
        expected = len(header) + (1 if has_count else 0)
        if len(fields) != expected:
            raise DatasetError(
                f"expected {expected} fields, found {len(fields)}", lineno
            )
        if not all(INTEGER.fullmatch(f) for f in fields):
            raise DatasetError(f"non-integer field in {line!r}", lineno)
        try:
            numbers = [int(f) for f in fields]
        except ValueError:  # past Python's limit on digits read from text
            longest = max(map(len, fields))
            raise DatasetError(
                f"integer field of {longest} characters is too long", lineno
            ) from None
        count = numbers.pop() if has_count else 1
        if count < 1:
            raise DatasetError(f"count must be positive, found {count}", lineno)
        values = tuple(numbers[p] for p in position)
        for name, value in zip(scm.names, values):
            if value not in scm.domain(name):
                raise DatasetError(
                    f"value {value} outside domain {scm.domain(name)} of {name}",
                    lineno,
                )
        rows.append((values, count))
    if header is None:
        raise DatasetError("empty input: no header line")
    if not rows:
        raise DatasetError("no observation rows")
    return Dataset(tuple(scm.names), tuple(rows))


def _bind(f: FinalModel, d: Dataset) -> None:
    if d.columns != f.mstar.model.names:
        raise BindingError(
            f"dataset columns {d.columns} do not match model variables "
            f"{f.mstar.model.names}"
        )


class DependenceCheck(Record):
    """Expected vs observed (in)dependence for one statement."""

    statement: IndependenceStatement
    expected_independent: bool
    observed_independent: bool
    skipped_strata: tuple[tuple[int, ...], ...] = ()

    @property
    def agree(self) -> bool:
        return self.expected_independent == self.observed_independent


class IdentificationVerdict(Record):
    """How one goal hypothesis fares against one dataset."""

    hypothesis: FinalModel
    support_compatible: bool
    violating_rows: WorldTable
    dependence_checks: tuple[DependenceCheck, ...]
    compatible_world_count: int

    @property
    def checks_agree(self) -> bool:
        return all(c.agree for c in self.dependence_checks)

    @property
    def compatible(self) -> bool:
        return self.support_compatible and self.checks_agree


def check_support(f: FinalModel, d: Dataset) -> IdentificationVerdict:
    """Support part of the verdict: observed rows outside the hypothesis'
    compatible-world set are violations."""
    _bind(f, d)
    table = compatible_worlds(f)
    violating = d.support.outside(table)
    return IdentificationVerdict(f, not violating.rows, violating, (), len(table))


def check_dependence(
    f: FinalModel, d: Dataset, stmt: IndependenceStatement
) -> DependenceCheck:
    """Compare the hypothesis' predicted (in)dependence with the data's.

    The expected side is the exact uniform verdict on the compatible worlds;
    the observed side is the exact factorization of empirical frequencies.
    Conditioning strata the hypothesis allows but the data never shows are
    skipped on the observed side and reported.
    """
    _bind(f, d)
    table = compatible_worlds(f)
    expected = table.factorizes(stmt)
    observed = d.support.factorizes(stmt, d.layers)
    seen = {stratum for stratum, _ in d.support.strata(stmt.given)}
    skipped = tuple(s for s, _ in table.strata(stmt.given) if s not in seen)
    return DependenceCheck(stmt, expected, observed, skipped)


class RankedHypothesis(Record):
    rank: int
    verdict: IdentificationVerdict
    equivalence_class: int


def rank_hypotheses(
    candidates: list[FinalModel], d: Dataset
) -> list[RankedHypothesis]:
    """Rank goal hypotheses against one dataset.

    Support-compatible candidates come first, the most specific (smallest
    compatible-world set) leading; ties keep the order of ``candidates``.
    Candidates with identical compatible-world sets form one observational
    equivalence class and share a class number.  Each verdict also carries
    the expected-vs-observed dependence checks for every variable pair.

    The checks are unconditional, so each has the one stratum ``()``, which
    every dataset shows: their ``skipped_strata`` are always empty.  A
    stratum is skipped only when ``check_dependence`` is given a statement
    with a conditioning set.
    """
    if not candidates:
        raise TeleoError("rank_hypotheses needs at least one candidate")
    first = candidates[0].mstar
    for c in candidates[1:]:
        if c.mstar.base != first.base or c.mstar.target != first.target:
            raise ComparisonError(
                "all ranked hypotheses must share one intervention model"
            )
    names = first.model.names
    pair_stmts = [
        IndependenceStatement(x, y) for x, y in itertools.combinations(names, 2)
    ]
    verdicts: list[IdentificationVerdict] = []
    for f in candidates:
        v = check_support(f, d)
        checks: tuple[DependenceCheck, ...] = ()
        if v.compatible_world_count:
            checks = tuple(check_dependence(f, d, s) for s in pair_stmts)
        verdicts.append(IdentificationVerdict(
            f, v.support_compatible, v.violating_rows, checks, v.compatible_world_count
        ))
    ordered = sorted(
        verdicts, key=lambda v: (not v.support_compatible, v.compatible_world_count)
    )
    class_ids: dict[tuple[tuple[int, ...], ...], int] = {}
    out: list[RankedHypothesis] = []
    for rank, verdict in enumerate(ordered, start=1):
        # rows are sorted and distinct, so equal tuples mean equal sets
        key = compatible_worlds(verdict.hypothesis).rows
        cls = class_ids.setdefault(key, len(class_ids) + 1)
        out.append(RankedHypothesis(rank, verdict, cls))
    return out


class RankingSummary(Record):
    """Winner selection over a ranked list.

    exit_code follows the CLI contract: 0 when a unique most-specific
    support-compatible hypothesis exists, 2 when none is compatible, 3 when
    the top spot is tied (several candidates with the same smallest
    compatible-world size, or one shared equivalence class).
    """

    winner: str | None
    exit_code: int
    tied: tuple[str, ...] = ()


def summarize_ranking(ranking: list[RankedHypothesis]) -> RankingSummary:
    survivors = [r for r in ranking if r.verdict.support_compatible]
    if not survivors:
        return RankingSummary(winner=None, exit_code=2)
    best_size = survivors[0].verdict.compatible_world_count
    top = [r for r in survivors if r.verdict.compatible_world_count == best_size]
    if len(top) > 1:
        return RankingSummary(
            winner=None,
            exit_code=3,
            tied=tuple(r.verdict.hypothesis.label for r in top),
        )
    return RankingSummary(winner=top[0].verdict.hypothesis.label, exit_code=0)
