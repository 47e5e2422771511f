"""The model-specification language: parser, printer and model builder.

The grammar is line oriented; ``#`` starts a comment anywhere.

    var W in 0..1
    edge H -> T
    mech T = sum(W, H)
    mech B = table(H) { (0)->0; (1)->1 }
    do H
    rest H = 0
    final warm { effects: T; goal: T = 1 }

A ``table`` without an explicit parent list reads its keys in the order the
inbound edges were declared.  ``load_model`` checks the rules of the
document itself and builds each model object once, in statement order; the
rules of a model object are checked by its constructor alone, and its error
is reported at the line of the statement that built it.  ``sum`` is
``Mechanism.sum_of``, so a sum that leaves the child's domain is that
constructor's error.  The model objects are the only form of a spec:
``print_model`` writes them back as canonical text.
"""

from __future__ import annotations

import re
from contextlib import contextmanager

from teleo.errors import ModelStructureError, SpecSyntaxError, TeleoError
from teleo.intervention import MStarModel, do_surgery
from teleo.model import (
    CausalDag,
    Mechanism,
    Record,
    Scm,
    Variable,
    check_parents,
    check_size,
    check_table,
)
from teleo.teleology import Comparison, FinalModel, GoalPredicate, build_final_model

__all__ = [
    "CompiledSpec",
    "print_model",
    "load_model",
]

# An integer literal: an optional '-', then ASCII digits only.  int() alone
# would also take '+1', '0_1' and non-ASCII digits such as '١', and
# str.isdigit() admits characters such as '²' that int() rejects.
INTEGER = re.compile(r"-?[0-9]+")


class CompiledSpec(Record):
    """The model objects of one spec: the base model, the surgered model of
    its ``do`` (if any), its ``final`` blocks by name and its ``rest``
    level.  Unlike the model objects it can be changed, so it has no hash."""

    scm: Scm
    mstar: MStarModel | None
    finals: dict[str, FinalModel]
    rest: int | None = None

    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None


class _Cursor:
    """Single-line scanner with column-accurate diagnostics."""

    def __init__(self, text: str, lineno: int):
        self.text = text
        self.lineno = lineno
        self.pos = 0

    def error(self, message: str):
        raise SpecSyntaxError(message, self.lineno, self.pos + 1)

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def eof(self) -> bool:
        self._skip_ws()
        return self.pos >= len(self.text)

    def match(self, literal: str) -> bool:
        self._skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str) -> None:
        if not self.match(literal):
            self.error(f"expected {literal!r}")

    def ident(self) -> str:
        self._skip_ws()
        start = self.pos
        if start < len(self.text) and (
            self.text[start].isalpha() or self.text[start] == "_"
        ):
            end = start + 1
            while end < len(self.text) and (
                self.text[end].isalnum() or self.text[end] == "_"
            ):
                end += 1
            self.pos = end
            return self.text[start:end]
        self.error("expected an identifier")

    def names(self) -> tuple[str, ...]:
        """One or more identifiers, separated by commas."""
        names = [self.ident()]
        while self.match(","):
            names.append(self.ident())
        return tuple(names)

    def keyword(self, word: str) -> None:
        got = self.ident()
        if got != word:
            self.pos -= len(got)
            self.error(f"expected {word!r}")

    def integer(self) -> int:
        self._skip_ws()
        found = INTEGER.match(self.text, self.pos)
        if found is None:
            self.error("expected an integer")
        literal = found.group()
        try:
            value = int(literal)
        except ValueError:  # past Python's limit on digits read from text
            self.error(f"integer literal of {len(literal)} characters is too long")
        self.pos = found.end()
        return value

    def comparison_op(self) -> str:
        for op in ("<=", ">=", "!=", "=", "<", ">"):
            if self.match(op):
                return op
        self.error("expected a comparison operator (=, !=, <, <=, >, >=)")

    def end(self) -> None:
        if not self.eof():
            self.error("unexpected trailing input")


class _Raw:
    """Parsed statements plus the lines they came from, for diagnostics."""

    def __init__(self):
        self.variables: list[tuple[str, int, int, int]] = []
        self.edges: list[tuple[tuple[str, str], int]] = []
        self.mechs: list[tuple[str, tuple[str, ...] | None, object, int]] = []
        self.do_decls: list[tuple[str, int]] = []
        self.rest_decls: list[tuple[str, int, int]] = []
        self.finals: list[tuple[str, tuple[str, ...], GoalPredicate, int]] = []


def _parse_var(cur: _Cursor, raw: _Raw) -> None:
    name = cur.ident()
    cur.keyword("in")
    lo = cur.integer()
    cur.expect("..")
    hi = cur.integer()
    cur.end()
    if hi <= lo:
        cur.error(f"domain {lo}..{hi} needs at least two increasing levels")
    raw.variables.append((name, lo, hi, cur.lineno))


def _parse_edge(cur: _Cursor, raw: _Raw) -> None:
    parent = cur.ident()
    cur.expect("->")
    child = cur.ident()
    cur.end()
    raw.edges.append(((parent, child), cur.lineno))


def _parse_mech(cur: _Cursor, raw: _Raw) -> None:
    child = cur.ident()
    cur.expect("=")
    kind = cur.ident()
    if kind == "sum":
        cur.expect("(")
        parents = cur.names()
        cur.expect(")")
        cur.end()
        raw.mechs.append((child, parents, "sum", cur.lineno))
    elif kind == "table":
        parents: tuple[str, ...] | None = None
        if cur.match("("):
            parents = cur.names()
            cur.expect(")")
        cur.expect("{")
        rows: list[tuple[tuple[int, ...], int]] = []
        while True:
            cur.expect("(")
            key = [cur.integer()]
            while cur.match(","):
                key.append(cur.integer())
            cur.expect(")")
            cur.expect("->")
            rows.append((tuple(key), cur.integer()))
            cur.match(";")
            if cur.match("}"):
                break
        cur.end()
        raw.mechs.append((child, parents, tuple(rows), cur.lineno))
    else:
        cur.error(f"unknown mechanism form {kind!r} (use sum or table)")


def _try_ident(cur: _Cursor) -> str | None:
    save = cur.pos
    if not cur.eof() and (cur.text[cur.pos].isalpha() or cur.text[cur.pos] == "_"):
        return cur.ident()
    cur.pos = save
    return None


def _parse_goal(cur: _Cursor) -> GoalPredicate:
    conjuncts = [Comparison(cur.ident(), cur.comparison_op(), cur.integer())]
    while True:
        save = cur.pos
        if _try_ident(cur) != "and":
            cur.pos = save
            break
        conjuncts.append(Comparison(cur.ident(), cur.comparison_op(), cur.integer()))
    return GoalPredicate(tuple(conjuncts))


def _parse_final(cur: _Cursor, raw: _Raw) -> None:
    name = cur.ident()
    cur.expect("{")
    cur.keyword("effects")
    cur.expect(":")
    effects = cur.names()
    cur.expect(";")
    cur.keyword("goal")
    cur.expect(":")
    goal = _parse_goal(cur)
    cur.match(";")
    cur.expect("}")
    cur.end()
    raw.finals.append((name, effects, goal, cur.lineno))


_STATEMENTS = {
    "var": _parse_var,
    "edge": _parse_edge,
    "mech": _parse_mech,
    "final": _parse_final,
}


def _scan(text: str) -> _Raw:
    raw = _Raw()
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        cur = _Cursor(body, lineno)
        if cur.eof():
            continue
        head = cur.ident()
        if head in _STATEMENTS:
            _STATEMENTS[head](cur, raw)
        elif head == "do":
            raw.do_decls.append((cur.ident(), lineno))
            cur.end()
        elif head == "rest":
            var = cur.ident()
            cur.expect("=")
            raw.rest_decls.append((var, cur.integer(), lineno))
            cur.end()
        else:
            cur.pos -= len(head)
            cur.error(f"unknown statement {head!r}")
    return raw


def _cycle_line(
    edges: list[tuple[tuple[str, str], int]], nodes: tuple[str, ...]
) -> int:
    """Line of the first edge whose addition closes a cycle: the end of the
    shortest edge prefix that ``CausalDag`` rejects, found by bisection
    (adding edges never removes a cycle).  Runs only on the error path, for
    edges that close a cycle as a whole."""
    acyclic, cyclic = 0, len(edges)  # lengths of an acyclic and a cyclic prefix
    while cyclic - acyclic > 1:
        mid = (acyclic + cyclic) // 2
        try:
            CausalDag(nodes, tuple(e for e, _ in edges[:mid]))
            acyclic = mid
        except ModelStructureError:
            cyclic = mid
    return edges[cyclic - 1][1]


@contextmanager
def _statement(lineno: int):
    """Give a model constructor's error the line of the statement it builds;
    the parser's own diagnostics pass through."""
    try:
        yield
    except SpecSyntaxError:
        raise
    except TeleoError as exc:
        raise SpecSyntaxError(str(exc), lineno) from exc


def load_model(text: str) -> CompiledSpec:
    """Parse one spec document and build its model objects.

    Raises SpecSyntaxError with line (and column, for syntax) on the first
    problem.  The document's own rules are checked here: syntax, duplicate
    declarations and table rows, table-row width, edges (endpoints,
    self-loops, repeats, the edge that closes a cycle), one ``do`` and one
    ``rest``, a ``final`` needs a ``do``, repeated effects, and an edge into
    a variable without a mechanism.  Every other rule belongs to the model
    object a statement builds (``Mechanism``, ``check_parents``,
    ``check_table``, ``do_surgery``, ``build_final_model``), which is built
    once, in statement order, and whose error is reported at that line.
    """
    raw = _scan(text)

    variables: dict[str, Variable] = {}
    for name, lo, hi, lineno in raw.variables:
        if name in variables:
            raise SpecSyntaxError(f"duplicate variable {name!r}", lineno)
        with _statement(lineno):
            check_size(hi - lo + 1, f"the level count of {name}")
            variables[name] = Variable(name, range(lo, hi + 1))

    seen_edges: set[tuple[str, str]] = set()
    for (parent, child), lineno in raw.edges:
        for endpoint in (parent, child):
            if endpoint not in variables:
                raise SpecSyntaxError(f"undeclared variable {endpoint!r}", lineno)
        if parent == child:
            raise SpecSyntaxError(f"self-loop on {parent!r}", lineno)
        if (parent, child) in seen_edges:
            raise SpecSyntaxError(f"duplicate edge {parent} -> {child}", lineno)
        seen_edges.add((parent, child))

    # acyclicity probe; on failure, blame the edge that closed the loop
    try:
        dag = CausalDag(tuple(variables), tuple(e for e, _ in raw.edges))
    except ModelStructureError:
        raise SpecSyntaxError(
            "edge closes a cycle", _cycle_line(raw.edges, tuple(variables))
        ) from None

    mechanisms: dict[str, Mechanism] = {}
    for child, parents, body, lineno in raw.mechs:
        if child in mechanisms:
            raise SpecSyntaxError(f"duplicate mechanism for {child!r}", lineno)
        with _statement(lineno):
            if parents is None:
                parents = dag.parents(child)
            check_parents(dag, child, parents)
            if body == "sum":
                mech = Mechanism.sum_of(
                    variables[child], (variables[p] for p in parents)
                )
            else:
                table: dict[tuple[int, ...], int] = {}
                for key, value in body:
                    if len(key) != len(parents):
                        raise SpecSyntaxError(
                            f"row {key} has {len(key)} values for {len(parents)} "
                            f"parents of {child}",
                            lineno,
                        )
                    if key in table:
                        raise SpecSyntaxError(f"duplicate table row {key}", lineno)
                    table[key] = value
                mech = Mechanism(child, parents, table)
            check_table(mech, variables)
        mechanisms[child] = mech

    for (_, child), lineno in raw.edges:
        if child not in mechanisms:
            raise SpecSyntaxError(f"{child} has parents but no mechanism", lineno)
    scm = Scm(dag, tuple(variables.values()), mechanisms)

    if len(raw.do_decls) > 1:
        raise SpecSyntaxError("only one intervention per model", raw.do_decls[1][1])
    mstar = None
    if raw.do_decls:
        target, lineno = raw.do_decls[0]
        with _statement(lineno):
            mstar = do_surgery(scm, target)

    if len(raw.rest_decls) > 1:
        raise SpecSyntaxError("only one rest declaration", raw.rest_decls[1][2])
    rest = None
    if raw.rest_decls:
        var, level, lineno = raw.rest_decls[0]
        if var not in variables:
            raise SpecSyntaxError(f"undeclared variable {var!r}", lineno)
        if mstar is None or var != mstar.target:
            raise SpecSyntaxError("rest level must name the do variable", lineno)
        if level not in variables[var].domain:
            raise SpecSyntaxError(
                f"rest level {level} outside domain {variables[var].domain}", lineno
            )
        rest = level

    finals: dict[str, FinalModel] = {}
    for name, effects, goal, lineno in raw.finals:
        if name in finals:
            raise SpecSyntaxError(f"duplicate final block {name!r}", lineno)
        if mstar is None:
            raise SpecSyntaxError(f"final {name!r} needs a do declaration", lineno)
        if len(set(effects)) != len(effects):
            raise SpecSyntaxError("repeated intended effect", lineno)
        with _statement(lineno):
            finals[name] = build_final_model(mstar, effects, goal, name=name)

    return CompiledSpec(scm, mstar, finals, rest)


def print_model(spec: CompiledSpec) -> str:
    """Canonical text for a compiled spec; ``load_model`` of the text builds
    an equal spec.

    Statements come in model order: variables and edges as declared,
    mechanisms as their statements were, each table's rows sorted, and each
    final's effects in variable order.  A table whose every value is the sum
    of its key prints as ``sum``.
    """
    scm = spec.scm
    out: list[str] = []
    for v in scm.variables:
        lo, hi = v.domain[0], v.domain[-1]
        if v.domain != tuple(range(lo, hi + 1)):
            raise ModelStructureError(f"domain of {v.name} is not a contiguous range")
        out.append(f"var {v.name} in {lo}..{hi}")
    if scm.dag.edges:
        out.append("")
        out.extend(f"edge {p} -> {c}" for p, c in scm.dag.edges)
    if scm.mechanisms:
        out.append("")
        for m in scm.mechanisms.values():
            parents = ", ".join(m.parents)
            if all(sum(key) == value for key, value in m.table.items()):
                out.append(f"mech {m.child} = sum({parents})")
            else:
                rows = "; ".join(
                    f"({','.join(str(v) for v in key)})->{value}"
                    for key, value in sorted(m.table.items())
                )
                out.append(f"mech {m.child} = table({parents}) {{ {rows} }}")
    if spec.mstar is not None:
        target = spec.mstar.target
        out.extend(("", f"do {target}"))
        if spec.rest is not None:
            out.append(f"rest {target} = {spec.rest}")
    for name, f in spec.finals.items():
        goal = " and ".join(f"{c.variable} {c.op} {c.level}" for c in f.goal.conjuncts)
        effects = ", ".join(f.intended_effects)
        out.append(f"final {name} {{ effects: {effects}; goal: {goal} }}")
    return "\n".join(out) + "\n"
