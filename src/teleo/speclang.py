"""The model-specification language: parser, validator, printer, compiler.

The grammar is line oriented; ``#`` starts a comment anywhere.

    var W in 0..1
    edge H -> T
    mech T = sum(W, H)
    mech B = table(H) { (0)->0; (1)->1 }
    do H
    rest H = 0
    final warm { effects: T; goal: T = 1 }

``sum`` expands to an explicit table while parsing; a sum that leaves the
child's domain is a totality error (widen the domain, nothing is clamped).
A ``table`` without an explicit parent list reads its keys in the order the
inbound edges were declared.  Parsing validates the whole document, so a
document that parses always compiles into a well-formed model.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

from teleo.errors import ModelStructureError, SpecSyntaxError
from teleo.intervention import MStarModel, do_surgery
from teleo.model import CausalDag, Mechanism, Scm, Variable
from teleo.teleology import Comparison, FinalModel, GoalPredicate, build_final_model

__all__ = [
    "VarDecl",
    "MechDecl",
    "FinalDecl",
    "ModelSpecDocument",
    "CompiledSpec",
    "parse_model",
    "print_model",
    "compile_document",
    "load_model",
]

# An integer literal: an optional '-', then ASCII digits only.  int() alone
# would also take '+1', '0_1' and non-ASCII digits such as '١', and
# str.isdigit() admits characters such as '²' that int() rejects.
INTEGER = re.compile(r"-?[0-9]+")


@dataclass(frozen=True)
class VarDecl:
    name: str
    domain: tuple[int, ...]


@dataclass(frozen=True)
class MechDecl:
    child: str
    parents: tuple[str, ...]
    rows: tuple[tuple[tuple[int, ...], int], ...]  # sorted (key, value) pairs
    notation: str  # "sum" or "table"


@dataclass(frozen=True)
class FinalDecl:
    name: str
    effects: tuple[str, ...]
    goal: GoalPredicate


@dataclass(frozen=True)
class ModelSpecDocument:
    """Abstract form of one spec file: one model plus named hypotheses."""

    variables: tuple[VarDecl, ...]
    edges: tuple[tuple[str, str], ...]
    mechanisms: tuple[MechDecl, ...]
    do_target: str | None = None
    rest: tuple[str, int] | None = None
    finals: tuple[FinalDecl, ...] = ()


@dataclass
class CompiledSpec:
    """A document turned into live model objects."""

    document: ModelSpecDocument
    scm: Scm
    mstar: MStarModel | None
    finals: dict[str, FinalModel] = field(default_factory=dict)
    rest: int | None = None


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
        self.pos = found.end()
        return int(found.group())

    def comparison_op(self) -> str:
        for op in ("<=", ">=", "!=", "=", "<", ">"):
            if self.match(op):
                return op
        self.error("expected a comparison operator (=, !=, <, <=, >, >=)")

    def end(self) -> None:
        if not self.eof():
            self.error("unexpected trailing input")


@dataclass
class _Raw:
    """Parsed statements plus the lines they came from, for diagnostics."""

    variables: list[tuple[VarDecl, int]] = field(default_factory=list)
    edges: list[tuple[tuple[str, str], int]] = field(default_factory=list)
    mechs: list[tuple[str, tuple[str, ...] | None, object, int]] = field(
        default_factory=list
    )
    do_decls: list[tuple[str, int]] = field(default_factory=list)
    rest_decls: list[tuple[str, int, int]] = field(default_factory=list)
    finals: list[tuple[FinalDecl, int]] = field(default_factory=list)


def _parse_var(cur: _Cursor, raw: _Raw) -> None:
    name = cur.ident()
    cur.keyword("in")
    lo = cur.integer()
    cur.expect("..")
    hi = cur.integer()
    cur.end()
    if hi <= lo:
        cur.error(f"domain {lo}..{hi} needs at least two increasing levels")
    raw.variables.append((VarDecl(name, tuple(range(lo, hi + 1))), cur.lineno))


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
        parents = [cur.ident()]
        while cur.match(","):
            parents.append(cur.ident())
        cur.expect(")")
        cur.end()
        raw.mechs.append((child, tuple(parents), "sum", cur.lineno))
    elif kind == "table":
        parents: tuple[str, ...] | None = None
        if cur.match("("):
            listed = [cur.ident()]
            while cur.match(","):
                listed.append(cur.ident())
            cur.expect(")")
            parents = tuple(listed)
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
    effects = [cur.ident()]
    while cur.match(","):
        effects.append(cur.ident())
    cur.expect(";")
    cur.keyword("goal")
    cur.expect(":")
    goal = _parse_goal(cur)
    cur.match(";")
    cur.expect("}")
    cur.end()
    raw.finals.append((FinalDecl(name, tuple(effects), goal), cur.lineno))


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
            cur.pos = 0
            cur.error(f"unknown statement {head!r}")
    return raw


def _cycle_line(edges: list[tuple[tuple[str, str], int]], nodes: set[str]) -> int:
    """Line of the first edge whose addition closes a cycle."""

    def acyclic(pairs: list[tuple[str, str]]) -> bool:
        children: dict[str, list[str]] = {n: [] for n in nodes}
        indeg = {n: 0 for n in nodes}
        for p, c in pairs:
            children[p].append(c)
            indeg[c] += 1
        ready = [n for n in nodes if indeg[n] == 0]
        seen = 0
        while ready:
            v = ready.pop()
            seen += 1
            for c in children[v]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
        return seen == len(nodes)

    pairs: list[tuple[str, str]] = []
    for edge, lineno in edges:
        pairs.append(edge)
        if not acyclic(pairs):
            return lineno
    raise AssertionError("no cycle found")  # pragma: no cover


def parse_model(text: str) -> ModelSpecDocument:
    """Parse and fully validate one spec document.

    Raises SpecSyntaxError with line (and column, for syntax) on the first
    problem: bad syntax, duplicate declarations, undeclared references,
    cycles, non-total or out-of-domain mechanisms, unsatisfiable goals.
    """
    raw = _scan(text)

    domains: dict[str, tuple[int, ...]] = {}
    for decl, lineno in raw.variables:
        if decl.name in domains:
            raise SpecSyntaxError(f"duplicate variable {decl.name!r}", lineno)
        domains[decl.name] = decl.domain

    seen_edges: set[tuple[str, str]] = set()
    inbound: dict[str, list[str]] = {}
    for (parent, child), lineno in raw.edges:
        for endpoint in (parent, child):
            if endpoint not in domains:
                raise SpecSyntaxError(f"undeclared variable {endpoint!r}", lineno)
        if parent == child:
            raise SpecSyntaxError(f"self-loop on {parent!r}", lineno)
        if (parent, child) in seen_edges:
            raise SpecSyntaxError(f"duplicate edge {parent} -> {child}", lineno)
        seen_edges.add((parent, child))
        inbound.setdefault(child, []).append(parent)

    # acyclicity probe; on failure, blame the edge that closed the loop
    try:
        CausalDag(tuple(domains), tuple(e for e, _ in raw.edges))
    except ModelStructureError:
        raise SpecSyntaxError(
            "edge closes a cycle", _cycle_line(raw.edges, set(domains))
        ) from None

    mech_decls: list[MechDecl] = []
    mech_children: set[str] = set()
    for child, parents, body, lineno in raw.mechs:
        if child not in domains:
            raise SpecSyntaxError(f"undeclared variable {child!r}", lineno)
        if child in mech_children:
            raise SpecSyntaxError(f"duplicate mechanism for {child!r}", lineno)
        mech_children.add(child)
        dag_parents = tuple(inbound.get(child, ()))
        if not dag_parents:
            raise SpecSyntaxError(
                f"{child} has no inbound edges; exogenous variables take no mechanism",
                lineno,
            )
        if body == "sum":
            assert parents is not None
            notation = "sum"
            rows_list = None
        else:
            notation = "table"
            rows_list = body
            if parents is None:
                parents = dag_parents
        if set(parents) != set(dag_parents):
            raise SpecSyntaxError(
                f"mechanism parents ({', '.join(parents)}) do not match the "
                f"edges into {child} ({', '.join(dag_parents)})",
                lineno,
            )
        if len(set(parents)) != len(parents):
            raise SpecSyntaxError(f"repeated parent in mechanism for {child}", lineno)
        expected = set(itertools.product(*(domains[p] for p in parents)))
        if notation == "sum":
            rows = []
            for combo in sorted(expected):
                total = sum(combo)
                if total not in domains[child]:
                    raise SpecSyntaxError(
                        f"sum {total} of {dict(zip(parents, combo))} is outside "
                        f"the domain {domains[child]} of {child}; widen the domain",
                        lineno,
                    )
                rows.append((combo, total))
        else:
            table: dict[tuple[int, ...], int] = {}
            for key, value in rows_list:
                if len(key) != len(parents):
                    raise SpecSyntaxError(
                        f"row {key} has {len(key)} values for {len(parents)} "
                        f"parents of {child}",
                        lineno,
                    )
                if key in table:
                    raise SpecSyntaxError(f"duplicate table row {key}", lineno)
                if key not in expected:
                    raise SpecSyntaxError(
                        f"row {key} is outside the parent domains of {child}", lineno
                    )
                if value not in domains[child]:
                    raise SpecSyntaxError(
                        f"value {value} outside domain {domains[child]} of {child}",
                        lineno,
                    )
                table[key] = value
            missing = expected - set(table)
            if missing:
                raise SpecSyntaxError(
                    f"mechanism for {child} is not total: no row for "
                    f"{sorted(missing)[0]}",
                    lineno,
                )
            rows = sorted(table.items())
        mech_decls.append(MechDecl(child, tuple(parents), tuple(rows), notation))

    for child in inbound:
        if child not in mech_children:
            lineno = next(ln for (p, c), ln in raw.edges if c == child)
            raise SpecSyntaxError(
                f"model is not total: {child} has parents but no mechanism", lineno
            )

    if len(raw.do_decls) > 1:
        raise SpecSyntaxError(
            "only one intervention per model", raw.do_decls[1][1]
        )
    do_target = None
    if raw.do_decls:
        do_target, lineno = raw.do_decls[0]
        if do_target not in domains:
            raise SpecSyntaxError(f"undeclared variable {do_target!r}", lineno)

    if len(raw.rest_decls) > 1:
        raise SpecSyntaxError("only one rest declaration", raw.rest_decls[1][2])
    rest = None
    if raw.rest_decls:
        var, level, lineno = raw.rest_decls[0]
        if var not in domains:
            raise SpecSyntaxError(f"undeclared variable {var!r}", lineno)
        if do_target is None or var != do_target:
            raise SpecSyntaxError(
                "rest level must name the do variable", lineno
            )
        if level not in domains[var]:
            raise SpecSyntaxError(
                f"rest level {level} outside domain {domains[var]}", lineno
            )
        rest = (var, level)

    final_names: set[str] = set()
    finals: list[FinalDecl] = []
    for decl, lineno in raw.finals:
        if decl.name in final_names:
            raise SpecSyntaxError(f"duplicate final block {decl.name!r}", lineno)
        final_names.add(decl.name)
        if do_target is None:
            raise SpecSyntaxError(
                f"final {decl.name!r} needs a do declaration", lineno
            )
        for eff in decl.effects:
            if eff not in domains:
                raise SpecSyntaxError(f"undeclared variable {eff!r}", lineno)
        if len(set(decl.effects)) != len(decl.effects):
            raise SpecSyntaxError("repeated intended effect", lineno)
        for var in decl.goal.variables:
            if var not in domains:
                raise SpecSyntaxError(f"undeclared variable {var!r}", lineno)
            if var not in decl.effects:
                raise SpecSyntaxError(
                    f"goal mentions {var} outside the intended effects", lineno
                )
            mine = [c for c in decl.goal.conjuncts if c.variable == var]
            if not any(
                all(c.holds(level) for c in mine) for level in domains[var]
            ):
                raise SpecSyntaxError(
                    f"goal {decl.goal} cannot be satisfied by any level of {var}",
                    lineno,
                )
        finals.append(decl)

    return ModelSpecDocument(
        variables=tuple(decl for decl, _ in raw.variables),
        edges=tuple(e for e, _ in raw.edges),
        mechanisms=tuple(mech_decls),
        do_target=do_target,
        rest=rest,
        finals=tuple(finals),
    )


def print_model(doc: ModelSpecDocument) -> str:
    """Canonical text for a document; parsing it back gives an equal document."""
    out: list[str] = []
    for v in doc.variables:
        lo, hi = v.domain[0], v.domain[-1]
        if v.domain != tuple(range(lo, hi + 1)):
            raise SpecSyntaxError(
                f"domain of {v.name} is not a contiguous range", 0
            )
        out.append(f"var {v.name} in {lo}..{hi}")
    if doc.edges:
        out.append("")
        out.extend(f"edge {p} -> {c}" for p, c in doc.edges)
    if doc.mechanisms:
        out.append("")
        for m in doc.mechanisms:
            if m.notation == "sum":
                out.append(f"mech {m.child} = sum({', '.join(m.parents)})")
            else:
                rows = "; ".join(
                    f"({','.join(str(v) for v in key)})->{value}"
                    for key, value in m.rows
                )
                out.append(
                    f"mech {m.child} = table({', '.join(m.parents)}) {{ {rows} }}"
                )
    if doc.do_target or doc.rest or doc.finals:
        out.append("")
    if doc.do_target:
        out.append(f"do {doc.do_target}")
    if doc.rest:
        out.append(f"rest {doc.rest[0]} = {doc.rest[1]}")
    for f in doc.finals:
        goal = " and ".join(
            f"{c.variable} {c.op} {c.level}" for c in f.goal.conjuncts
        )
        out.append(
            f"final {f.name} {{ effects: {', '.join(f.effects)}; goal: {goal} }}"
        )
    return "\n".join(out) + "\n"


def compile_document(doc: ModelSpecDocument) -> CompiledSpec:
    """Turn a validated document into model objects."""
    variables = tuple(Variable(v.name, v.domain) for v in doc.variables)
    dag = CausalDag(tuple(v.name for v in variables), doc.edges)
    mechanisms = {
        m.child: Mechanism(m.child, m.parents, dict(m.rows)) for m in doc.mechanisms
    }
    scm = Scm(dag, variables, mechanisms)
    mstar = None
    finals: dict[str, FinalModel] = {}
    if doc.do_target is not None:
        mstar = do_surgery(scm, doc.do_target)
        for fd in doc.finals:
            finals[fd.name] = build_final_model(
                mstar, fd.effects, fd.goal, name=fd.name
            )
    return CompiledSpec(
        document=doc,
        scm=scm,
        mstar=mstar,
        finals=finals,
        rest=doc.rest[1] if doc.rest else None,
    )


def load_model(text: str) -> CompiledSpec:
    return compile_document(parse_model(text))
