"""Static checks over a parsed document.

Every variable used in an entity's formulas, and every ``input:`` and
``output:`` name, must be declared in that entity's attributes (a formula
variable may instead be bound by an enclosing quantifier), quantifiers must
not shadow each other, and cross-entity references must resolve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .ast import (
    And,
    Atom,
    Cmp,
    Const,
    EntitySpec,
    Eventually,
    Exists,
    Forall,
    Formula,
    Func,
    Globally,
    Implies,
    INVARIANT_KINDS,
    MAPE_KINDS,
    Next,
    Not,
    Or,
    ProcedureRef,
    SpecDocument,
    Term,
    UNCERTAINTY_KINDS,
    Until,
    Var,
)


@dataclass(frozen=True)
class Diagnostic:
    entity: str
    code: str
    message: str
    line: int = 0
    col: int = 0

    def render(self, filename: str = "<spec>") -> str:
        return f"{filename}:{self.line}:{self.col}: {self.code}: {self.message}"


def check_wellformed(doc: SpecDocument) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for entity in doc.entities:
        out.extend(_check_entity(doc, entity))
    return out


def _check_entity(doc: SpecDocument, entity: EntitySpec) -> Iterator[Diagnostic]:
    header = entity.position_of("header") or (0, 0)

    def diag(code: str, message: str, label: Optional[str] = None) -> Diagnostic:
        pos = (entity.position_of(label) if label else None) or header
        return Diagnostic(entity.name, code, message, pos[0], pos[1])

    if entity.kind in MAPE_KINDS and entity.from_goal is None:
        yield diag("missing-from-goal", f"{entity.kind.value} entity must declare from_goal")
    if entity.kind in UNCERTAINTY_KINDS and entity.affected_goal is None:
        yield diag("missing-affected-goal", f"{entity.kind.value} entity must declare affected_goal")
    if entity.invariant is not None and entity.kind not in INVARIANT_KINDS:
        yield diag(
            "invariant-not-allowed",
            f"invariant is only permitted on goal, adaptive_goal and softgoal entities",
            "invariant",
        )
    if entity.violation is not None and entity.kind not in UNCERTAINTY_KINDS:
        yield diag("violation-not-allowed", "violation formulas belong to uncertainty entities", "violation")

    if entity.from_goal is not None and doc.by_name(entity.from_goal) is None:
        yield diag("dangling-reference", f"from_goal {entity.from_goal!r} names no entity", "from_goal")
    if entity.affected_goal is not None and doc.by_name(entity.affected_goal) is None:
        yield diag(
            "dangling-reference",
            f"affected_goal {entity.affected_goal!r} names no entity",
            "affected_goal",
        )

    for label, names in (("input", entity.input), ("output", entity.output)):
        for name in names:
            if not any(a.matches(name) for a in entity.attributes):
                yield diag(
                    "undeclared-io", f"{label} {name!r} is not declared in attributes", label
                )

    class_names = {a.name for a in entity.class_attributes()}
    for label, formula in _formulas_of(entity):
        for problem_code, message in _check_formula(entity, formula, class_names):
            yield diag(problem_code, message, label)


def _formulas_of(entity: EntitySpec) -> Iterator[tuple[str, Formula]]:
    for (phase, slot), formula in entity.conditions:
        yield f"{phase.value}.{slot.value}", formula
    if entity.invariant is not None:
        yield "invariant", entity.invariant
    if entity.variant is not None:
        yield "variant", entity.variant
    if entity.violation is not None:
        yield "violation", entity.violation


def _check_formula(
    entity: EntitySpec, formula: Formula, class_names: set[str]
) -> Iterator[tuple[str, str]]:
    def declared(symbol: str) -> bool:
        return any(a.matches(symbol) for a in entity.attributes)

    def walk(node: Formula, bound: tuple[str, ...]) -> Iterator[tuple[str, str]]:
        if isinstance(node, (Forall, Exists)):
            if node.var in bound:
                yield (
                    "quantifier-shadowing",
                    f"quantified variable {node.var!r} shadows an enclosing quantifier",
                )
            if _uses_fields_of(node.body, node.var) and node.domain not in class_names:
                yield (
                    "undeclared-class",
                    f"quantifier domain {node.domain!r} is used as a class but is not "
                    f"declared as a class attribute",
                )
            yield from walk(node.body, bound + (node.var,))
        elif isinstance(node, (Not, Next, Eventually, Globally)):
            yield from walk(node.operand, bound)
        elif isinstance(node, (And, Or, Implies, Until)):
            yield from walk(node.lhs, bound)
            yield from walk(node.rhs, bound)
        elif isinstance(node, Atom):
            yield from check_term(node.term, bound)
        elif isinstance(node, Cmp):
            yield from check_term(node.lhs, bound)
            yield from check_term(node.rhs, bound)
        elif isinstance(node, ProcedureRef):
            return
        else:  # pragma: no cover - exhaustive over AST
            raise TypeError(f"unknown formula node {node!r}")

    def check_term(term: Term, bound: tuple[str, ...]) -> Iterator[tuple[str, str]]:
        if isinstance(term, Var):
            base = term.name.split(".", 1)[0]
            if base not in bound and not declared(base) and not declared(term.name):
                yield ("undeclared-symbol", f"symbol {term.name!r} is not declared in attributes")
        elif isinstance(term, Func):
            for arg in term.args:
                yield from check_term(arg, bound)
        elif isinstance(term, Const):
            return
        else:  # pragma: no cover
            raise TypeError(f"unknown term node {term!r}")

    yield from walk(formula, ())


def _uses_fields_of(formula: Formula, var: str) -> bool:
    prefix = var + "."

    def term_uses(term: Term) -> bool:
        if isinstance(term, Var):
            return term.name.startswith(prefix)
        if isinstance(term, Func):
            return any(term_uses(a) for a in term.args)
        return False

    def walk(node: Formula) -> bool:
        if isinstance(node, (Forall, Exists)):
            return node.var != var and walk(node.body)
        if isinstance(node, (Not, Next, Eventually, Globally)):
            return walk(node.operand)
        if isinstance(node, (And, Or, Implies, Until)):
            return walk(node.lhs) or walk(node.rhs)
        if isinstance(node, Atom):
            return term_uses(node.term)
        if isinstance(node, Cmp):
            return term_uses(node.lhs) or term_uses(node.rhs)
        return False

    return walk(formula)
