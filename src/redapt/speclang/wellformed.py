"""Static checks over a parsed document.

Every variable used in an entity's formulas, and every ``input:`` and
``output:`` name, must be declared in that entity's attributes (a formula
variable may instead be bound by an enclosing quantifier), quantifiers must
not shadow each other, cross-entity references must resolve, and a monitor
must declare the sensor class it gauges through.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .ast import (
    EntityKind,
    EntitySpec,
    Exists,
    Forall,
    Formula,
    INVARIANT_KINDS,
    MAPE_KINDS,
    SpecDocument,
    Term,
    UNCERTAINTY_KINDS,
    Var,
    children,
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
    if entity.kind is EntityKind.MONITOR and not entity.class_attributes():
        yield diag("missing-class", "monitor entity must declare the sensor class it gauges through")
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

    def walk(node: Union[Formula, Term], bound: tuple[str, ...]) -> Iterator[tuple[str, str]]:
        if isinstance(node, Var):
            base = node.name.split(".", 1)[0]
            if base not in bound and not declared(base) and not declared(node.name):
                yield ("undeclared-symbol", f"symbol {node.name!r} is not declared in attributes")
            return
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
            bound += (node.var,)
        for child in children(node):
            yield from walk(child, bound)

    yield from walk(formula, ())


def _uses_fields_of(node: Union[Formula, Term], var: str) -> bool:
    """True when ``node`` reads a field ``var.<name>`` of the quantified ``var``."""
    if isinstance(node, Var):
        return node.name.startswith(var + ".")
    if isinstance(node, (Forall, Exists)) and node.var == var:
        return False
    return any(_uses_fields_of(child, var) for child in children(node))
