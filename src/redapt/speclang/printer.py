"""Canonical text emission for formulas and documents.

The printer inserts exactly the parentheses needed for the output to
reparse to a structurally equal AST under the operator precedence table;
unary temporal operands are always parenthesized.
"""

from __future__ import annotations

from .ast import (
    And,
    Atom,
    AttrSort,
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
    Next,
    Not,
    Or,
    ProcedureRef,
    SpecDocument,
    Term,
    Until,
    Var,
)

_QUANT, _IMPLIES, _OR, _AND, _NOT, _TEMPORAL, _UNTIL, _CMP = range(8)


# binding strength of each formula node type; comparisons and atoms bind tightest
_PRECEDENCE = {
    Forall: _QUANT, Exists: _QUANT, Implies: _IMPLIES, Or: _OR, And: _AND, Not: _NOT,
    Next: _TEMPORAL, Eventually: _TEMPORAL, Globally: _TEMPORAL, Until: _UNTIL,
}


def print_term(term: Term) -> str:
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Const):
        value = term.value
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, str):
            return f'"{value}"'
        if float(value).is_integer() and abs(value) < 1e15:
            return str(int(value))
        return repr(float(value))
    if isinstance(term, Func):
        return f"{term.name}({', '.join(print_term(a) for a in term.args)})"
    raise TypeError(f"unknown term node {term!r}")


def print_formula(node: Formula) -> str:
    def at(child: Formula, minimum: int) -> str:
        text = print_formula(child)
        return f"({text})" if _PRECEDENCE.get(type(child), _CMP) < minimum else text

    if isinstance(node, (Forall, Exists)):
        keyword = "forall" if isinstance(node, Forall) else "exists"
        return f"{keyword} {node.var} in {node.domain} . {print_formula(node.body)}"
    if isinstance(node, Implies):
        return f"{at(node.lhs, _IMPLIES + 1)} -> {at(node.rhs, _IMPLIES)}"
    if isinstance(node, Or):
        return f"{at(node.lhs, _OR)} || {at(node.rhs, _OR + 1)}"
    if isinstance(node, And):
        return f"{at(node.lhs, _AND)} && {at(node.rhs, _AND + 1)}"
    if isinstance(node, Not):
        return f"!{at(node.operand, _NOT + 1)}"
    if isinstance(node, (Next, Eventually, Globally)):
        letter = {Next: "X", Eventually: "F", Globally: "G"}[type(node)]
        return f"{letter}({print_formula(node.operand)})"
    if isinstance(node, Until):
        return f"{at(node.lhs, _UNTIL + 1)} U {at(node.rhs, _UNTIL)}"
    if isinstance(node, Cmp):
        return f"{print_term(node.lhs)} {node.op} {print_term(node.rhs)}"
    if isinstance(node, Atom):
        return print_term(node.term)
    if isinstance(node, ProcedureRef):
        return f"procedure {node.name}"
    raise TypeError(f"unknown formula node {node!r}")


def print_entity(entity: EntitySpec) -> str:
    lines = [f'{entity.kind.value} "{entity.name}" {{']
    if entity.from_goal is not None:
        lines.append(f'  from_goal: "{entity.from_goal}"')
    if entity.affected_goal is not None:
        lines.append(
            f'  affected_goal: "{entity.affected_goal}" {entity.affected_violation_kind}'
        )
    if entity.tradeoff_with is not None:
        lines.append(f'  tradeoff_with: "{entity.tradeoff_with}"')
    if entity.attributes:
        lines.append("  attributes:")
        for attr in entity.attributes:
            if attr.sort is AttrSort.CLASS:
                lines.append(f"    class {attr.name}")
            else:
                lines.append(f"    {attr.sort.value} {attr.name}")
    if entity.input:
        lines.append(f"  input: {', '.join(entity.input)}")
    if entity.output:
        lines.append(f"  output: {', '.join(entity.output)}")
    for (phase, slot), formula in entity.conditions:
        lines.append(f"  {phase.value}.{slot.value}: {print_formula(formula)}")
    if entity.invariant is not None:
        lines.append(f"  invariant: {print_formula(entity.invariant)}")
    if entity.variant is not None:
        lines.append(f"  variant: {print_formula(entity.variant)}")
    if entity.violation is not None:
        lines.append(f"  violation: {print_formula(entity.violation)}")
    lines.append("}")
    return "\n".join(lines)


def print_document(doc: SpecDocument) -> str:
    return "\n\n".join(print_entity(e) for e in doc.entities) + "\n"
