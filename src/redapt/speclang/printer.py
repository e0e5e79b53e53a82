"""Canonical text emission for formulas and documents.

The printer reads the binding strengths and grouping in ``CONNECTIVES``
(``ast.py``), the table the parser climbs, and inserts exactly the
parentheses needed for the output to reparse to a structurally equal AST;
the operands of ``G``, ``F`` and ``X`` are parenthesized, but for one that
begins with a variable or function named ``forall`` or ``exists``: inside a
parenthesis that name would read as a quantifier, so such an operand follows
the letter after a space, where the parser reads it at the letter's strength.
"""

from __future__ import annotations

import re

from .ast import (
    Atom,
    AttrSort,
    Cmp,
    COMPARISON,
    CONNECTIVES,
    Const,
    EntitySpec,
    Exists,
    Forall,
    Formula,
    Func,
    ProcedureRef,
    QUANTIFIER,
    SpecDocument,
    Term,
    Var,
)


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


_QUANTIFIER_WORD = re.compile(r"(forall|exists)\b")


def print_formula(node: Formula) -> str:
    syntax = CONNECTIVES.get(type(node))
    if syntax is not None:
        token, strength, fixity = syntax
        if fixity == "prefix":
            if not token.isalpha():
                return token + _operand(node.operand, strength + 1)
            text = print_formula(node.operand)
            if _strength(node.operand) >= strength and _QUANTIFIER_WORD.match(text):
                return f"{token} {text}"
            return f"{token}({text})"
        lhs = _operand(node.lhs, strength + (fixity == "right"))
        return f"{lhs} {token} {_operand(node.rhs, strength + (fixity == 'left'))}"
    if isinstance(node, (Forall, Exists)):
        keyword = "forall" if isinstance(node, Forall) else "exists"
        return f"{keyword} {node.var} in {node.domain} . {print_formula(node.body)}"
    if isinstance(node, Cmp):
        return f"{print_term(node.lhs)} {node.op} {print_term(node.rhs)}"
    if isinstance(node, Atom):
        return print_term(node.term)
    if isinstance(node, ProcedureRef):
        return f"procedure {node.name}"
    raise TypeError(f"unknown formula node {node!r}")


def _strength(node: Formula) -> int:
    syntax = CONNECTIVES.get(type(node))
    return syntax.strength if syntax else QUANTIFIER if isinstance(node, (Forall, Exists)) else COMPARISON


def _operand(node: Formula, floor: int) -> str:
    """``node`` as the operand of a connective that reads it at strength ``floor``."""
    text = print_formula(node)
    return f"({text})" if _strength(node) < floor else text


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
