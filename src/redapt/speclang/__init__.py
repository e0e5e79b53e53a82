"""Specification language: parsing, checking, printing and trace evaluation."""

from .ast import (
    And,
    Atom,
    AttrSort,
    AttributeDecl,
    Cmp,
    Const,
    EntityKind,
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
    Phase,
    ProcedureRef,
    Slot,
    SpecDocument,
    Term,
    UNCERTAINTY_KINDS,
    Until,
    Var,
    variable_names,
)
from .errors import (
    DuplicateEntityError,
    EvaluationError,
    InfiniteDomainError,
    ParseError,
    SpecLangError,
    UnboundVariableError,
)
from .evaluate import (
    Instance,
    State,
    Trace,
    Verdict,
    evaluate,
    kleene_and,
    kleene_not,
    kleene_or,
)
from .parser import parse_document, parse_formula
from .printer import print_document, print_entity, print_formula, print_term
from .wellformed import Diagnostic, check_wellformed

__all__ = [
    "And", "Atom", "AttrSort", "AttributeDecl", "Cmp", "Const", "Diagnostic",
    "DuplicateEntityError", "EntityKind", "EntitySpec", "EvaluationError",
    "Eventually", "Exists", "Forall", "Formula", "Func", "Globally", "Implies",
    "INVARIANT_KINDS", "InfiniteDomainError", "Instance", "MAPE_KINDS", "Next",
    "Not", "Or", "ParseError", "Phase", "ProcedureRef", "Slot", "SpecDocument",
    "SpecLangError", "State", "Term", "Trace", "UNCERTAINTY_KINDS",
    "UnboundVariableError", "Until", "Var", "Verdict", "check_wellformed",
    "evaluate", "kleene_and", "kleene_not", "kleene_or", "parse_document",
    "parse_formula", "print_document", "print_entity", "print_formula",
    "print_term", "variable_names",
]
