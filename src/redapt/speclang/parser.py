"""Recursive-descent parser for entity documents and formulas.

Operator precedence, loosest to tightest: quantifiers, ``->``, ``||``,
``&&``, ``!``, the unary temporal operators ``G F X``, ``U`` (right
associative), comparisons.  ``G``, ``F`` and ``X`` double as variable names:
they are read as operators only when the following token can begin an
operand.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .ast import (
    And,
    Atom,
    AttrSort,
    AttributeDecl,
    Cmp,
    CMP_OPS,
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
    Next,
    Not,
    Or,
    Phase,
    ProcedureRef,
    Slot,
    SpecDocument,
    Term,
    Until,
    Var,
)
from .errors import DuplicateEntityError, ParseError
from .lexer import Token, tokenize

_KIND_KEYWORDS = {k.value: k for k in EntityKind}
_SLOT_KEYWORDS = {
    f"{phase.value}.{slot.value}": (phase, slot) for phase in Phase for slot in Slot
}
_TEMPORAL_UNARY = {"G": Globally, "F": Eventually, "X": Next}


class _Parser:
    def __init__(self, tokens: Sequence[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token helpers ----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at_punct(self, value: str) -> bool:
        tok = self.peek()
        return tok.kind == "PUNCT" and tok.value == value

    def at_ident(self, value: Optional[str] = None) -> bool:
        tok = self.peek()
        return tok.kind == "IDENT" and (value is None or tok.value == value)

    def expect_punct(self, value: str) -> Token:
        if not self.at_punct(value):
            tok = self.peek()
            raise ParseError(f"unexpected {tok.value or 'end of input'!r}", tok.line, tok.col, (value,))
        return self.next()

    def expect_ident(self, value: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok.kind != "IDENT" or (value is not None and tok.value != value):
            raise ParseError(
                f"unexpected {tok.value or 'end of input'!r}",
                tok.line,
                tok.col,
                (value,) if value else ("identifier",),
            )
        return self.next()

    def expect_string(self) -> Token:
        tok = self.peek()
        if tok.kind != "STRING":
            raise ParseError(f"unexpected {tok.value or 'end of input'!r}", tok.line, tok.col, ("string",))
        return self.next()

    # -- formulas ---------------------------------------------------------

    def formula(self) -> Formula:
        return self._quantified()

    def _quantified(self) -> Formula:
        if self.at_ident("forall") or self.at_ident("exists"):
            keyword = self.next().value
            var = self.expect_ident().value
            self.expect_ident("in")
            domain = self.expect_ident().value
            self.expect_punct(".")
            body = self._quantified()
            cls = Forall if keyword == "forall" else Exists
            return cls(var, domain, body)
        return self._implication()

    def _implication(self) -> Formula:
        lhs = self._disjunction()
        if self.at_punct("->"):
            self.next()
            return Implies(lhs, self._implication())
        return lhs

    def _disjunction(self) -> Formula:
        out = self._conjunction()
        while self.at_punct("||"):
            self.next()
            out = Or(out, self._conjunction())
        return out

    def _conjunction(self) -> Formula:
        out = self._negation()
        while self.at_punct("&&"):
            self.next()
            out = And(out, self._negation())
        return out

    def _negation(self) -> Formula:
        if self.at_punct("!"):
            self.next()
            return Not(self._negation())
        return self._temporal()

    def _temporal(self) -> Formula:
        tok = self.peek()
        if tok.kind == "IDENT" and tok.value in _TEMPORAL_UNARY and self._operand_follows():
            self.next()
            return _TEMPORAL_UNARY[tok.value](self._temporal())
        return self._until()

    def _operand_follows(self) -> bool:
        nxt = self.peek(1)
        if nxt.kind in ("NUMBER", "STRING"):
            return True
        if nxt.kind == "IDENT":
            return nxt.value != "U"
        return nxt.kind == "PUNCT" and nxt.value in ("(", "-", "!")

    def _until(self) -> Formula:
        lhs = self._comparison()
        if self.at_ident("U"):
            self.next()
            return Until(lhs, self._until())
        return lhs

    def _comparison(self) -> Formula:
        if self.at_punct("("):
            open_tok = self.next()
            inner = self.formula()
            self.expect_punct(")")
            if self._at_cmp_op():
                if not isinstance(inner, Atom):
                    raise ParseError(
                        "left side of a comparison must be a term",
                        open_tok.line,
                        open_tok.col,
                    )
                op = self.next().value
                return Cmp(op, inner.term, self.term())
            return inner
        lhs = self.term()
        if self._at_cmp_op():
            op = self.next().value
            return Cmp(op, lhs, self.term())
        return Atom(lhs)

    def _at_cmp_op(self) -> bool:
        tok = self.peek()
        return tok.kind == "PUNCT" and tok.value in CMP_OPS

    def term(self) -> Term:
        tok = self.peek()
        if tok.kind == "PUNCT" and tok.value == "-":
            self.next()
            num = self.peek()
            if num.kind != "NUMBER":
                raise ParseError("expected a number after '-'", num.line, num.col, ("number",))
            self.next()
            return Const(-num.number)
        if tok.kind == "NUMBER":
            self.next()
            return Const(tok.number)
        if tok.kind == "STRING":
            self.next()
            return Const(tok.value)
        if tok.kind == "IDENT":
            self.next()
            if tok.value == "true":
                return Const(True)
            if tok.value == "false":
                return Const(False)
            if self.at_punct("("):
                self.next()
                args = [self.term()]
                while self.at_punct(","):
                    self.next()
                    args.append(self.term())
                self.expect_punct(")")
                return Func(tok.value, tuple(args))
            return Var(tok.value)
        raise ParseError(
            f"unexpected {tok.value or 'end of input'!r} in term",
            tok.line,
            tok.col,
            ("identifier", "number", "string"),
        )

    # -- documents --------------------------------------------------------

    def document(self) -> SpecDocument:
        entities: list[EntitySpec] = []
        names: set[str] = set()
        while not self.peek().kind == "EOF":
            entity = self.entity()
            if entity.name in names:
                raise DuplicateEntityError(
                    f"duplicate entity name {entity.name!r}", *entity.position_of("header")
                )
            names.add(entity.name)
            entities.append(entity)
        return SpecDocument(tuple(entities))

    def entity(self) -> EntitySpec:
        tok = self.peek()
        if tok.kind != "IDENT" or tok.value not in _KIND_KEYWORDS:
            raise ParseError(
                f"expected an entity kind, got {tok.value or 'end of input'!r}",
                tok.line,
                tok.col,
                tuple(sorted(_KIND_KEYWORDS)),
            )
        self.next()
        kind = _KIND_KEYWORDS[tok.value]
        name = self.expect_string().value
        positions: list[tuple[str, tuple[int, int]]] = [("header", (tok.line, tok.col))]
        self.expect_punct("{")

        values: dict[str, object] = {}  # clause label -> what its reader returned
        while not self.at_punct("}"):
            clause = self.peek()
            if clause.kind != "IDENT":
                raise ParseError(
                    f"expected a clause, got {clause.value or 'end of input'!r}",
                    clause.line,
                    clause.col,
                )
            label = clause.value
            self.next()
            self.expect_punct(":")
            if label not in _CLAUSES:
                raise ParseError(f"unknown clause {label!r}", clause.line, clause.col, tuple(_CLAUSES))
            if label in values:
                raise ParseError(f"clause {label!r} given twice", clause.line, clause.col)
            positions.append((label, (clause.line, clause.col)))
            values[label] = _CLAUSES[label](self)
        self.expect_punct("}")

        affected_goal, affected_kind = values.pop("affected_goal", (None, None))
        conditions = tuple(
            (key, values.pop(label)) for label, key in _SLOT_KEYWORDS.items() if label in values
        )
        return EntitySpec(
            kind=kind,
            name=name,
            conditions=conditions,
            affected_goal=affected_goal,
            affected_violation_kind=affected_kind,
            positions=tuple(positions),
            **values,
        )

    def _string(self) -> str:
        return self.expect_string().value

    def _affected_goal(self) -> tuple[str, str]:
        goal = self._string()
        kind_tok = self.expect_ident()
        if kind_tok.value not in ("FR", "NFR"):
            raise ParseError(
                f"expected FR or NFR, got {kind_tok.value!r}",
                kind_tok.line,
                kind_tok.col,
                ("FR", "NFR"),
            )
        return goal, kind_tok.value

    def _condition(self) -> Formula:
        if self.at_ident("procedure"):
            self.next()
            return ProcedureRef(self.expect_ident().value)
        return self.formula()

    def _attribute_lines(self) -> tuple[AttributeDecl, ...]:
        out: list[AttributeDecl] = []
        while self.at_ident("numeric") or self.at_ident("boolean") or self.at_ident("class"):
            sort_tok = self.next()
            if sort_tok.value == "class":
                name = self.expect_ident().value
                out.append(AttributeDecl(name, AttrSort.CLASS, class_name=name))
                continue
            sort = AttrSort.NUMERIC if sort_tok.value == "numeric" else AttrSort.BOOLEAN
            out.extend(
                AttributeDecl(n, sort, indexed=n.endswith("_i")) for n in self._identifiers()
            )
        return tuple(out)

    def _name_list(self) -> tuple[str, ...]:
        if self.at_ident("none"):
            self.next()
            return ()
        return self._identifiers()

    def _identifiers(self) -> tuple[str, ...]:
        names = [self.expect_ident().value]
        while self.at_punct(","):
            self.next()
            names.append(self.expect_ident().value)
        return tuple(names)


# each clause label, in the order an unknown clause lists them, and the reader
# of its value; the label is the EntitySpec field the value fills, apart from
# affected_goal (a goal and its violation kind) and the condition slots
_CLAUSES = {
    "attributes": _Parser._attribute_lines,
    "input": _Parser._name_list,
    "output": _Parser._name_list,
    "from_goal": _Parser._string,
    "affected_goal": _Parser._affected_goal,
    "tradeoff_with": _Parser._string,
    "invariant": _Parser.formula,
    "variant": _Parser.formula,
    "violation": _Parser.formula,
    **{label: _Parser._condition for label in _SLOT_KEYWORDS},
}


def parse_formula(text: str) -> Formula:
    parser = _Parser(tokenize(text))
    out = parser.formula()
    trailing = parser.peek()
    if trailing.kind != "EOF":
        raise ParseError(f"trailing input {trailing.value!r}", trailing.line, trailing.col)
    return out


def parse_document(text: str) -> SpecDocument:
    return _Parser(tokenize(text)).document()
