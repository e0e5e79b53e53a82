"""Parser for entity documents and formulas.

Formulas are read by precedence climbing over ``CONNECTIVES`` in
``ast.py``, the table the printer reads.  ``G``, ``F`` and ``X`` double as
variable names: they are read as operators only when the following token
can begin an operand.  A formula nests at most ``MAX_DEPTH`` levels, as
docs/specification-language.md counts them, so that no walker of its AST
runs out of stack; a deeper one is a ``ParseError`` where it passes the limit.
"""

from __future__ import annotations

from typing import NoReturn, Optional, Sequence

from .ast import (
    Atom,
    AttrSort,
    AttributeDecl,
    Cmp,
    CMP_OPS,
    CONNECTIVES,
    Const,
    EntityKind,
    EntitySpec,
    Exists,
    Forall,
    Formula,
    Func,
    Phase,
    ProcedureRef,
    QUANTIFIER,
    Slot,
    SpecDocument,
    Term,
    Var,
)
from .errors import DuplicateEntityError, ParseError
from .lexer import Token, tokenize

_KIND_KEYWORDS = {k.value: k for k in EntityKind}
_SLOT_KEYWORDS = {
    f"{phase.value}.{slot.value}": (phase, slot) for phase in Phase for slot in Slot
}
# each connective's node type and syntax, by token
_PREFIX = {c.token: (node, c) for node, c in CONNECTIVES.items() if c.fixity == "prefix"}
_BINARY = {c.token: (node, c) for node, c in CONNECTIVES.items() if c.fixity != "prefix"}
MAX_DEPTH = 150  # nesting levels a formula may have


class _Parser:
    def __init__(self, tokens: Sequence[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # nesting levels of the formula being read; see formula()

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
        return self.next() if self.at_punct(value) else self._unexpected((value,))

    def expect_ident(self, value: Optional[str] = None) -> Token:
        return self.next() if self.at_ident(value) else self._unexpected((value or "identifier",))

    def expect_string(self) -> Token:
        return self.next() if self.peek().kind == "STRING" else self._unexpected(("string",))

    def _unexpected(self, expected: tuple[str, ...]) -> NoReturn:
        tok = self.peek()
        raise ParseError(f"unexpected {tok.value or 'end of input'!r}", tok.line, tok.col, expected)

    # -- formulas ---------------------------------------------------------

    def formula(self, floor: int = QUANTIFIER) -> Formula:
        """The formula at the cursor, up to the first binary connective that
        binds looser than ``floor``.  ``self.depth`` holds the nesting levels
        around the formula on entry, and those plus its own on return."""
        tok, base = self.peek(), self.depth
        prefix = self._connective(_PREFIX, floor)
        if floor == QUANTIFIER and (self.at_ident("forall") or self.at_ident("exists")):
            self.next()
            var = self.expect_ident().value
            self.expect_ident("in")
            domain = self.expect_ident().value
            self.expect_punct(".")
            self.depth = self._deeper(tok, base + 1)
            lhs = (Forall if tok.value == "forall" else Exists)(var, domain, self.formula())
        elif prefix and (tok.kind == "PUNCT" or self._operand_follows()):  # '!', or G F X
            node, syntax = prefix
            self.next()
            if not self.at_punct("("):  # G(...) is one level, as f(...) is
                self.depth = self._deeper(tok, base + 1)
            lhs = node(self.formula(syntax.strength))
        else:
            lhs = self._comparison()
        while binary := self._connective(_BINARY, floor):
            (node, syntax), tok = binary, self.next()
            height = self._deeper(tok, self.depth + 1)  # the chain so far, under this connective
            self.depth = base + 1
            rhs = self.formula(syntax.strength + (syntax.fixity == "left"))
            lhs, self.depth = node(lhs, rhs), max(self.depth, height)
        return lhs

    def _connective(self, table: dict, floor: int) -> Optional[tuple]:
        """The node type and syntax of the connective at the cursor, if
        ``table`` holds it and it binds at least as tightly as ``floor``."""
        tok = self.peek()
        found = table.get(tok.value) if tok.kind != "STRING" else None
        return found if found and found[1].strength >= floor else None

    def _deeper(self, tok: Token, depth: int) -> int:
        """``depth``, or a ``ParseError`` at ``tok`` if it passes the limit."""
        if depth > MAX_DEPTH:
            raise ParseError(f"formula nests deeper than {MAX_DEPTH} levels", tok.line, tok.col)
        return depth

    def _operand_follows(self) -> bool:
        nxt = self.peek(1)
        if nxt.kind in ("NUMBER", "STRING"):
            return True
        if nxt.kind == "IDENT":
            return nxt.value != "U"
        return nxt.kind == "PUNCT" and nxt.value in ("(", "-", "!")

    def _comparison(self) -> Formula:
        if self.at_punct("("):
            open_tok = self.next()
            self.depth = self._deeper(open_tok, self.depth + 1)
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
                self.depth = self._deeper(tok, self.depth + 1)
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
            self.depth = 0  # each clause's formula nests on its own
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
