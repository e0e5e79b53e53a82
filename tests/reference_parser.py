"""Frozen reference parser for formulas, used to cross-check the parser.

A copy of the recursive-descent formula parser as it stood before the
parser moved to precedence climbing over the connective table: one method
per precedence level, from the token helpers through ``term``.  It is kept
as it was, so that tests can hold the production parser to the same ASTs
and the same ``ParseError`` messages and positions.  It recurses once per
level and per nesting, so feed it shallow formulas only.
"""

from __future__ import annotations

from typing import Optional, Sequence

from redapt.speclang import (
    And,
    Atom,
    Cmp,
    Const,
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
    ParseError,
    Term,
    Until,
    Var,
)
from redapt.speclang.lexer import Token, tokenize

_CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")
_TEMPORAL_UNARY = {"G": Globally, "F": Eventually, "X": Next}


def reference_parse_formula(text: str) -> Formula:
    parser = _ReferenceParser(tokenize(text))
    out = parser.formula()
    trailing = parser.peek()
    if trailing.kind != "EOF":
        raise ParseError(f"trailing input {trailing.value!r}", trailing.line, trailing.col)
    return out


class _ReferenceParser:
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
        return tok.kind == "PUNCT" and tok.value in _CMP_OPS

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
