"""Tokenizer for the specification language.

A dot glued between identifier characters produces a single dotted
identifier token (``s.value``, ``init.pre``); a free-standing dot is the
quantifier separator.  Numbers may carry a ``%`` suffix, which scales the
literal by 1/100.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from .errors import ParseError


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT NUMBER STRING PUNCT EOF
    value: str
    line: int
    col: int
    number: float = 0.0

    def __repr__(self) -> str:  # compact in parser error paths
        return f"{self.kind}({self.value!r})@{self.line}:{self.col}"


# one alternative per token kind, tried in order; BAD takes any other character
_TOKEN = re.compile(
    r"""(?P<SKIP>[ \t\r\n]+|\#[^\n]*)
      | (?P<STRING>"[^"\n]*")
      | (?P<NUMBER>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?%?)
      | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*)
      | (?P<PUNCT>&&|\|\||->|[!<>]=|[!=<>(){},:.-])
      | (?P<BAD>.)""",
    re.VERBOSE,
)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, value, start = m.lastgroup, m.group(), m.start()
        col = start - line_start + 1
        if kind == "SKIP":
            newlines = value.count("\n")
            if newlines:
                line += newlines
                line_start = start + value.rindex("\n") + 1
        elif kind == "BAD":
            if value == '"':
                raise ParseError("unterminated string literal", line, col)
            raise ParseError(f"unexpected character {value!r}", line, col)
        elif kind == "NUMBER":
            number = float(value.rstrip("%"))
            if value.endswith("%"):
                number /= 100.0
            tokens.append(Token(kind, value, line, col, number))
        else:
            tokens.append(Token(kind, value[1:-1] if kind == "STRING" else value, line, col))
    tokens.append(Token("EOF", "", line, len(text) - line_start + 1))
    return tokens
