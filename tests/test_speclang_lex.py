"""Pins the tokenizer: each token's kind, text, position and number, and
the text of each lexical error."""

import hashlib

import pytest

import redapt
from redapt.speclang import ParseError
from redapt.speclang.lexer import tokenize


def lexed(text):
    return [(t.kind, t.value, t.line, t.col, t.number) for t in tokenize(text)]


@pytest.mark.parametrize("text, tokens", [
    # a dot or exponent with no digits after it is not part of the number
    ("1.", [("NUMBER", "1", 1, 1, 1.0), ("PUNCT", ".", 1, 2, 0.0), ("EOF", "", 1, 3, 0.0)]),
    ("1e", [("NUMBER", "1", 1, 1, 1.0), ("IDENT", "e", 1, 2, 0.0), ("EOF", "", 1, 3, 0.0)]),
    ("1.5e3%", [("NUMBER", "1.5e3%", 1, 1, 15.0), ("EOF", "", 1, 7, 0.0)]),
    ("50%", [("NUMBER", "50%", 1, 1, 0.5), ("EOF", "", 1, 4, 0.0)]),
    ("s.value", [("IDENT", "s.value", 1, 1, 0.0), ("EOF", "", 1, 8, 0.0)]),
    ("x . y", [("IDENT", "x", 1, 1, 0.0), ("PUNCT", ".", 1, 3, 0.0),
               ("IDENT", "y", 1, 5, 0.0), ("EOF", "", 1, 6, 0.0)]),
    ("a # note", [("IDENT", "a", 1, 1, 0.0), ("EOF", "", 1, 9, 0.0)]),
    ("a\r\nb", [("IDENT", "a", 1, 1, 0.0), ("IDENT", "b", 2, 1, 0.0), ("EOF", "", 2, 2, 0.0)]),
    ("\tx\t<= 2", [("IDENT", "x", 1, 2, 0.0), ("PUNCT", "<=", 1, 4, 0.0),
                   ("NUMBER", "2", 1, 7, 2.0), ("EOF", "", 1, 8, 0.0)]),
    ('# c\n  x = "a b" # d\n-3', [
        ("IDENT", "x", 2, 3, 0.0), ("PUNCT", "=", 2, 5, 0.0), ("STRING", "a b", 2, 7, 0.0),
        ("PUNCT", "-", 3, 1, 0.0), ("NUMBER", "3", 3, 2, 3.0), ("EOF", "", 3, 3, 0.0),
    ]),
])
def test_tokens(text, tokens):
    assert lexed(text) == tokens


@pytest.mark.parametrize("text, message", [
    ("1e+", "1:3: unexpected character '+'"),
    ('"ab\ncd"', "1:1: unterminated string literal"),
    ('x = "ab', "1:5: unterminated string literal"),
    ("a\x0cb", "1:2: unexpected character '\\x0c'"),
])
def test_lexical_errors(text, message):
    with pytest.raises(ParseError) as err:
        tokenize(text)
    assert str(err.value) == message


def test_bundled_spec_token_stream():
    tokens = tokenize(redapt.data_path("hrcs.agmspec").read_text())
    text = "\n".join(f"{t.kind} {t.value!r} {t.line} {t.col} {t.number!r}" for t in tokens)
    assert len(tokens) == 888
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "9ed66c0b864a606d0fa5bbb147f32da3dad7ed70ebaa178cd8c38e9475a48bbf"
    )
