"""The formula grammar, pinned against a frozen reference parser.

A differential property test parses grammar-generated formula texts, some
of them with token-level noise, with both ``parse_formula`` and the
reference parser in ``tests/reference_parser.py``, and requires the same
AST or the same ``ParseError`` (message, line, column and expected
tokens).  An exhaustive table pins the printed text of every pair of
connectives, nested both ways, and its reparse.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redapt.speclang import (
    And,
    Atom,
    Eventually,
    Forall,
    Globally,
    Implies,
    Next,
    Not,
    Or,
    ParseError,
    Until,
    Var,
    parse_formula,
    print_formula,
)

from reference_parser import reference_parse_formula

# G F X U double as variable names; forall and exists are keywords at a formula's start
VARIABLES = ("p", "n", "s.value", "td", "G", "F", "X", "U")
NAMES = VARIABLES + ("forall", "exists", "true")
NUMBERS = ("0", "15", "350", "50%", "0.5", "1e3")
STRINGS = ('""', '"ok"', '"U"', '"->"')
CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")
PREFIXES = ("!", "G", "F", "X")
BINARIES = ("->", "||", "&&", "U")
# every token the noise may insert or substitute
VOCABULARY = (
    NAMES + NUMBERS + STRINGS + CMP_OPS + PREFIXES + BINARIES
    + ("(", ")", ",", ".", "-", "in", "I_sensor", "{", ":")
)


def term(draw, depth):
    kind = draw(st.sampled_from(["name", "number", "negative", "string", "function"]))
    if kind == "function" and depth > 0:
        args = [term(draw, depth - 1) for _ in range(draw(st.integers(1, 3)))]
        joined = [tok for i, arg in enumerate(args) for tok in ([","] if i else []) + arg]
        return [draw(st.sampled_from(["p", "n", "G", "Prior"])), "(", *joined, ")"]
    if kind == "number":
        return [draw(st.sampled_from(NUMBERS))]
    if kind == "negative":
        return ["-", draw(st.sampled_from(NUMBERS))]
    if kind == "string":
        return [draw(st.sampled_from(STRINGS))]
    return [draw(st.sampled_from(VARIABLES))]


def formula(draw, depth, level=0):
    """Tokens of a formula at precedence ``level`` (0 quantifier ... 7
    comparison), following the grammar in docs/specification-language.md;
    now and then a quantifier or a ``!`` turns up where it does not belong."""
    if depth <= 0:
        level = 7
    if level <= 5 and draw(st.integers(0, 29)) == 0:
        # off-grammar: a quantifier after a connective, or '!' after G/F/X
        if draw(st.booleans()):
            return quantifier(draw) + formula(draw, depth - 1)
        return ["!"] + formula(draw, depth - 1, 4)
    if level == 0:
        if draw(st.integers(0, 3)) == 0:
            return quantifier(draw) + formula(draw, depth - 1, 0)
        return formula(draw, depth, 1)
    if level in (1, 6):  # right-associative: '->' and 'U'
        op = "->" if level == 1 else "U"
        lhs = formula(draw, depth, level + 1)
        if draw(st.booleans()):
            return lhs + [op] + formula(draw, depth - 1, level)
        return lhs
    if level in (2, 3):  # left-associative: '||' and '&&'
        op = "||" if level == 2 else "&&"
        out = formula(draw, depth, level + 1)
        for _ in range(draw(st.integers(0, 2))):
            out += [op] + formula(draw, depth - 1, level + 1)
        return out
    if level in (4, 5):  # prefix: '!', then G F X
        if draw(st.integers(0, 2)) == 0:
            op = "!" if level == 4 else draw(st.sampled_from(["G", "F", "X"]))
            return [op] + formula(draw, depth - 1, level)
        return formula(draw, depth, level + 1)
    if depth > 0 and draw(st.integers(0, 3)) == 0:
        out = ["("] + formula(draw, depth - 1) + [")"]
        if draw(st.integers(0, 3)) == 0:  # valid only around a term
            out += [draw(st.sampled_from(CMP_OPS))] + term(draw, 1)
        return out
    out = term(draw, 2)
    if draw(st.booleans()):
        out += [draw(st.sampled_from(CMP_OPS))] + term(draw, 1)
    return out


def quantifier(draw):
    keyword = draw(st.sampled_from(["forall", "exists"]))
    return [keyword, draw(st.sampled_from(["x", "s"])), "in", "I_sensor", "."]


def noised(draw, tokens):
    """``tokens`` with up to three tokens deleted, inserted or replaced."""
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        at = draw(st.integers(0, len(tokens)))
        edit = draw(st.sampled_from(["delete", "insert", "replace"]))
        if edit == "insert":
            tokens = tokens[:at] + [draw(st.sampled_from(VOCABULARY))] + tokens[at:]
        elif at < len(tokens):
            cut = tokens[:at] + tokens[at + 1:]
            tokens = cut if edit == "delete" else cut[:at] + [draw(st.sampled_from(VOCABULARY))] + cut[at:]
    return tokens


@st.composite
def formula_texts(draw):
    """A formula's tokens, a space apart, with every ``wrap``-th space a newline."""
    tokens = noised(draw, formula(draw, draw(st.integers(1, 3))))
    wrap = draw(st.sampled_from([0, 1, 3, 7]))
    return "".join(
        ("\n" if wrap and i % wrap == 0 else " ") + tok for i, tok in enumerate(tokens)
    )


def outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line, exc.col, exc.expected)


def test_parser_agrees_with_the_reference():
    texts = []

    @settings(max_examples=2000, deadline=None, derandomize=True, database=None)
    @given(formula_texts())
    def agree(text):
        texts.append(" ".join(text.split()))
        assert outcome(parse_formula, text) == outcome(reference_parse_formula, text)

    agree()
    # the generator reaches both outcomes and each corner of the grammar the table must keep
    parsed = [t for t in texts if not isinstance(outcome(parse_formula, t), tuple)]
    assert 0.3 < len(parsed) / len(texts) < 0.8
    corners = {
        "G or U as a variable": r"^(G|U) U ", "F compared": r"(^|[&|] )F [<>=!]",
        "'!' after G": r"\bG !", "a quantifier after a connective": r"(->|&&|\|\|) (forall|exists)",
        "a negative number": r"- \d", "a function term": r"\w \( \w",
    }
    for corner, pattern in corners.items():
        assert any(re.search(pattern, t) for t in texts), corner


@pytest.mark.parametrize(
    "text",
    [
        "F >= 15",
        "G U b",
        "G !a",
        "a && forall x in I_sensor . p",
        "a -> exists x in I_sensor . p",
        "!forall x in I_sensor . p",
        "forall x in I_sensor . G(p) U q",
        "-3 < F(G, -0.5)",
        "X - 4 > 1",
        'G "U" U U',
        "a U G(b)",
        "!a U b && c -> d || e",
        "(a) > 1",
        "(a && b) > 1",
    ],
)
def test_parser_agrees_with_the_reference_on_corner_cases(text):
    assert outcome(parse_formula, text) == outcome(reference_parse_formula, text)


A, B, C = (Atom(Var(name)) for name in "abc")
BINARY = (Implies, Or, And, Until)
PREFIX = (Not, Globally, Eventually, Next, lambda operand: Forall("x", "D", operand))


def pairs():
    """Every pair of connectives: binary under binary on either side, prefix
    over binary, binary over prefix on either side, and prefix over prefix."""
    for outer in BINARY:
        for inner in BINARY:
            yield outer(inner(A, B), C)
            yield outer(A, inner(B, C))
    for prefix in PREFIX:
        for binary in BINARY:
            yield prefix(binary(A, B))
            yield binary(prefix(A), B)
            yield binary(A, prefix(B))
        for inner in PREFIX:
            yield prefix(inner(A))


PRINTED = """\
(a -> b) -> c
a -> b -> c
a || b -> c
a -> b || c
a && b -> c
a -> b && c
a U b -> c
a -> b U c
(a -> b) || c
a || (b -> c)
a || b || c
a || (b || c)
a && b || c
a || b && c
a U b || c
a || b U c
(a -> b) && c
a && (b -> c)
(a || b) && c
a && (b || c)
a && b && c
a && (b && c)
a U b && c
a && b U c
(a -> b) U c
a U (b -> c)
(a || b) U c
a U (b || c)
(a && b) U c
a U (b && c)
(a U b) U c
a U b U c
!(a -> b)
!a -> b
a -> !b
!(a || b)
!a || b
a || !b
!(a && b)
!a && b
a && !b
!a U b
(!a) U b
a U (!b)
!(!a)
!G(a)
!F(a)
!X(a)
!(forall x in D . a)
G(a -> b)
G(a) -> b
a -> G(b)
G(a || b)
G(a) || b
a || G(b)
G(a && b)
G(a) && b
a && G(b)
G(a U b)
(G(a)) U b
a U (G(b))
G(!a)
G(G(a))
G(F(a))
G(X(a))
G(forall x in D . a)
F(a -> b)
F(a) -> b
a -> F(b)
F(a || b)
F(a) || b
a || F(b)
F(a && b)
F(a) && b
a && F(b)
F(a U b)
(F(a)) U b
a U (F(b))
F(!a)
F(G(a))
F(F(a))
F(X(a))
F(forall x in D . a)
X(a -> b)
X(a) -> b
a -> X(b)
X(a || b)
X(a) || b
a || X(b)
X(a && b)
X(a) && b
a && X(b)
X(a U b)
(X(a)) U b
a U (X(b))
X(!a)
X(G(a))
X(F(a))
X(X(a))
X(forall x in D . a)
forall x in D . a -> b
(forall x in D . a) -> b
a -> (forall x in D . b)
forall x in D . a || b
(forall x in D . a) || b
a || (forall x in D . b)
forall x in D . a && b
(forall x in D . a) && b
a && (forall x in D . b)
forall x in D . a U b
(forall x in D . a) U b
a U (forall x in D . b)
forall x in D . !a
forall x in D . G(a)
forall x in D . F(a)
forall x in D . X(a)
forall x in D . forall x in D . a
""".splitlines()


def test_every_pair_is_pinned():
    assert len(PRINTED) == len(list(pairs()))


@pytest.mark.parametrize("formula, text", list(zip(pairs(), PRINTED)), ids=PRINTED)
def test_pair_prints_and_reparses(formula, text):
    assert print_formula(formula) == text
    assert parse_formula(text) == formula
