import random

from hypothesis import example, given, settings

from formula_gen import formula_strategy, random_formula
from redapt.speclang import (
    Until,
    Atom,
    ParseError,
    Var,
    parse_document,
    parse_formula,
    print_document,
    print_formula,
)
from test_speclang_grammar import formula_texts


def test_document_round_trip(bundled_spec):
    text = print_document(bundled_spec)
    assert parse_document(text) == bundled_spec


def test_round_trip_is_idempotent(bundled_spec):
    once = print_document(parse_document(print_document(bundled_spec)))
    assert once == print_document(bundled_spec)


def test_deeply_nested_until_chain():
    chain = Atom(Var("a"))
    for name in "bcdefgh":
        chain = Until(Atom(Var(name)), chain)
    assert parse_formula(print_formula(chain)) == chain


def test_printer_parenthesizes_left_nested_until():
    left = Until(Until(Atom(Var("a")), Atom(Var("b"))), Atom(Var("c")))
    text = print_formula(left)
    assert text == "(a U b) U c"
    assert parse_formula(text) == left


@settings(max_examples=300, deadline=None)
@given(formula_strategy())
def test_random_ast_round_trip(formula):
    assert parse_formula(print_formula(formula)) == formula


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(formula_texts())
# the grammar's texts name forall and exists where the parser reads them as
# variables, in about one in a thousand parsed texts; these are such texts
@example("G forall < 50%")
@example('F exists || td > "ok" -> Prior(-0, G(-350))')
@example("X forall(1) U p && (G exists) U q")
def test_every_parsed_text_prints_to_text_that_reparses_alike(text):
    try:
        formula = parse_formula(text)
    except ParseError:
        return
    assert parse_formula(print_formula(formula)) == formula


def test_seeded_generator_round_trips_500():
    rng = random.Random(20405)
    for _ in range(500):
        formula = random_formula(rng, depth=4)
        assert parse_formula(print_formula(formula)) == formula
