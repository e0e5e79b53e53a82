"""The nesting limit: a formula deeper than ``MAX_DEPTH`` levels is a parse
error at the token that passes the limit, for every command that reads a
spec, and every formula within the limit parses, checks, prints, reparses
and evaluates within Python's default recursion limit."""

import inspect
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

import redapt
from redapt.speclang import (
    EvaluationError,
    Instance,
    ParseError,
    State,
    Trace,
    check_wellformed,
    evaluate,
    parse_document,
    parse_formula,
    print_formula,
)
from redapt.speclang import parser
from redapt.speclang.parser import MAX_DEPTH

A = "x > 1"
LIMIT_MESSAGE = f"formula nests deeper than {MAX_DEPTH} levels"

# each shape, and the column of the token that passes the limit
TOO_DEEP = {
    "200 parentheses": ("(" * 200 + A + ")" * 200, 151),
    "2000-term || chain": (" || ".join([A] * 2000), 1357),
    "300 nested G(": ("G(" * 300 + A + ")" * 300, 302),
    "1000 nested f(": ("f(" * 1000 + "x" + ")" * 1000 + " > 1", 301),
    "500 !": ("!" * 500 + A, 151),
    "400-term -> chain": (" -> ".join([A] * 400), 1357),
}
WITHIN = {
    "100 parentheses": "(" * 100 + A + ")" * 100,
    "100 !": "!" * 100 + A,
    "100 nested G(": "G(" * 100 + A + ")" * 100,
    "100-term || chain": " || ".join([A] * 100),
    "100-term -> chain": " -> ".join([A] * 100),
    "100-term U chain": " U ".join([A] * 100),
}
TRACE = Trace(tuple(
    State(float(i), {"x": x}, {"I": {"a": Instance("a", 2.0)}}) for i, x in enumerate((2, 0, 3))
))


def goal(formula):
    return f'goal "g" {{\n  attributes:\n    numeric x\n  invariant: {formula}\n}}\n'


def redapt_cli(*argv):
    env = dict(os.environ, PYTHONPATH=str(Path(redapt.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "redapt.cli", *argv], capture_output=True, text=True, env=env
    )


@contextmanager
def stack_of(frames):
    """Python's recursion limit set to ``frames`` above the caller's depth."""
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(before)


@pytest.mark.parametrize("shape", TOO_DEEP)
def test_a_formula_too_deep_is_a_parse_error_where_it_passes_the_limit(shape):
    formula, col = TOO_DEEP[shape]
    with pytest.raises(ParseError) as caught:
        parse_formula(formula)
    assert (caught.value.line, caught.value.col, caught.value.message) == (1, col, LIMIT_MESSAGE)


@pytest.mark.parametrize("shape", TOO_DEEP)
def test_every_command_reports_a_formula_too_deep(tmp_path, shape):
    formula, col = TOO_DEEP[shape]
    spec = tmp_path / "deep.agmspec"
    spec.write_text(goal(formula))
    trace = tmp_path / "trace.csv"
    trace.write_text("time,x\n0,2\n1,0\n")

    done = redapt_cli("check", "--spec", str(spec))
    assert (done.returncode, done.stderr) == (1, f"{spec}:4:{col + 13}: parse-error: {LIMIT_MESSAGE}\n")
    done = redapt_cli("verify", "--spec", str(spec), str(trace))
    assert (done.returncode, done.stderr) == (2, f"error: 4:{col + 13}: {LIMIT_MESSAGE}\n")

    # appended to the bundled spec, the formula stops run before its run
    bundled = redapt.data_path("hrcs.agmspec").read_text()
    spec.write_text(bundled + "\n" + goal(formula).replace('"g"', '"deep"'))
    out = tmp_path / "out"
    done = redapt_cli(
        "run", "--spec", str(spec), "--scenario", str(redapt.data_path("experiment1.json")),
        "--out", str(out),
    )
    line = bundled.count("\n") + 5
    assert (done.returncode, done.stderr) == (1, f"error: {line}:{col + 13}: {LIMIT_MESSAGE}\n")
    assert not out.exists()


@pytest.mark.parametrize("shape", WITHIN)
def test_a_formula_within_the_limit_checks_prints_reparses_and_evaluates(shape):
    doc = parse_document(goal(WITHIN[shape]))
    assert check_wellformed(doc) == []
    formula = doc.entities[0].invariant
    assert parse_formula(print_formula(formula)) == formula
    evaluate(formula, TRACE)


def test_the_limit_is_inclusive():
    parse_formula("(" * MAX_DEPTH + A + ")" * MAX_DEPTH)
    with pytest.raises(ParseError):
        parse_formula("(" * (MAX_DEPTH + 1) + A + ")" * (MAX_DEPTH + 1))


@pytest.mark.parametrize(
    "formula, levels",
    [
        ("G(" * 10 + A + ")" * 10, 10),  # G(...) is one level, as f(...) is
        ("G " * 10 + A, 10),
        ("!(" * 10 + A + ")" * 10, 10),
        ("!" * 10 + A, 10),
        ("f(" * 10 + "x" + ")" * 10 + " > 1", 10),
        ("forall s in I . " * 10 + A, 10),
        (" && ".join(["(x > 1)"] * 11), 11),  # the operands' parentheses lie side by side
        (" -> ".join(["(x > 1)"] * 11), 11),
    ],
)
def test_levels_count_as_documented(monkeypatch, formula, levels):
    """A formula of ``levels`` levels parses when the limit is that many and not one fewer."""
    monkeypatch.setattr(parser, "MAX_DEPTH", levels)
    parse_formula(formula)
    monkeypatch.setattr(parser, "MAX_DEPTH", levels - 1)
    with pytest.raises(ParseError):
        parse_formula(formula)


def test_a_chain_counts_above_its_first_operand():
    # each !( ... && x && x && x && x) adds five levels over the chain's first operand
    formula = A
    for _ in range(40):
        formula = f"!({formula} && x && x && x && x)"
    with pytest.raises(ParseError):
        parse_formula(formula)


@pytest.mark.parametrize(
    "formula",
    [
        "(" * MAX_DEPTH + A + ")" * MAX_DEPTH,
        "G(" * MAX_DEPTH + A + ")" * MAX_DEPTH,
        "!" * MAX_DEPTH + A,
        " || ".join([A] * (MAX_DEPTH + 1)),
        " U ".join([A] * (MAX_DEPTH + 1)),
        "forall s in I . " * MAX_DEPTH + "s.value > 1",
        "f(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH + " > 1",
    ],
)
def test_walkers_of_the_deepest_formulas_stay_well_within_the_recursion_limit(formula):
    text = f'goal "g" {{\n  attributes:\n    numeric x\n    class I\n  invariant: {formula}\n}}\n'
    with stack_of(500):
        doc = parse_document(text)
        check_wellformed(doc)
        parse_formula(print_formula(doc.entities[0].invariant))
        try:
            evaluate(doc.entities[0].invariant, TRACE)
        except EvaluationError:
            pass  # function terms are uninterpreted
