"""Comparisons across a range of numbers.

Each case gives a name a range ``[lo, hi]`` of numbers and the verdict that
every number of the range agrees on, or INCONCLUSIVE where numbers of the
range disagree.  The evaluator reads only plain values, so each case is
checked number by number: the range's bounds and every point of a grid
inside it.  This pins what the comparisons mean at a bound, at infinity and
against a non-number.  Plain values keep the evaluator's own semantics,
pinned to the oracle.
"""

import itertools
import math
import random
from dataclasses import fields, replace
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formula_gen import formula_strategy
from oracle_eval import reference_verdict
from redapt.speclang import (
    Const,
    EvaluationError,
    Formula,
    Func,
    Instance,
    State,
    Trace,
    Var,
    Verdict,
    evaluate,
    parse_formula,
)

SAT, VIOL, INC = Verdict.SAT, Verdict.VIOL, Verdict.INCONCLUSIVE
INF = math.inf

# the names formula_gen draws; its quantifiers range over `levels` and `I_sensor`
NAMES = ("p", "q", "n", "t_close", "U_safety", "f_3", "s.value")
DOMAINS = {"levels": (0.0, 150.0)}
SENSORS = {"I_sensor": {"ir_01": Instance("ir_01", 12.0), "ir_02": Instance("ir_02", None)}}

# the points tried inside a range, besides its bounds
GRID = (-INF, -1.0, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 9.0, 10.0, 11.0,
        349.0, 350.0, 351.0, 1e9, INF)


class Span(NamedTuple):
    """The numbers from ``lo`` to ``hi``, bounds included."""

    lo: float
    hi: float

    def members(self):
        return sorted({self.lo, self.hi, *(v for v in GRID if self.lo <= v <= self.hi)})


def verdict(text, **values):
    return evaluate(parse_formula(text), Trace((State(0.0, values),)))


def verdict_over(text, **values):
    """The verdict of ``text`` that every choice of numbers from the
    ``Span`` values agrees on, or INCONCLUSIVE where choices disagree."""
    names = list(values)
    choices = [v.members() if isinstance(v, Span) else [v] for v in values.values()]
    seen = {verdict(text, **dict(zip(names, pick))) for pick in itertools.product(*choices)}
    return seen.pop() if len(seen) == 1 else INC


class TestComparisons:
    @pytest.mark.parametrize("text, expected", [
        ("n <= 350", INC),
        ("n > 9", SAT),
        ("n < 10", VIOL),
        ("n >= 10", SAT),
        ("n = 10", INC),
        ("n != 9", SAT),
        ("n = 9", VIOL),
        ("350 >= n", INC),
    ])
    def test_against_a_number(self, text, expected):
        assert verdict_over(text, n=Span(10, INF)) is expected

    def test_a_peak_past_the_bound_refutes_the_dispatch_invariant(self):
        share = Span(0.0, 1.0)
        text = "G(p >= 50% && n <= 350)"
        assert verdict_over(text, p=share, n=Span(351, INF)) is VIOL
        assert verdict_over(text, p=share, n=Span(350, INF)) is INC
        assert verdict_over(text, p=0.4, n=Span(0, INF)) is VIOL

    @pytest.mark.parametrize("text, expected", [
        ("a < b", SAT), ("a <= b", SAT), ("b < a", VIOL), ("a = b", VIOL), ("a != b", SAT),
        ("a < c", INC), ("a = c", INC), ("c <= a", INC),
    ])
    def test_against_an_interval(self, text, expected):
        assert verdict_over(text, a=Span(0, 1), b=Span(2, 3), c=Span(1, 2)) is expected

    @pytest.mark.parametrize("other", [True, "ok", "", None])
    def test_against_a_non_number_as_any_number(self, other):
        for op in ("=", "!=", "<", "<=", ">", ">="):
            text = f"x {op} y"
            assert verdict_over(text, x=Span(-1, 1), y=other) is verdict(text, x=0.5, y=other)
            assert verdict_over(text, y=Span(-1, 1), x=other) is verdict(text, y=0.5, x=other)

    def test_exact_over_a_grid(self):
        # the numbers of two ranges agree on a comparison exactly where the
        # ranges' bounds alone decide it
        bounds = (-INF, 0.0, 1.0, 2.0, INF)
        spans = [Span(lo, hi) for lo in bounds for hi in bounds if lo <= hi]
        spans += [Span(v, v) for v in GRID]

        def by_bounds(op, x, y):
            if op in ("=", "!="):
                if x.lo == x.hi == y.lo == y.hi:
                    decided = SAT
                elif x.hi < y.lo or y.hi < x.lo:
                    decided = VIOL
                else:
                    return INC
                return decided if op == "=" else {SAT: VIOL, VIOL: SAT}[decided]
            if op in (">", ">="):
                op, x, y = {">": "<", ">=": "<="}[op], y, x
            if op == "<":
                return SAT if x.hi < y.lo else VIOL if x.lo >= y.hi else INC
            return SAT if x.hi <= y.lo else VIOL if x.lo > y.hi else INC

        for op in ("=", "!=", "<", "<=", ">", ">="):
            text = f"x {op} y"
            for x in spans:
                for y in spans:
                    assert verdict_over(text, x=x, y=y) is by_bounds(op, x, y), (op, x, y)

    def test_truth_of_an_interval(self):
        assert verdict_over("x", x=Span(1, 2)) is SAT
        assert verdict_over("x", x=Span(0, 0)) is VIOL
        assert verdict_over("x", x=Span(-1, 1)) is INC
        assert verdict_over("!x", x=Span(0, INF)) is INC


# -- plain values over generated formulas -----------------------------------

_POINTS = (-INF, -1.0, 0.0, 0.5, 1.0, 350.0, INF)
_OTHERS = (None, True, False, "", "ok")


def _point(rng):
    return rng.choice(_POINTS) if rng.random() < 0.7 else rng.uniform(-400.0, 400.0)


def _values(rng):
    """One state's values: mostly numbers, with an occasional non-number or
    missing name."""
    values = {}
    for name in NAMES:
        roll = rng.random()
        if roll < 0.04:
            continue
        values[name] = rng.choice(_OTHERS) if roll < 0.15 else _point(rng)
    return values


def _without_functions(node):
    """``node`` with each function application read as a variable: the
    evaluator raises on every function, and would on most formulas."""
    if isinstance(node, Func):
        return Var(NAMES[len(node.name) % len(NAMES)])
    if isinstance(node, (Var, Const)):
        return node
    return replace(node, **{
        f.name: _without_functions(getattr(node, f.name))
        for f in fields(node) if isinstance(getattr(node, f.name), (Formula, Func, Var, Const))
    })


FORMULAS = formula_strategy().map(_without_functions)


def _run(formula, trace):
    try:
        return evaluate(formula, trace, domains=DOMAINS)
    except EvaluationError:
        return None


def _trace(value_maps):
    return Trace(tuple(State(float(i), v, SENSORS) for i, v in enumerate(value_maps)))


@settings(max_examples=300, deadline=None)
@given(FORMULAS, st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_plain_values_keep_the_oracles_verdict(formula, length, seed):
    rng = random.Random(seed)
    trace = _trace([_values(rng) for _ in range(length)])
    seen = _run(formula, trace)
    try:
        expected = reference_verdict(formula, trace.states, domains=DOMAINS)
    except (KeyError, TypeError):
        expected = None
    if seen is not None and expected is not None:
        assert seen is expected, formula
