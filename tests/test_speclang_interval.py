"""Interval values: a number known only to lie in ``[lo, hi]``.

A verdict on interval values is an abstraction of the verdicts of the
concrete traces they stand for: when it is definite (and nothing raises) it
is the verdict of every concrete trace whose values lie in the intervals.
Plain values keep the evaluator's own semantics, pinned to the oracle.
"""

import math
import random
from dataclasses import fields, replace

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
    Interval,
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


def verdict(text, **values):
    return evaluate(parse_formula(text), Trace((State(0.0, values),)))


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
        assert verdict(text, n=Interval(10, INF)) is expected

    def test_a_peak_past_the_bound_refutes_the_dispatch_invariant(self):
        share = Interval(0.0, 1.0)
        text = "G(p >= 50% && n <= 350)"
        assert verdict(text, p=share, n=Interval(351, INF)) is VIOL
        assert verdict(text, p=share, n=Interval(350, INF)) is INC
        assert verdict(text, p=0.4, n=Interval(0, INF)) is VIOL

    @pytest.mark.parametrize("text, expected", [
        ("a < b", SAT), ("a <= b", SAT), ("b < a", VIOL), ("a = b", VIOL), ("a != b", SAT),
        ("a < c", INC), ("a = c", INC), ("c <= a", INC),
    ])
    def test_against_an_interval(self, text, expected):
        assert verdict(text, a=Interval(0, 1), b=Interval(2, 3), c=Interval(1, 2)) is expected

    @pytest.mark.parametrize("other", [True, "ok", "", None])
    def test_against_a_non_number_as_any_number(self, other):
        for op in ("=", "!=", "<", "<=", ">", ">="):
            text = f"x {op} y"
            assert verdict(text, x=Interval(-1, 1), y=other) is verdict(text, x=0.5, y=other)
            assert verdict(text, y=Interval(-1, 1), x=other) is verdict(text, y=0.5, x=other)

    def test_exact_over_a_grid(self):
        # each verdict is the one the numbers of the intervals agree on, and
        # INCONCLUSIVE only where they disagree
        bounds = (-INF, 0.0, 1.0, 2.0, INF)
        grid = (-INF, -1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, INF)
        spans = [Interval(lo, hi) for lo in bounds for hi in bounds if lo <= hi]

        def members(value):
            if not isinstance(value, Interval):
                return [value]
            return [v for v in grid if value.lo <= v <= value.hi]

        for op in ("=", "!=", "<", "<=", ">", ">="):
            text = f"x {op} y"
            for x in spans:
                for y in spans + list(grid):
                    seen = {verdict(text, x=a, y=b) for a in members(x) for b in members(y)}
                    expected = seen.pop() if len(seen) == 1 else INC
                    assert verdict(text, x=x, y=y) is expected, (op, x, y)

    def test_truth_of_an_interval(self):
        assert verdict("x", x=Interval(1, 2)) is SAT
        assert verdict("x", x=Interval(0, 0)) is VIOL
        assert verdict("x", x=Interval(-1, 1)) is INC
        assert verdict("!x", x=Interval(0, INF)) is INC

    def test_a_point_interval_is_its_number(self):
        for op in ("=", "!=", "<", "<=", ">", ">="):
            for a, b in ((1.0, 1.0), (1.0, 2.0), (2.0, 1.0)):
                text = f"x {op} y"
                assert verdict(text, x=Interval(a, a), y=b) is verdict(text, x=a, y=b)

    def test_bounds_must_be_ordered(self):
        with pytest.raises(ValueError):
            Interval(2, 1)
        with pytest.raises(ValueError):
            Interval(math.nan, 1)


# -- soundness over generated formulas --------------------------------------

_POINTS = (-INF, -1.0, 0.0, 0.5, 1.0, 350.0, INF)
_OTHERS = (None, True, False, "", "ok")


def _point(rng):
    return rng.choice(_POINTS) if rng.random() < 0.7 else rng.uniform(-400.0, 400.0)


def _values(rng, abstract):
    """One state's values: mostly numbers, intervals among them when
    ``abstract``, with an occasional non-number or missing name."""
    values = {}
    for name in NAMES:
        roll = rng.random()
        if roll < 0.04:
            continue
        if roll < 0.15:
            values[name] = rng.choice(_OTHERS)
        elif abstract and roll < 0.7:
            values[name] = Interval(*sorted((_point(rng), _point(rng))))
        else:
            values[name] = _point(rng)
    return values


def _inside(interval):
    """Numbers of ``interval`` worth trying: its bounds and interior points."""
    lo, hi = interval.lo, interval.hi
    if lo == hi:
        return [lo]
    if math.isinf(lo) and math.isinf(hi):
        return [lo, -1.0, 0.0, 1.0, hi]
    if math.isinf(lo):
        return [lo, hi - 1.0, hi]
    if math.isinf(hi):
        return [lo, lo + 1.0, hi]
    return [lo, lo + (hi - lo) / 2, hi]


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


@settings(max_examples=400, deadline=None)
@given(FORMULAS, st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_a_definite_verdict_on_intervals_is_every_concretes(formula, length, seed):
    rng = random.Random(seed)
    abstract = [_values(rng, abstract=True) for _ in range(length)]
    verdict_on_intervals = _run(formula, _trace(abstract))
    if verdict_on_intervals in (None, INC):
        return
    picks = [lambda i: i.lo, lambda i: i.hi] + [lambda i: rng.choice(_inside(i))] * 4
    for pick in picks:
        concrete = [
            {k: pick(v) if isinstance(v, Interval) else v for k, v in values.items()}
            for values in abstract
        ]
        seen = _run(formula, _trace(concrete))
        assert seen in (None, verdict_on_intervals), (formula, abstract, concrete)


@settings(max_examples=300, deadline=None)
@given(FORMULAS, st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_plain_values_keep_the_oracles_verdict(formula, length, seed):
    rng = random.Random(seed)
    trace = _trace([_values(rng, abstract=False) for _ in range(length)])
    seen = _run(formula, trace)
    try:
        expected = reference_verdict(formula, trace.states, domains=DOMAINS)
    except (KeyError, TypeError):
        expected = None
    if seen is not None and expected is not None:
        assert seen is expected, formula
