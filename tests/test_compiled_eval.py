"""Compiled formulas and columnar traces.

A formula is compiled once into closures and its program kept while the
formula lives; a trace is held by column.  Neither may change a verdict or
an error: ``oracle_eval`` walks the states itself.
"""

import gc
import importlib
import math
import weakref

import pytest

from oracle_eval import reference_verdict
from redapt.speclang import State, Trace, UnboundVariableError, Verdict, evaluate, parse_formula
from redapt.speclang.evaluate import _Evaluator, _programs

# the package's `evaluate` attribute is the function, not its module
evaluate_module = importlib.import_module("redapt.speclang.evaluate")

SAT, VIOL, INC = Verdict.SAT, Verdict.VIOL, Verdict.INCONCLUSIVE


def trace_of(*value_maps):
    return Trace(tuple(State(float(i), v) for i, v in enumerate(value_maps)))


TRACES = [
    trace_of({"p": True, "n": 1.0}, {"p": False, "n": 5.0}, {"p": True, "n": 2.0}),
    trace_of({"p": True, "n": 1.0}, {"p": True, "n": 2.0}),
    trace_of({"p": False, "n": 9.0}),
]


class TestCompileCache:
    def test_a_formula_is_compiled_once_across_traces(self, monkeypatch):
        formula = parse_formula("G(p -> F(n <= 2))")
        compiled = []
        compile_ = evaluate_module._compile

        def counted(node):
            compiled.append(node)
            return compile_(node)

        monkeypatch.setattr(evaluate_module, "_compile", counted)
        for trace in TRACES * 2:
            evaluate(formula, trace)
        assert sum(node is formula for node in compiled) == 1

    def test_a_dropped_formula_leaves_no_program(self):
        formula = parse_formula("F(n > 3)")
        key, ref = id(formula), weakref.ref(formula)
        evaluate(formula, TRACES[0])
        assert key in _programs
        del formula
        gc.collect()
        assert ref() is None
        assert key not in _programs

    def test_equal_formulas_are_compiled_apart_and_keep_the_oracles_verdict(self):
        text = "(p U (n >= 5)) || G(n < 9)"
        first, second = parse_formula(text), parse_formula(text)
        assert first == second and first is not second
        for trace in TRACES:
            for formula in (first, second):
                assert evaluate(formula, trace) is reference_verdict(formula, trace.states)
        assert _programs[id(first)][1] is not _programs[id(second)][1]

    def test_a_reused_program_keeps_no_memo_between_calls(self):
        formula = parse_formula("G(p)")
        # the first trace leaves G(p) inconclusive at every position it scans;
        # a memo carried over would give the second trace the same verdict
        assert evaluate(formula, TRACES[1]) is INC
        assert evaluate(formula, TRACES[0]) is VIOL
        assert evaluate(formula, TRACES[1], 1) is INC
        first, second = _Evaluator(TRACES[0], {}), _Evaluator(TRACES[0], {})
        assert first.run(formula, 0, {}) is VIOL and first.memo
        assert second.memo == {}
        assert second.run(formula, 2, {}) is INC


class TestColumns:
    def test_a_state_trace_builds_only_the_columns_it_reads(self):
        trace = trace_of({"p": True, "n": 1.0, "gate": "open"}, {"p": True, "n": 3.0})
        assert dict(trace.columns) == {}
        assert evaluate(parse_formula("G(n <= 2)"), trace) is VIOL
        assert list(trace.columns) == ["n"]
        assert trace.columns["n"] == [1.0, 3.0]

    def test_a_name_some_states_lack_falls_back_to_a_binding(self):
        trace = trace_of({"x": 1.0}, {})
        assert evaluate(parse_formula("X(x = 4)"), trace, env={"x": 4.0}) is SAT
        with pytest.raises(UnboundVariableError, match="variable 'x' is not bound"):
            evaluate(parse_formula("X(x = 4)"), trace)

    def test_from_columns_builds_its_states_on_demand(self):
        trace = Trace.from_columns([0.0, 1.5], {"n": [3.0, None], "gate": ["open", "closed"]})
        assert len(trace) == 2 and trace.times == [0.0, 1.5]
        assert evaluate(parse_formula('F(gate = "closed" && n = "")'), trace) is SAT
        assert [(s.time, dict(s.values), dict(s.instances)) for s in trace.states] == [
            (0.0, {"n": 3.0, "gate": "open"}, {}),
            (1.5, {"n": None, "gate": "closed"}, {}),
        ]
        assert trace.states is trace.states

    def test_a_name_a_columnar_trace_lacks_is_read_as_unbound(self):
        trace = Trace.from_columns([0.0], {"n": [3.0]})
        with pytest.raises(UnboundVariableError, match="variable 'q' is not bound"):
            evaluate(parse_formula("q"), trace)
        assert [dict(s.values) for s in trace.states] == [{"n": 3.0}]

    def test_a_column_of_another_length_is_refused(self):
        with pytest.raises(ValueError, match="one value per time"):
            Trace.from_columns([0.0, 1.0], {"n": [3.0]})


class TestTimes:
    @pytest.mark.parametrize("times", [
        (0.0, math.nan, 1.0),
        (math.nan, 1.0),
        (0.0, math.nan),
        (0.0, 0.0),
        (1.0, 0.0),
    ])
    def test_times_must_strictly_increase_and_nan_never_does(self, times):
        states = tuple(State(t, {"x": 1.0}) for t in times)
        with pytest.raises(ValueError, match="strictly increase"):
            Trace(states)
        with pytest.raises(ValueError, match="strictly increase"):
            Trace.from_columns(list(times), {"x": [1.0] * len(times)})

    def test_increasing_times_are_accepted(self):
        trace = Trace((State(0.0, {"x": 1.0}), State(0.5, {"x": 3.0})))
        assert evaluate(parse_formula("G(x <= 2)"), trace) is VIOL
