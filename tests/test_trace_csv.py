"""``trace_from_csv``: the column-typed reader behind ``redapt verify``.

The reader types each column once; ``reference`` below types every cell on
its own, as a plain loop.  On any file whose times are finite and strictly
increasing the two must give the same trace, and a projected read must give
the full trace restricted to the columns asked for.  The trace it gives is
held by column; every formula must evaluate on it as on its states.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formula_gen import formula_strategy
from redapt.cli import trace_from_csv
from redapt.speclang import Formula, Func, State, Term, Trace, Var, evaluate


def reference(text):
    """Cell by cell: empty is None, a number is a float, anything else text."""
    lines = [line for line in text.splitlines() if line.strip()]
    header = lines[0].split(",")
    states = []
    for line in lines[1:]:
        values = {}
        for name, cell in zip(header, line.split(","), strict=True):
            if cell == "":
                values[name] = None
            else:
                try:
                    values[name] = float(cell)
                except ValueError:
                    values[name] = cell
        states.append(State(values.pop("time"), values))
    return Trace(tuple(states))


def cells_of(trace):
    """Every state as comparable cells, in column order: NaN equals NaN and
    a float never equals text."""
    return [
        (state.time, [(name, type(value), repr(value)) for name, value in state.values.items()])
        for state in trace.states
    ]


def restricted(trace, columns):
    return Trace(tuple(
        State(s.time, {k: v for k, v in s.values.items() if k in columns}) for s in trace.states
    ))


NAMES = ["n", "p", "gate", "f_1", "e_1", "U_pass", "s.value"]
CELLS = ["", "0", "1.5", "-2", "1e3", "007", "nan", "inf", "-inf", "open", "closed", " ", "x1"]
BAD_TIMES = ["", "nan", "inf", "-inf", "open", "1e999"]


@st.composite
def csv_texts(draw):
    """A small trace.csv: a header with ``time`` somewhere, rows of cells
    from a pool, mostly increasing times, CRLF or LF, stray blank lines."""
    names = draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=5))
    header = names[:]
    header.insert(draw(st.integers(0, len(names))), "time")
    steps = draw(st.lists(st.integers(-1, 3), min_size=1, max_size=6))
    times = [str(sum(steps[: i + 1])) for i in range(len(steps))]
    if draw(st.booleans()):
        times[draw(st.integers(0, len(times) - 1))] = draw(st.sampled_from(BAD_TIMES))
    lines = [",".join(header)]
    for time in times:
        row = [time if name == "time" else draw(st.sampled_from(CELLS)) for name in header]
        lines.append(",".join(row))
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", "  "])))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def well_timed(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) < 2:  # a row holding only an empty time is a blank line
        return False
    column = lines[0].split(",").index("time")
    try:
        times = [float(line.split(",")[column]) for line in lines[1:]]
    except ValueError:
        return False
    return all(map(math.isfinite, times)) and all(a < b for a, b in zip(times, times[1:]))


@settings(max_examples=200, deadline=None)
@given(csv_texts(), st.data())
def test_typed_columns_read_as_cell_by_cell(text, data):
    if not well_timed(text):
        with pytest.raises(ValueError):
            trace_from_csv(text)
        return
    full = trace_from_csv(text)
    assert cells_of(full) == cells_of(reference(text))
    header = text.splitlines()[0].split(",")
    columns = data.draw(st.sets(st.sampled_from(header + ["absent"])))
    assert cells_of(trace_from_csv(text, columns)) == cells_of(restricted(full, columns))


# formula_gen's names that no header here has, onto header names
RENAMED = {"q": "gate", "t_close": "f_1", "U_safety": "U_pass", "f_3": "e_1"}


def on_header_names(node):
    """``node`` over header names, a function application read as ``p``."""
    if isinstance(node, Var):
        return Var(RENAMED.get(node.name, node.name))
    if isinstance(node, Func):
        return Var("p")
    children = {
        f.name: on_header_names(getattr(node, f.name)) for f in dataclasses.fields(node)
        if isinstance(getattr(node, f.name), (Formula, Term))
    }
    return dataclasses.replace(node, **children)


DOMAINS = {"levels": (0.0, 1.5, "open"), "I_sensor": ("n", "gate")}


def outcomes(formula, trace):
    """The verdict at every position, or the error's type and message."""
    found = []
    for position in range(len(trace)):
        try:
            found.append(evaluate(formula, trace, position, domains=DOMAINS))
        except Exception as exc:  # the error is part of the outcome
            found.append((type(exc), str(exc)))
    return found


@settings(max_examples=400, deadline=None)
@given(csv_texts(), formula_strategy().map(on_header_names))
def test_a_columnar_trace_evaluates_as_its_states(text, formula):
    # `trace_from_csv` builds no state; the states it gives on demand, held
    # as states, must evaluate alike, errors included: a header may lack a
    # name the formula reads
    if not well_timed(text):
        return
    by_state = Trace(trace_from_csv(text).states)
    assert outcomes(formula, trace_from_csv(text)) == outcomes(formula, by_state)


class TestColumns:
    TEXT = "time,n,gate,f_1\n0,3,open,12.5\n1,4,closed,\n2,5,open,13\n"

    def test_a_column_of_numbers_is_floats(self):
        trace = trace_from_csv(self.TEXT)
        assert [s.values["n"] for s in trace.states] == [3.0, 4.0, 5.0]
        assert all(type(s.values["n"]) is float for s in trace.states)

    def test_a_mixed_column_is_typed_cell_by_cell(self):
        trace = trace_from_csv(self.TEXT)
        assert [s.values["gate"] for s in trace.states] == ["open", "closed", "open"]
        assert [s.values["f_1"] for s in trace.states] == [12.5, None, 13.0]

    def test_projection_keeps_only_the_named_columns_in_header_order(self):
        trace = trace_from_csv(self.TEXT, {"f_1", "n", "absent"})
        assert [s.time for s in trace.states] == [0.0, 1.0, 2.0]
        assert [list(s.values) for s in trace.states] == [["n", "f_1"]] * 3

    def test_no_columns_keeps_only_time(self):
        trace = trace_from_csv(self.TEXT, ())
        assert [(s.time, dict(s.values)) for s in trace.states] == [(0.0, {}), (1.0, {}), (2.0, {})]


class TestRejected:
    @pytest.mark.parametrize("cell, message", [
        ("", "time is missing"),
        ("soon", "time 'soon' is not a finite number"),
        ("nan", "time nan is not a finite number"),
        ("inf", "time inf is not a finite number"),
        ("-inf", "time -inf is not a finite number"),
    ])
    def test_a_bad_time_cell(self, cell, message):
        with pytest.raises(ValueError, match=f"trace row 2: {message}"):
            trace_from_csv(f"time,n\n0,1\n{cell},2\n3,3\n")

    def test_times_that_do_not_increase(self):
        with pytest.raises(ValueError, match="strictly increase"):
            trace_from_csv("time,n\n0,1\n0,2\n")

    def test_a_column_named_twice(self):
        with pytest.raises(ValueError, match="names column 'n' twice"):
            trace_from_csv("time,n,p,n\n0,1,2,3\n")

    def test_a_short_row_in_a_column_not_kept(self):
        with pytest.raises(ValueError, match="width"):
            trace_from_csv("time,n,p\n0,1,2\n1,1\n", {"n"})

    def test_no_data_rows(self):
        with pytest.raises(ValueError, match="no data rows"):
            trace_from_csv("time,n\n\n")

    def test_no_time_column(self):
        with pytest.raises(ValueError, match="no time column"):
            trace_from_csv("t,n\n0,1\n", {"n"})
