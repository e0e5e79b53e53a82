"""The sample record, its row view and the column writer of ``trace.csv``.

``reference_csv`` below is the row-by-row writer the column writer
replaced: every row a tuple, every cell formatted on its own, a value shared
by adjacent cells formatted once.  Over random scenarios, with faults, dark
steps, sensor classes without slots, a sample interval that does not divide
the duration, and retimings and swaps at sample instants, the column writer
must write the same text, and each snapshot must be its sample's row.
"""

import itertools
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redapt.hrcs import RowView, ScenarioConfig, SensorFault, Simulator, simulate, trace_to_csv
from redapt.hrcs.simulator import _cell_formatter
from redapt.hrcs.utilities import DomainError, eval_utilities


def fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def reference_cells(row):
    cells = []
    last = cells  # matches no value
    cell = ""
    for value in row:
        if value is not last:
            last, cell = value, fmt(value)
        cells.append(cell)
    return cells


def reference_csv(trace):
    lines = [",".join(trace.columns)]
    lines.extend(",".join(reference_cells(row)) for row in trace.rows)
    return "".join(line + "\n" for line in lines)


@st.composite
def scenarios(draw):
    flows = draw(st.integers(0, 3))
    luxes = draw(st.integers(0, 2))
    duration_min = draw(st.sampled_from([2.0, 7.5, 15.0]))
    duration_s = duration_min * 60.0
    slots = [f"f_{i}" for i in range(1, flows + 1)] + [f"e_{i}" for i in range(1, luxes + 1)]
    faults = draw(st.lists(
        st.builds(
            SensorFault, st.sampled_from(slots), st.sampled_from(["fail", "noise"]),
            st.floats(0.0, duration_s), st.sampled_from([0.0, 0.5, 40.0]),
        ),
        max_size=4,
    )) if slots else []
    steps = draw(st.lists(
        st.tuples(st.floats(0.0, duration_s), st.sampled_from([5.0, 10.0, 20.0, 20.5, 80.0])),
        max_size=3,
    ))
    return ScenarioConfig(
        lambda_north=draw(st.sampled_from([0.0, 6.0, 20.0])),
        lambda_south=draw(st.sampled_from([4.0, 15.0])),
        duration_min=duration_min,
        seed=draw(st.integers(0, 1000)),
        illuminance_profile=((0.0, draw(st.sampled_from([10.0, 100.0]))), *sorted(steps)),
        sensor_faults=tuple(faults),
        flow_sensor_count=flows,
        lux_sensor_count=luxes,
        sample_interval_s=draw(st.sampled_from([1.0, 7.0, 13.7, 60.0])),
        flow_window_s=draw(st.sampled_from([60.0, 600.0])),
        # crossing takes 200 s, so at 205 s a vehicle held at the gate is slow
        p_time_threshold_s=draw(st.sampled_from([205.0, 400.0])),
    )


ACTIONS = st.one_of(
    st.tuples(st.just("t_dispatch"), st.sampled_from([3.0, 4.0, 6.0])),
    st.tuples(st.just("t_close"), st.sampled_from([0.5, 1.5, 2.0, 4.0])),  # 0.5 is rejected
    st.tuples(st.just("t_open"), st.sampled_from([4.0, 5.5, 6.5, 8.0])),  # 8.0 is rejected
    st.tuples(st.just("bind"), st.integers(0, 4)),
)


@settings(max_examples=60, deadline=None)
@given(scenarios(), st.data())
def test_the_column_writer_writes_the_rows_and_each_snapshot_is_its_row(cfg, data):
    sim = Simulator(cfg)
    slots = [slot for cls in ("I_sensor", "I_lux") for slot, _ in sim.instances(cls)]
    at_sample = []  # (snapshot, settings the simulator held) at each sample
    middle = None
    spares = itertools.count(90)
    t = 0.0
    while t <= cfg.duration_s:
        sim.run_until(t)
        assert sim.sampled_at == t
        held = (sim.illuminance, sim.t_dispatch_min, sim.t_close_s, sim.t_open_s)
        at_sample.append((sim.snapshot(), held))
        if middle is None and data.draw(st.integers(0, 9)) == 0:
            middle = sim.trace()
        for name, value in data.draw(st.lists(ACTIONS, max_size=2)):
            if name == "bind":
                if slots:
                    sim.bind_instance(slots[value % len(slots)], f"spare_{next(spares)}")
                continue
            try:
                sim.set_parameter(name, value)
            except DomainError:
                pass
        t += cfg.sample_interval_s
    sim.run_to_end()
    trace = sim.trace()
    assert len(trace.rows) == len(at_sample)
    for row, (snapshot, held) in zip(trace.rows, at_sample):
        assert list(snapshot) == list(trace.columns[1:])
        assert snapshot == dict(zip(trace.columns[1:], row[1:]))
        # the settings recorded are those held at the sample, not a stale set
        assert (row.E, row.t_dispatch, row.t_close, row.t_open) == held
        u = eval_utilities(row.t_close, row.t_open, row.E)
        assert (row.U_E, row.U_safety, row.U_pass) == (u.u_e, u.u_safety, u.u_pass)
    assert trace_to_csv(trace) == reference_csv(trace)
    if middle is not None:
        assert len(middle.rows) <= len(trace.rows)
        assert trace_to_csv(middle) == reference_csv(middle)


class TestCellFormatter:
    # equal values that write apart: 0.0 and -0.0, 1 and 1.0 and True
    COLUMN = (0.0, -0.0, 1, 1.0, True, math.nan, None, "open")

    def test_no_value_takes_another_values_cell_in_any_order(self):
        for column in itertools.permutations(self.COLUMN):
            cell = _cell_formatter()
            assert [cell(v) for v in column + column] == [fmt(v) for v in column + column]

    def test_the_cells(self):
        cell = _cell_formatter()
        assert [cell(v) for v in self.COLUMN] == ["0", "-0", "1", "1", "True", "nan", "", "open"]


class TestRowView:
    CFG = ScenarioConfig(lambda_north=12.0, lambda_south=9.0, duration_min=3.0,
                         sample_interval_s=30.0, flow_sensor_count=2, lux_sensor_count=1,
                         sensor_faults=(SensorFault("f_2", "fail", 45.0),))

    def test_rows_read_by_position_and_by_name(self):
        rows = simulate(self.CFG).rows
        assert len(rows) == 7
        assert [row.time for row in rows] == [30.0 * i for i in range(7)]
        assert rows[-1] == rows[6] and rows[0].f_2 == rows[0].F and rows[-1].f_2 is None
        assert rows[2]._asdict()["gate"] in ("open", "closed")
        assert list(rows[3]) == list(rows[3]._asdict().values())
        with pytest.raises(IndexError):
            rows[7]
        with pytest.raises(IndexError):
            rows[-8]

    def test_views_of_one_record_compare_by_their_rows(self):
        first, second = simulate(self.CFG).rows, simulate(self.CFG).rows
        assert first == second and first == tuple(second) and tuple(first) == second
        assert first != simulate(replace(self.CFG, seed=2)).rows
        assert RowView.empty() == () and len(RowView.empty()) == 0
        assert RowView.empty() != first

    def test_a_view_keeps_the_samples_taken_when_it_was_made(self):
        sim = Simulator(self.CFG)
        sim.run_until(60.0)
        early = sim.trace().rows
        sim.run_to_end()
        assert len(early) == 3 and tuple(early) == tuple(sim.trace().rows)[:3]

    def test_a_model_run_records_no_rows(self):
        assert simulate(self.CFG, record_rows=False).rows == ()
