"""What the engine observes is what ``trace.csv`` records.

The simulator describes an instant by one row, and the engine's snapshot is
the row recorded at its instant, so even a noisy sensor reads the same in
``cycles.jsonl`` and ``trace.csv``.
"""

import pytest

import redapt
from redapt import cli
from redapt.engine import AdaptationEngine
from redapt.hrcs import ScenarioConfig, run_scenario, trace_to_csv

from test_golden_artifacts import load_workloads

SCENARIOS = ["experiment1", "experiment2", "nfr_lowlight", "sensor_failure", "sensor_noise"]
SOAK_SEEDS = [1, 3, 1701]


@pytest.fixture(scope="module", params=SCENARIOS)
def recorded(request, bundled_spec):
    """A bundled run, with the snapshot the engine's target gave before each cycle."""
    snapshots = []
    original = AdaptationEngine.cycle

    def recording(engine, target, *args, **kwargs):
        snapshots.append((target.now(), target.snapshot()))
        return original(engine, target, *args, **kwargs)

    AdaptationEngine.cycle = recording
    try:
        scenario = ScenarioConfig.from_json(redapt.data_path(f"{request.param}.json").read_text())
        result = run_scenario(bundled_spec, scenario)
    finally:
        AdaptationEngine.cycle = original
    return scenario, result, snapshots


def test_every_reading_is_its_trace_cell(recorded):
    scenario, result, _ = recorded
    lines = trace_to_csv(result.trace).splitlines()
    header = lines[0].split(",")
    cells = {}
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        cells[row["time"]] = row
    checked = 0
    for report in result.reports:
        row = cells[f"{report.sim_time:.9g}"]
        for members in report.instances.values():
            for slot, reading in members.items():
                written = "" if reading.value is None else f"{reading.value:.9g}"
                assert row[slot] == written, (report.sim_time, slot)
                checked += 1
    assert checked == len(result.reports) * (scenario.flow_sensor_count + scenario.lux_sensor_count)


def test_snapshot_is_the_row_without_time(recorded):
    _, result, snapshots = recorded
    rows = {row.time: row for row in result.trace.rows}
    assert len(snapshots) == len(result.reports)
    for time, snapshot in snapshots:
        row = rows[time]
        assert list(snapshot) == list(result.trace.columns[1:])
        assert snapshot == {column: getattr(row, column) for column in snapshot}


@pytest.mark.parametrize("run", SCENARIOS + [f"soak-{seed}" for seed in SOAK_SEEDS])
def test_every_monitored_state_is_its_row(run, bundled_spec, monkeypatch):
    """Each cycle's monitored state, as the engine keeps it, holds the cells
    of the row recorded at its instant, all but ``time``."""
    if run.startswith("soak-"):
        scenario = ScenarioConfig.from_dict(load_workloads().soak_scenario(int(run[5:]), 48))
    else:
        scenario = ScenarioConfig.from_json(redapt.data_path(f"{run}.json").read_text())
    states = []
    original = AdaptationEngine.cycle

    def keeping(engine, *args, **kwargs):
        report = original(engine, *args, **kwargs)
        states.append(engine.trace.states[-1])
        return report

    monkeypatch.setattr(AdaptationEngine, "cycle", keeping)
    result = run_scenario(bundled_spec, scenario)
    assert [state.time for state in states] == [report.sim_time for report in result.reports]
    rows = {row.time: row._asdict() for row in result.trace.rows}
    for state in states:
        cells = {column: value for column, value in rows[state.time].items() if column != "time"}
        assert state.values == cells, state.time


def test_verify_answers_alike_from_the_named_columns_and_from_all(
    recorded, tmp_path, spec_path, monkeypatch, capsys
):
    _, result, _ = recorded
    trace = tmp_path / "trace.csv"
    trace.write_text(trace_to_csv(result.trace))
    argv = ["verify", "--spec", spec_path, str(trace)]
    read = cli.trace_from_csv
    asked = []

    def reading(text, columns=None):
        asked.append(columns)
        return read(text, columns)

    monkeypatch.setattr(cli, "trace_from_csv", reading)
    projected = cli.main(argv), capsys.readouterr()
    monkeypatch.setattr(cli, "trace_from_csv", lambda text, columns=None: read(text))
    full = cli.main(argv), capsys.readouterr()

    assert asked == [{"p", "n", "U_safety", "U_pass"}]
    assert projected == full
    assert projected[1].out.count(": invariant: ") == 3
