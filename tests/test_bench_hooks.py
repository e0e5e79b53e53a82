"""The benchmark's hooks still find what they patch.

``benchmarks/tracing.py`` replaces functions at the attributes where the
CLI, the runner and the engine look them up.  A renamed or moved hook fails
here, on a five-minute run, rather than in a traced benchmark run.
"""

import hashlib
import importlib.util
import io
import json
from pathlib import Path

import redapt
from redapt import cli, engine
from redapt.engine import EngineConfig
from redapt.hrcs import runner, simulator
from test_golden_artifacts import GOLDEN

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_and_cycle_timer_record_a_run(tmp_path, spec_path, bundled_spec):
    tracing = load_tracing()
    scenario = json.loads(redapt.data_path("experiment1.json").read_text())
    scenario["duration_min"] = 5.0
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario))
    hooked = [
        (cli, "run_scenario"), (cli, "write_artifacts"), (runner, "simulate"),
        (engine, "monitor_step"), (engine, "diagnose"), (engine, "plan"), (engine, "evaluate"),
        (engine.AdaptationEngine, "cycle"), (simulator.Simulator, "run_until"),
    ]
    before = [getattr(owner, attr) for owner, attr in hooked]

    timer = tracing.CycleTimer(lambda: 0.0, 48)
    tracer = tracing.Tracer()
    restore_timer = timer.install()
    restore_tracer = tracer.install()
    try:
        code = cli.main([
            "run", "--spec", spec_path, "--scenario", str(scenario_path),
            "--out", str(tmp_path / "out"),
        ])
    finally:
        restore_tracer()
        restore_timer()

    assert code == 0
    assert [getattr(owner, attr) for owner, attr in hooked] == before
    [run] = tracer.runs
    assert run["rows"] == 301  # 0 to 300 s at 1 Hz
    assert run["vehicles"] > 0
    assert 0 < run["trace_states"] <= EngineConfig().noise_window
    names = {span[0] for span in tracer.spans}
    assert {
        "runner.run_scenario", "runner.write_artifacts", "engine.cycle",
        "engine.monitor_step", "engine.diagnose", "engine.evaluate", "sim.run_until",
    } <= names
    cycles, probes = timer.take()
    assert len(cycles) == 5 and probes == [(0, 0.0)]
    # `engine.eval_ms`: each cycle judges every affected goal's invariant once
    judged = [
        g for g in engine.resolve(bundled_spec, EngineConfig()).goals.values()
        if g.invariant is not None
    ]
    assert [span[0] for span in tracer.spans].count("engine.evaluate") == 5 * len(judged) > 0


def test_tracer_sees_one_read_and_one_evaluation_per_invariant(tmp_path, spec_path, bundled_spec):
    # `verify.csv_read_ms` and `eval.verify_ms` come from these spans; a reader
    # inlined into `cmd_verify` would leave the first at 0
    tracing = load_tracing()
    trace = tmp_path / "trace.csv"
    trace.write_text("time,n,p,gate,U_safety,U_pass\n0,10,1,open,1,1\n1,12,0.9,closed,0.8,1\n")
    hooked = [(cli, "evaluate"), (cli, "trace_from_csv")]
    before = [getattr(owner, attr) for owner, attr in hooked]
    tracer = tracing.Tracer()
    restore = tracer.install()
    try:
        assert [getattr(owner, attr) for owner, attr in hooked] != before
        code = cli.main(["verify", "--spec", spec_path, str(trace)])
    finally:
        restore()

    assert code == 0
    assert [getattr(owner, attr) for owner, attr in hooked] == before
    invariants = [e for e in bundled_spec.entities if e.invariant is not None]
    names = [span[0] for span in tracer.spans]
    assert names.count("cli.trace_from_csv") == 1
    assert names.count("cli.evaluate") == len(invariants) == 3
    [(_, start, end, _)] = [span for span in tracer.spans if span[0] == "cli.trace_from_csv"]
    assert end > start


def test_experiment2_makes_two_model_runs_through_the_runners_simulate(
    monkeypatch, bundled_spec, experiment2
):
    # the tracer's `runner.model_runs` counts `runner.simulate` calls: one
    # model run per candidate tried (5, then 6)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].t_dispatch_min)
        return simulator.simulate(*args, **kwargs)

    monkeypatch.setattr(runner, "simulate", counted)
    result = runner.run_scenario(bundled_spec, experiment2)
    assert calls == [5.0, 6.0]
    cycles = io.StringIO()
    result.write_cycles_jsonl(cycles)
    digest = hashlib.sha256(cycles.getvalue().encode()).hexdigest()
    assert digest == GOLDEN["experiment2"]["cycles.jsonl"]


def test_a_default_simulation_keeps_the_vehicles_model_vehicles_reads():
    # `benchmarks/run.py` scores experiment 2's model runs from `simulate(cfg).vehicles`
    scenario = json.loads(redapt.data_path("experiment2.json").read_text())
    cfg = simulator.ScenarioConfig.from_dict({**scenario, "duration_min": 10.0})
    vehicles = simulator.simulate(cfg).vehicles
    assert vehicles
    assert all(v.direction in simulator.DIRECTIONS and v.entry_time >= 0.0 for v in vehicles)
    assert any(v.exit_time is not None and v.exit_time > v.entry_time for v in vehicles)


def test_a_live_run_keeps_a_record_of_every_vehicle_that_entered():
    # the tracer's `sim.vehicles` is `len(result.trace.vehicles)`
    scenario = json.loads(redapt.data_path("sensor_failure.json").read_text())
    cfg = simulator.ScenarioConfig.from_dict({**scenario, "duration_min": 10.0})
    result = runner.run_scenario(redapt.load_bundled_spec(), cfg)
    assert len(result.trace.vehicles) == sum(result.trace.entered.values()) > 0


def test_cycle_readings_keep_the_fields_the_fault_check_reads(tmp_path, spec_path):
    # `benchmarks/checks.py` follows swaps through each reading's `sensor_id`
    # and compares its `value` with `trace.csv`; 12 minutes take in the fault
    # at 600 s and its swap
    scenario = json.loads(redapt.data_path("sensor_failure.json").read_text())
    scenario["duration_min"] = 12.0
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario))
    code = cli.main([
        "run", "--spec", spec_path, "--scenario", str(scenario_path), "--out", str(tmp_path / "out"),
    ])
    assert code == 0

    cfg = simulator.ScenarioConfig.from_dict(scenario)
    slots = {slot for _, slot, _ in cfg.sensor_names().slots()}
    in_columns = [c for c in simulator.Simulator(cfg).columns if c in slots]
    lines = (tmp_path / "out" / "cycles.jsonl").read_text().splitlines()
    cycles = [json.loads(line) for line in lines]
    header, *rows = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    cells = {float(row.split(",")[0]): dict(zip(header.split(","), row.split(","))) for row in rows}
    assert [c["sim_time"] for c in cycles] == [60.0 * k for k in range(1, 13)]
    for cycle in cycles:
        readings = cycle["readings"]
        assert all(list(r) == ["sensor_id", "variable", "value", "timestamp"] for r in readings)
        assert [r["variable"] for r in readings] == in_columns
        assert all(r["timestamp"] == cycle["sim_time"] for r in readings)
        row = cells[cycle["sim_time"]]
        assert all(
            row[r["variable"]] == ("" if r["value"] is None else f"{r['value']:.9g}")
            for r in readings
        )
    f_3 = {c["sim_time"]: next(r for r in c["readings"] if r["variable"] == "f_3") for c in cycles}
    assert f_3[540.0]["sensor_id"] == "ir_03"
    assert f_3[600.0]["sensor_id"] == "ir_03" and f_3[600.0]["value"] is None
    assert f_3[660.0]["sensor_id"] == "ir_13" and f_3[660.0]["value"] is not None
    assert f_3[720.0]["sensor_id"] == "ir_13"
