"""The benchmark's hooks still find what they patch.

``benchmarks/tracing.py`` replaces functions at the attributes where the
CLI, the runner and the engine look them up.  A renamed or moved hook fails
here, on a five-minute run, rather than in a traced benchmark run.
"""

import importlib.util
import json
from pathlib import Path

import redapt
from redapt import cli, engine
from redapt.engine import EngineConfig
from redapt.hrcs import runner, simulator

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_and_cycle_timer_record_a_run(tmp_path, spec_path):
    tracing = load_tracing()
    scenario = json.loads(redapt.data_path("experiment1.json").read_text())
    scenario["duration_min"] = 5.0
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario))
    hooked = [
        (cli, "run_scenario"), (cli, "write_artifacts"), (runner, "simulate"),
        (engine, "monitor_step"), (engine, "diagnose"), (engine, "plan"),
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
