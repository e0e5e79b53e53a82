"""Wires the adaptation engine to the crossing simulator.

The runner owns the live simulator, which records which instance fills each
sensor slot, gives the engine each slot's standby spares, and supplies the
verifiers that close the plan/analyze loop, chosen by the kind of
violation.  A context violation's candidate is judged by the engine's own
test of the goal, on the state the candidate predicts: a model run under the
candidate dispatch interval, or the closed-form utilities of the candidate
gate timing.  Sensor replacements are judged by the standby's health.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Optional, TextIO

from ..engine import (
    AdaptationEngine,
    ContractViolationError,
    CycleReport,
    EngineConfig,
    EngineError,
    Goal,
    Parametric,
    ProbeEffectorContract,
    Program,
    Reconfiguration,
    Structural,
    ViolationType,
    invariant_verdict,
    utility_violated,
    verify_contract,
)
from ..speclang import SpecDocument, State, Verdict
from .simulator import (
    Metrics,
    ScenarioConfig,
    SimTrace,
    Simulator,
    compute_metrics,
    simulate,
    write_trace_csv,
    write_vehicles_json,
)
from .utilities import DomainError, eval_utilities

# The crossing's planning settings: the safety utility's threshold and each
# interval's step and search domain.  An engine config replaces them key by key.
PLANNING_SETTINGS = {
    "desired_utilities": {"U_safety": 0.7},
    "param_step": {"t_dispatch": 1.0, "t_close": -0.5, "t_open": 0.5},
    "param_domains": {"t_dispatch": (1.0, 30.0), "t_close": (1.5, 4.0), "t_open": (4.0, 6.5)},
}


_MODEL_RUN_PREDICTS = "a model run predicts only p, n, p_north, p_south and t_dispatch"


def contract_of(sim: Simulator) -> ProbeEffectorContract:
    """The probe/effector surface the simulator exposes to the engine."""
    sensors = {slot for _, slot, _ in sim.cfg.sensor_names().slots()}
    return ProbeEffectorContract(
        frozenset(sim.columns[1:]),  # every column of a row but its time
        frozenset(sensors | set(sim.parameters())),
    )


def build_pool(cfg: ScenarioConfig) -> dict[str, list[str]]:
    """Each sensor slot's standby spares, in the order they are taken; their
    serials follow every serial the simulator binds first, and are distinct."""
    names = cfg.sensor_names()
    count = max(cfg.flow_sensor_count, cfg.lux_sensor_count)
    return {
        slot: [names.instance(class_name, index + k * count)
               for k in range(1, cfg.standby_per_slot + 1)]
        for class_name, slot, index in names.slots()
    }


@dataclass
class RunResult:
    reports: list[CycleReport]
    trace: SimTrace
    metrics: Metrics
    final_parameters: dict[str, float]
    plan_failures: int  # goals whose plan failed, summed over the cycles

    @property
    def plan_failed(self) -> bool:
        return self.plan_failures > 0

    def adaptation_counts(self) -> dict[str, int]:
        parametric = structural = 0
        for report in self.reports:
            for entry in report.reconfiguration.values():
                if entry["kind"] == "parametric":
                    parametric += 1
                elif entry["kind"] == "structural":
                    structural += 1
        return {
            "parametric_adaptations": parametric,
            "structural_adaptations": structural,
            "adaptations": parametric + structural,
        }

    def metrics_json(self) -> str:
        doc = dict(self.metrics.to_json_dict())
        doc.update(self.adaptation_counts())
        doc["plan_failures"] = self.plan_failures
        doc["final_parameters"] = self.final_parameters
        return json.dumps(doc, indent=2) + "\n"

    def write_cycles_jsonl(self, out: TextIO) -> None:
        out.writelines(json.dumps(r.to_json_dict()) + "\n" for r in self.reports)


def _final_verdict(goal: Goal, trace: SimTrace, model_cfg: ScenarioConfig) -> Verdict:
    """The goal's invariant on the state a whole model run predicts."""
    metrics = compute_metrics(trace, model_cfg)
    predicted = State(model_cfg.duration_s, dict(
        p=min(metrics.p_north, metrics.p_south), n=metrics.n_peak, p_north=metrics.p_north,
        p_south=metrics.p_south, t_dispatch=model_cfg.t_dispatch_min,
    ))
    try:
        return invariant_verdict(goal, predicted)
    except ContractViolationError as exc:
        raise ContractViolationError(f"{exc}; {_MODEL_RUN_PREDICTS}") from exc


class _Verifiers:
    """Per-goal analyzers the planner calls on each candidate."""

    def __init__(self, program: Program, scenario: ScenarioConfig, sim: Simulator):
        self.program = program
        self.scenario = scenario
        self.sim = sim
        self._dispatch_cache: dict[tuple, ViolationType] = {}

    def for_goal(self, goal: str, violation: ViolationType):
        if violation is ViolationType.CONU_FR:
            return partial(self._verify_dispatch, self.program.goals[goal])
        if violation is ViolationType.CONU_NFR:
            return partial(self._verify_gate_timing, self.program.goals[goal])
        return self._verify_replacement

    def _verify_dispatch(self, goal: Goal, candidate: Reconfiguration) -> ViolationType:
        """Model-based verification: re-simulate the whole fault-free
        scenario from t = 0, with its seed, under the candidate, and judge
        the goal's invariant on the state that run predicts at its end:
        ``p`` the smaller final share, ``n`` the occupancy peak,
        ``p_north``, ``p_south`` and the candidate's ``t_dispatch``.  A model
        run is not a forecast from the live state.  It records no rows, so
        ``simulate`` computes it by queue recurrence rather than the event
        heap.  The verdict is a pure function of the goal and the candidate,
        so it is cached by both.
        """
        if not isinstance(candidate, Parametric):
            return ViolationType.CONU_FR
        key = (goal.name, candidate)
        if key in self._dispatch_cache:
            return self._dispatch_cache[key]
        overrides = dict(candidate.changes)
        model_cfg = replace(
            self.scenario,
            t_dispatch_min=overrides.get("t_dispatch", self.scenario.t_dispatch_min),
            sensor_faults=(),
        )
        try:
            trace = simulate(model_cfg, record_rows=False)
        except DomainError:  # the scenario does not admit the candidate
            verdict = Verdict.VIOL
        else:
            verdict = _final_verdict(goal, trace, model_cfg)
        violation = ViolationType.CONU_FR if verdict is Verdict.VIOL else ViolationType.NONE
        self._dispatch_cache[key] = violation
        return violation

    def _verify_gate_timing(self, goal: Goal, candidate: Reconfiguration) -> ViolationType:
        if not isinstance(candidate, Parametric):
            return ViolationType.CONU_NFR
        values = {**self.sim.parameters(), **dict(candidate.changes)}
        try:
            u = eval_utilities(values["t_close"], values["t_open"], self.sim.illuminance)
        except DomainError:
            return ViolationType.CONU_NFR
        utilities = dict(values, U_E=u.u_e, U_safety=u.u_safety, U_pass=u.u_pass)
        if utility_violated(goal, State(self.sim.now(), utilities)):
            return ViolationType.CONU_NFR
        return ViolationType.NONE

    def _verify_replacement(self, candidate: Reconfiguration) -> ViolationType:
        # standby instances are healthy by construction; a concrete
        # replacement list therefore clears the violation
        if isinstance(candidate, Structural) and candidate.replacements:
            return ViolationType.NONE
        return ViolationType.COMU_FR


def run_scenario(
    specs: SpecDocument,
    scenario: ScenarioConfig,
    engine_cfg: Optional[EngineConfig] = None,
) -> RunResult:
    """Run the scenario under MAPE control for its configured duration,
    by default with the crossing's planning settings.  A cycle sees the row
    of its instant, so a cycle between sample instants raises ``EngineError``;
    the program's problems and contract breaches raise ``ContractViolationError`` first."""
    cfg = engine_cfg if engine_cfg is not None else EngineConfig.from_dict({}, PLANNING_SETTINGS)
    sim = Simulator(scenario)
    engine = AdaptationEngine(specs, cfg, build_pool(scenario))
    problems = verify_contract(engine.program, contract_of(sim)) + list(engine.program.problems)
    if problems:
        raise ContractViolationError("; ".join(problems))
    verifiers = _Verifiers(engine.program, scenario, sim)

    reports: list[CycleReport] = []
    t = cfg.cycle_period_s
    while t <= scenario.duration_s:
        sim.run_until(t)
        if sim.sampled_at != t:
            raise EngineError(f"the cycle at {t!r} s falls between sample instants "
                              f"(the last at {sim.sampled_at!r} s)")
        reports.append(engine.cycle(sim, sim, verifiers.for_goal))
        t += cfg.cycle_period_s
    sim.run_to_end()

    trace = sim.trace()
    return RunResult(
        reports=reports,
        trace=trace,
        metrics=compute_metrics(trace, scenario),
        final_parameters=sim.parameters(),
        plan_failures=sum(
            verdict != ViolationType.NONE.value for r in reports for verdict in r.post_verdicts.values()
        ),
    )


def write_artifacts(result: RunResult, out_dir) -> dict[str, str]:
    """Write cycles.jsonl, trace.csv, vehicles.json and metrics.json.

    Each is streamed to ``<name>.part`` and renamed to its name once whole;
    a write that fails removes its ``.part`` file and raises, so no artifact
    is left cut short."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    writers = {
        "cycles.jsonl": result.write_cycles_jsonl,
        "trace.csv": partial(write_trace_csv, result.trace),
        "vehicles.json": partial(write_vehicles_json, result.trace),
        "metrics.json": lambda f: f.write(result.metrics_json()),
    }
    paths = {}
    for name, write in writers.items():
        path = out / name
        part = out / f"{name}.part"
        try:
            with open(part, "w", encoding="utf-8") as f:
                write(f)
            os.replace(part, path)
        except BaseException:
            part.unlink(missing_ok=True)
            raise
        paths[name] = str(path)
    return paths
