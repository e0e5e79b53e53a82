"""Wires the adaptation engine to the crossing simulator.

The runner owns the live simulator, builds the component pool from its
sensor slots, and supplies the per-goal verifiers that close the
plan/analyze loop: dispatch-interval candidates are verified by re-running
the scenario model under the candidate value, gate retiming candidates by
the closed-form utilities, and sensor replacements by the health of the
standby instance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Optional

from ..engine import (
    AdaptationEngine,
    ComponentPool,
    ContractViolationError,
    CycleReport,
    EngineConfig,
    Parametric,
    ProbeEffectorContract,
    Reconfiguration,
    Structural,
    ViolationType,
    verify_contract,
)
from ..speclang import SpecDocument
from .simulator import (
    Metrics,
    ScenarioConfig,
    SimTrace,
    Simulator,
    compute_metrics,
    simulate,
    trace_to_csv,
    vehicles_to_json,
)


def contract_of(sim: Simulator) -> ProbeEffectorContract:
    """The probe/effector surface the simulator exposes to the engine."""
    probes = {
        (instance_id, slot)
        for class_name in ("I_sensor", "I_lux")
        for slot, instance_id in sim.instances(class_name)
    }
    probes |= {("", name) for name in sim.snapshot()}  # derived variables
    effectors = {"t_dispatch", "t_close", "t_open"}
    effectors |= {slot for slot, _ in sim.instances("I_sensor")}
    effectors |= {slot for slot, _ in sim.instances("I_lux")}
    return ProbeEffectorContract(frozenset(probes), frozenset(effectors))


def build_pool(cfg: ScenarioConfig) -> ComponentPool:
    """Active sensors plus per-slot standby spares with distinct serials."""
    active: dict[str, str] = {}
    standby: dict[str, list[str]] = {}
    slots = [(f"f_{i}", "ir", i) for i in range(1, cfg.flow_sensor_count + 1)]
    slots += [(f"e_{i}", "lux", i) for i in range(1, cfg.lux_sensor_count + 1)]
    for slot, prefix, index in slots:
        active[slot] = f"{prefix}_{index:02d}"
        count = max(cfg.flow_sensor_count, cfg.lux_sensor_count)
        standby[slot] = [
            f"{prefix}_{index + (k + 1) * count:02d}" for k in range(cfg.standby_per_slot)
        ]
    return ComponentPool(active=active, standby=standby)


@dataclass
class RunResult:
    reports: list[CycleReport]
    trace: SimTrace
    metrics: Metrics
    final_parameters: dict[str, float]
    plan_failed: bool

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
        doc["plan_failures"] = sum(
            1 for r in self.reports for e in r.errors if "plan failed" in e
        )
        doc["final_parameters"] = self.final_parameters
        return json.dumps(doc, indent=2) + "\n"

    def cycles_jsonl(self) -> str:
        return "".join(json.dumps(r.to_json_dict()) + "\n" for r in self.reports)


class _Verifiers:
    """Per-goal analyzers the planner calls on each candidate."""

    def __init__(self, specs: SpecDocument, scenario: ScenarioConfig, sim: Simulator,
                 cfg: EngineConfig):
        self.specs = specs
        self.scenario = scenario
        self.sim = sim
        self.cfg = cfg
        self._dispatch_cache: dict[tuple, ViolationType] = {}

    def for_goal(self, goal: str, violation: ViolationType):
        if violation in (ViolationType.COMU_FR, ViolationType.COMU_NFR):
            return self._verify_replacement
        entity = self.specs.by_name(goal)
        if entity is not None and "t_dispatch" in {a.name for a in entity.attributes}:
            return self._verify_dispatch
        return self._verify_gate_timing

    def _verify_dispatch(self, candidate: Reconfiguration) -> ViolationType:
        """Model-based verification: re-run the fault-free scenario under the
        candidate and check p and the occupancy peak against their limits.

        The model run records counts, not rows: its verdict needs only the
        vehicles' crossing times and the simulator's running ``n_peak``.  The
        model is a pure function of the candidate, so verdicts are cached.
        """
        if not isinstance(candidate, Parametric):
            return ViolationType.CONU_FR
        key = tuple(sorted(candidate.changes))
        if key in self._dispatch_cache:
            return self._dispatch_cache[key]
        overrides = dict(candidate.changes)
        model_cfg = replace(
            self.scenario,
            t_dispatch_min=overrides.get("t_dispatch", self.scenario.t_dispatch_min),
            sensor_faults=(),
        )
        metrics = compute_metrics(simulate(model_cfg, record_rows=False), model_cfg)
        ok = (
            min(metrics.p_north, metrics.p_south) >= model_cfg.p_min
            and metrics.n_peak <= model_cfg.n_limit
        )
        verdict = ViolationType.NONE if ok else ViolationType.CONU_FR
        self._dispatch_cache[key] = verdict
        return verdict

    def _verify_gate_timing(self, candidate: Reconfiguration) -> ViolationType:
        if not isinstance(candidate, Parametric):
            return ViolationType.CONU_NFR
        from .utilities import DomainError, eval_utilities

        values = dict(candidate.changes)
        t_close = values.get("t_close", self.sim.t_close_s)
        t_open = values.get("t_open", self.sim.t_open_s)
        threshold = self.cfg.desired_utilities.get("U_safety", 0.7)
        try:
            utilities = eval_utilities(t_close, t_open, self.sim.illuminance)
        except DomainError:
            return ViolationType.CONU_NFR
        return (
            ViolationType.NONE
            if utilities.u_safety >= threshold
            else ViolationType.CONU_NFR
        )

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
    seed: Optional[int] = None,
) -> RunResult:
    """Run the scenario under MAPE control for its configured duration."""
    if seed is not None:
        scenario = replace(scenario, seed=seed)
    cfg = engine_cfg if engine_cfg is not None else EngineConfig()
    sim = Simulator(scenario)
    problems = verify_contract(specs, contract_of(sim))
    if problems:
        raise ContractViolationError("; ".join(problems))
    engine = AdaptationEngine(specs, cfg, build_pool(scenario))
    verifiers = _Verifiers(specs, scenario, sim, cfg)

    reports: list[CycleReport] = []
    t = cfg.cycle_period_s
    while t <= scenario.duration_s:
        sim.run_until(t)
        reports.append(engine.cycle(sim, sim, verifiers.for_goal))
        t += cfg.cycle_period_s
    sim.run_to_end()

    trace = sim.trace()
    return RunResult(
        reports=reports,
        trace=trace,
        metrics=compute_metrics(trace, scenario),
        final_parameters={
            "t_dispatch": sim.t_dispatch_min,
            "t_close": sim.t_close_s,
            "t_open": sim.t_open_s,
        },
        plan_failed=any("plan failed" in e for r in reports for e in r.errors),
    )


def write_artifacts(result: RunResult, out_dir) -> dict[str, str]:
    """Write cycles.jsonl, trace.csv, vehicles.json and metrics.json."""
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {
        "cycles.jsonl": result.cycles_jsonl(),
        "trace.csv": trace_to_csv(result.trace),
        "vehicles.json": vehicles_to_json(result.trace),
        "metrics.json": result.metrics_json(),
    }
    for name, content in files.items():
        (out / name).write_text(content, encoding="utf-8")
    return {name: str(out / name) for name in files}
