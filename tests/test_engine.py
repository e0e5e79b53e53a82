import json
import math
from collections import Counter, namedtuple

import pytest

from redapt.engine import (
    AdaptationEngine,
    ContractViolationError,
    EffectorRejectedError,
    EngineConfig,
    NoChange,
    Parametric,
    PlanFailedError,
    Source,
    Structural,
    ViolationType,
    diagnose,
    execute,
    invariant_verdicts,
    monitor_step,
    plan,
    reading_windows,
    resolve,
    window_is_noisy,
)
from redapt.hrcs.runner import PLANNING_SETTINGS
from redapt.speclang import Instance, State, Trace, parse_document

NONE = ViolationType.NONE

Reading = namedtuple("Reading", "sensor_id variable value timestamp")

ENGINE_SPEC = """
adaptive_goal "hold p and n" {
  attributes:
    numeric t_dispatch, p, n, f_i
    class I_sensor
  invariant: G(p >= 50% && n <= 350)
}

context_uncertainty "traffic growth" {
  affected_goal: "hold p and n" FR
  attributes:
    numeric p, n
  violation: exists F in flow_levels . p(F) < 50%
}

adaptive_goal "keep safety utility" {
  attributes:
    numeric U_safety, t_close, t_open, E
}

context_uncertainty "light level" {
  affected_goal: "keep safety utility" NFR
  attributes:
    numeric E, U_safety
  violation: exists e in lux_levels . U_safety(e) < 1
}

components_uncertainty "gauge failure" {
  affected_goal: "flow monitor" FR
  attributes:
    numeric f_i
    class I_sensor
  violation: exists s in I_sensor . s.value = ""
}

components_uncertainty "gauge noise" {
  affected_goal: "flow monitor" NFR
  attributes:
    numeric f_i
    class I_sensor
  violation: exists s in I_sensor . unstable(s.value)
}

monitor "flow monitor" {
  from_goal: "hold p and n"
  attributes:
    numeric f_i
    class I_sensor
  output: f_i
}

plan "step dispatch" {
  from_goal: "hold p and n"
  attributes:
    numeric t_dispatch, t_dispatch_new
  output: t_dispatch_new
}

plan "retime gates" {
  from_goal: "keep safety utility"
  attributes:
    numeric t_close, t_open, t_close_new, t_open_new
  output: t_close_new, t_open_new
}
"""


LUX_MONITOR = """
monitor "light monitor" {
  from_goal: "keep safety utility"
  attributes:
    numeric e_i
    class I_lux
  output: e_i
}
"""


SECOND_FLOW_MONITOR = """
monitor "flow cross-check" {
  from_goal: "hold p and n"
  attributes:
    numeric f_i
    class I_sensor
  output: f_i
}
"""


SECOND_DISPATCH_GOAL = """
adaptive_goal "hold p" {
  attributes:
    numeric t_dispatch, p
  invariant: G(p >= 50%)
}

context_uncertainty "demand growth" {
  affected_goal: "hold p" FR
  attributes:
    numeric p
  violation: exists F in flow_levels . p(F) < 50%
}

plan "step dispatch again" {
  from_goal: "hold p"
  attributes:
    numeric t_dispatch, t_dispatch_new
  output: t_dispatch_new
}
"""


@pytest.fixture(scope="module")
def specs():
    return parse_document(ENGINE_SPEC)


@pytest.fixture(scope="module")
def program(specs):
    return resolve(specs, EngineConfig())


def trace_of(*states):
    return Trace(tuple(states))


def healthy_state(time, **extra):
    """A state as the engine keeps it: the slot readings are values and also
    the ``I_sensor`` instances, keyed by the slot they fill."""
    base = {"p": 0.9, "n": 120, "U_safety": 1.0, "f_1": 15.0, "f_2": 15.0}
    base.update(extra)
    sensors = {
        slot: Instance(f"ir_{slot[2:]}", v, gauge=v is not None)
        for slot, v in base.items()
        if slot.startswith("f_")
    }
    return State(time=float(time), values=base, instances={"I_sensor": sensors})


def readings_of(observed):
    """The readings of a monitored ``State`` or a ``CycleReport``, one per
    slot as ``cycles.jsonl`` lists them."""
    time = observed.time if isinstance(observed, State) else observed.sim_time
    return [
        Reading(instance.id, slot, instance.value, time)
        for members in observed.instances.values()
        for slot, instance in members.items()
    ]


def crossing_config(**overrides):
    """The crossing's planning settings, as ``redapt run`` lays a config over them."""
    return EngineConfig.from_dict(overrides, PLANNING_SETTINGS)


def diagnosis(specs, trace):
    """Each goal's violation and failing slots, from the noise windows the
    trace's last ``noise_window`` states fill."""
    cfg = crossing_config()
    windows = reading_windows(trace.states[-cfg.noise_window:], cfg)
    program = resolve(specs, cfg)
    return diagnose(program, trace, cfg, invariant_verdicts(program, trace), windows)


def diagnosed(specs, trace):
    """Each goal's violation, without its failing slots."""
    return {goal: violation for goal, (violation, _) in diagnosis(specs, trace).items()}


class TestEngineConfig:
    """Validated only: a run under any of these values is never started
    (with a zero period the cycle loop would never advance)."""

    @pytest.mark.parametrize("data", [
        {"cycle_period_s": 0},
        {"cycle_period_s": -5},
        {"cycle_period_s": math.nan},
        {"cycle_period_s": math.inf},
        {"cycle_period_s": "60"},
        {"noise_std_threshold": math.nan},
        {"noise_std_threshold": -math.inf},
        {"max_plan_iterations": 2.5},
        {"max_plan_iterations": True},
        {"noise_window": 5.0},
        [],
        {"desired_utilities": []},
        {"desired_utilities": {"U_safety": "0.7"}},
        {"param_step": {"t_dispatch": math.nan}},
        {"param_domains": {"t_dispatch": [1]}},
        {"param_domains": {"t_dispatch": [30.0, 1.0]}},
        {"param_domains": {"t_dispatch": [1.0, math.inf]}},
        {"param_domains": {"t_dispatch": "1-30"}},
    ])
    def test_bad_values_rejected(self, data):
        with pytest.raises(ValueError):
            EngineConfig.from_dict(data)

    def test_values_from_json_accepted(self):
        cfg = EngineConfig.from_dict(json.loads(
            '{"cycle_period_s": 120, "noise_std_threshold": 2.5, "max_plan_iterations": 8}'
        ))
        assert (cfg.cycle_period_s, cfg.noise_std_threshold, cfg.max_plan_iterations) == (120, 2.5, 8)

    def test_config_keys_replace_crossing_settings_one_by_one(self):
        cfg = EngineConfig.from_dict({"cycle_period_s": 120}, PLANNING_SETTINGS)
        assert cfg.cycle_period_s == 120
        assert cfg.desired_utilities == {"U_safety": 0.7}
        assert cfg.param_step == PLANNING_SETTINGS["param_step"]
        assert cfg.param_domains == PLANNING_SETTINGS["param_domains"]
        cfg = EngineConfig.from_dict({"param_domains": {"t_dispatch": [2, 9]}}, PLANNING_SETTINGS)
        assert cfg.param_domains == {"t_dispatch": (2.0, 9.0)}
        assert cfg.param_step == PLANNING_SETTINGS["param_step"]

    def test_generic_defaults_name_no_parameter(self):
        cfg = EngineConfig()
        assert (cfg.desired_utilities, cfg.param_step, cfg.param_domains) == ({}, {}, {})


class TestDetectNoise:
    def test_constant_window_is_quiet(self):
        assert not window_is_noisy([5, 5, 5, 5, 5], EngineConfig())

    def test_alternating_window_is_noisy(self):
        # sample standard deviation of [5, 50, 5, 50, 5]: mean 23,
        # squared deviations sum 2430, variance 2430/4, sigma ~ 24.65
        values = [5, 50, 5, 50, 5]
        assert math.isclose(math.sqrt(607.5), 24.647515087732476)
        cfg = EngineConfig(noise_std_threshold=3.0)
        assert window_is_noisy(values, cfg)

    def test_single_sample_is_insufficient_evidence(self):
        assert not window_is_noisy([5], EngineConfig())

    def test_absent_values_are_ignored(self):
        assert not window_is_noisy([None, 5, None, 5], EngineConfig())

    @staticmethod
    def two_pass(values, threshold):
        mean = sum(values) / len(values)
        return math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1)) > threshold

    @pytest.mark.parametrize("nudge", [0.0, -1e-9, 1e-9])
    def test_two_readings_at_the_edge_keep_the_formulas_verdict(self, nudge):
        # two readings 3 * sqrt(2) apart deviate by exactly the threshold 3
        values = [0.0, 3 * math.sqrt(2) + nudge]
        verdict = window_is_noisy(values, EngineConfig(noise_std_threshold=3.0))
        assert verdict == self.two_pass(values, 3.0)
        if nudge:
            assert verdict == (nudge > 0)

    def test_a_range_past_the_pretest_still_needs_the_deviation(self):
        # the range clears 1.4142135 thresholds, but four equal readings keep
        # the deviation at range / sqrt(5)
        values = [0.0, 0.0, 0.0, 0.0, math.nextafter(3 * 1.4142135, math.inf)]
        assert max(values) > 3.0 * 1.4142135
        assert not window_is_noisy(values, EngineConfig(noise_std_threshold=3.0))
        assert not self.two_pass(values, 3.0)

    def test_huge_readings_skip_the_pretest(self):
        # at this magnitude the two-pass mean rounds by half the range, so the
        # formula sees a spread that the range alone would have ruled out
        values = [1e17, 1e17 + 16]
        assert max(values) - min(values) < 12.0 * 1.4142135
        assert self.two_pass(values, 12.0)
        assert window_is_noisy(values, EngineConfig(noise_std_threshold=12.0))


class TestDiagnose:
    def test_everything_healthy_maps_to_none(self, specs):
        trace = trace_of(healthy_state(60))
        out = diagnosed(specs, trace)
        assert out == {
            "hold p and n": NONE,
            "keep safety utility": NONE,
            "flow monitor": NONE,
        }

    def test_low_percentage_is_context_fr(self, specs):
        trace = trace_of(healthy_state(60, p=0.3877, n=360))
        out = diagnosed(specs, trace)
        assert out["hold p and n"] is ViolationType.CONU_FR

    def test_low_utility_is_context_nfr(self, specs):
        # gates at their bright optimum while the light is gone
        trace = trace_of(healthy_state(60, U_safety=0.0))
        out = diagnosed(specs, trace)
        assert out["keep safety utility"] is ViolationType.CONU_NFR

    def test_utility_at_threshold_is_healthy(self, specs):
        trace = trace_of(healthy_state(60, U_safety=0.7))
        out = diagnosed(specs, trace)
        assert out["keep safety utility"] is NONE

    def test_absent_reading_is_components_fr(self, specs):
        trace = trace_of(healthy_state(60, f_2=None))
        out = diagnosed(specs, trace)
        assert out["flow monitor"] is ViolationType.COMU_FR

    def test_noisy_window_is_components_nfr(self, specs):
        rows = [healthy_state(60 * (i + 1), f_2=v) for i, v in enumerate([5, 50, 5, 50, 5])]
        out = diagnosed(specs, trace_of(*rows))
        assert out["flow monitor"] is ViolationType.COMU_NFR

    def test_a_real_change_in_flow_is_not_noise(self, specs):
        # F falls 8 veh/min over five cycles: each healthy sensor's window
        # spreads past the threshold, but none strays from what the others read
        falling = [38.8, 36.8, 34.8, 32.8, 30.8]
        assert window_is_noisy(falling, crossing_config())
        slots = [f"f_{i}" for i in range(1, 11)]

        def diagnosed_flow(**strays):
            rows = [
                healthy_state(
                    60 * (i + 1),
                    **{slot: flow + strays.get(slot, (0,) * 5)[i] for slot in slots},
                )
                for i, flow in enumerate(falling)
            ]
            trace = trace_of(*rows)
            return diagnosis(specs, trace)

        assert diagnosed_flow()["flow monitor"] == (NONE, [])
        # a noisy sensor still stands out from the others
        out = diagnosed_flow(f_4=(20, -20, 20, -20, 20))
        assert out["flow monitor"] == (ViolationType.COMU_NFR, ["f_4"])

    def test_inconclusive_invariant_is_no_violation(self, specs):
        trace = trace_of(healthy_state(60))
        out = diagnosed(specs, trace)
        assert out["hold p and n"] is NONE

    def test_failing_slots_come_from_the_source_that_fired(self, specs):
        rows = [
            healthy_state(60 * (i + 1), f_1=v, f_2=v, f_3=15.0)
            for i, v in enumerate([5, 50, 5, 50, None])
        ]
        trace = trace_of(*rows)
        out = diagnosis(specs, trace)
        # f_1 and f_2 are noisy as well, but the failure source comes first
        assert out["flow monitor"] == (ViolationType.COMU_FR, ["f_1", "f_2"])
        assert out["hold p and n"] == (NONE, [])
        noisy = trace_of(*rows[:-1])
        out = diagnosis(specs, noisy)
        assert out["flow monitor"] == (ViolationType.COMU_NFR, ["f_1", "f_2"])


class FakeVerifier:
    """Accepts candidates in a configured set; counts calls."""

    def __init__(self, acceptable):
        self.acceptable = acceptable
        self.calls = 0

    def __call__(self, candidate):
        self.calls += 1
        if isinstance(candidate, Parametric):
            key = tuple(candidate.changes)
            return NONE if key in self.acceptable else ViolationType.CONU_FR
        if isinstance(candidate, Structural):
            return NONE
        return ViolationType.CONU_FR


class TestPlan:
    def test_none_returns_no_change(self, program):
        verifier = FakeVerifier(set())
        out = plan(program, "hold p and n", NONE, {}, {}, verifier, EngineConfig())
        assert out == NoChange()
        assert verifier.calls == 0

    def test_single_step_dispatch_increase(self, program):
        verifier = FakeVerifier({(("t_dispatch", 6.0),)})
        out = plan(
            program, "hold p and n", ViolationType.CONU_FR,
            {"t_dispatch": 5.0}, {}, verifier, crossing_config(),
        )
        assert out == Parametric((("t_dispatch", 6.0),))
        assert verifier.calls == 2  # current setting first, then one step

    def test_current_configuration_verifying_clean_keeps_it(self, program):
        verifier = FakeVerifier({(("t_dispatch", 5.0),)})
        out = plan(
            program, "hold p and n", ViolationType.CONU_FR,
            {"t_dispatch": 5.0}, {}, verifier, EngineConfig(),
        )
        assert out == NoChange()
        assert verifier.calls == 1

    def test_gate_retiming_reaches_derived_optimum(self, program):
        # the closed-form admissible path: safety utility climbs
        # 1/6, 1/3, 1/2, 2/3 and first clears 0.7 at (1.5, 6.5) with 5/6
        from redapt.hrcs import eval_utilities

        path = []

        def verifier(candidate):
            values = dict(candidate.changes)
            u = eval_utilities(values["t_close"], values["t_open"], 10.0)
            path.append((values["t_close"], values["t_open"], u.u_safety))
            return NONE if u.u_safety >= 0.7 else ViolationType.CONU_NFR

        out = plan(
            program, "keep safety utility", ViolationType.CONU_NFR,
            {"t_close": 4.0, "t_open": 4.0}, {}, verifier, crossing_config(),
        )
        assert out == Parametric((("t_close", 1.5), ("t_open", 6.5)))
        assert path == [
            (4.0, 4.0, 0.0),
            (3.5, 4.5, pytest.approx(1 / 6)),
            (3.0, 5.0, pytest.approx(1 / 3)),
            (2.5, 5.5, pytest.approx(1 / 2)),
            (2.0, 6.0, pytest.approx(2 / 3)),
            (1.5, 6.5, pytest.approx(5 / 6)),
        ]

    def test_budget_exhaustion_raises_plan_failed(self, program):
        verifier = FakeVerifier(set())
        with pytest.raises(PlanFailedError):
            plan(
                program, "hold p and n", ViolationType.CONU_FR,
                {"t_dispatch": 5.0}, {}, verifier,
                crossing_config(max_plan_iterations=4),
            )
        assert verifier.calls <= 4  # boundedness

    def test_clamped_at_both_ends_raises_plan_failed(self, program):
        verifier = FakeVerifier(set())
        cfg = crossing_config(param_domains={"t_close": (1.5, 4.0), "t_open": (4.0, 6.5)})
        with pytest.raises(PlanFailedError):
            plan(
                program, "keep safety utility", ViolationType.CONU_NFR,
                {"t_close": 1.5, "t_open": 6.5}, {}, verifier, cfg,
            )

    def test_structural_takes_first_standby(self, program):
        out = plan(
            program, "flow monitor", ViolationType.COMU_FR,
            {}, {"f_3": ["s_11", "s_12"]}, FakeVerifier(set()), EngineConfig(), failing=["f_3"],
        )
        assert out == Structural((("f_3", "s_11"),))

    def test_empty_standby_raises_plan_failed(self, program):
        with pytest.raises(PlanFailedError):
            plan(
                program, "flow monitor", ViolationType.COMU_FR,
                {}, {"f_3": []}, FakeVerifier(set()), EngineConfig(), failing=["f_3"],
            )


class FakeSink:
    def __init__(self, bindings=None):
        self.parameters = {}
        self.bindings = dict(bindings or {})

    def set_parameter(self, name, value):
        self.parameters[name] = value

    def bind_instance(self, slot, instance_id):
        previous, self.bindings[slot] = self.bindings.get(slot), instance_id
        return previous


class TestExecute:
    def test_parametric_sets_target(self):
        sink = FakeSink()
        execute(Parametric((("t_dispatch", 6.0),)), sink, {}, EngineConfig())
        assert sink.parameters == {"t_dispatch": 6.0}

    def test_parametric_is_idempotent(self):
        sink = FakeSink()
        reconfig = Parametric((("t_dispatch", 6.0),))
        execute(reconfig, sink, {}, EngineConfig())
        once = dict(sink.parameters)
        execute(reconfig, sink, {}, EngineConfig())
        assert sink.parameters == once

    def test_out_of_domain_value_rejected(self):
        with pytest.raises(EffectorRejectedError):
            execute(
                Parametric((("t_close", 0.25),)), FakeSink(), {},
                crossing_config(),
            )

    def test_structural_swaps_pool_and_rebinds(self):
        sink = FakeSink({"f_3": "s_03"})
        spares = {"f_3": ["s_11", "s_12"]}
        execute(Structural((("f_3", "s_11"),)), sink, spares, EngineConfig())
        assert spares == {"f_3": ["s_12", "s_03"]}
        assert sink.bindings == {"f_3": "s_11"}

    def test_structural_conserves_instances(self):
        sink = FakeSink({"f_3": "s_03", "f_4": "s_04"})
        spares = {"f_3": ["s_11"], "f_4": ["s_12"]}

        def instances():
            return sorted([*sink.bindings.values(), *(i for s in spares.values() for i in s)])

        before = instances()
        execute(Structural((("f_3", "s_11"),)), sink, spares, EngineConfig())
        assert instances() == before

    def test_spares_rotate_through_one_slot(self):
        # the first spare goes in and the replaced instance goes to the back
        sink = FakeSink({"f_3": "s_03"})
        spares = {"f_3": ["s_11", "s_12"]}
        swapped = []
        for _ in range(3):
            execute(Structural((("f_3", spares["f_3"][0]),)), sink, spares, EngineConfig())
            swapped.append((sink.bindings["f_3"], list(spares["f_3"])))
        assert swapped == [
            ("s_11", ["s_12", "s_03"]),
            ("s_12", ["s_03", "s_11"]),
            ("s_03", ["s_11", "s_12"]),
        ]

    def test_unknown_replacement_rejected(self):
        with pytest.raises(EffectorRejectedError):
            execute(Structural((("f_3", "ghost"),)), FakeSink(), {"f_3": ["s_11"]}, EngineConfig())

    def test_no_change_is_identity(self):
        sink = FakeSink({"f_3": "s_03"})
        spares = {"f_3": ["s_11"]}
        execute(NoChange(), sink, spares, EngineConfig())
        assert spares == {"f_3": ["s_11"]} and sink.bindings == {"f_3": "s_03"}
        assert not sink.parameters


class FakeTarget:
    """Probe source and effector sink with scripted values."""

    def __init__(self, values=None, slot_values=None, lux_values=None):
        self.time = 60.0
        self.values = values or {"p": 0.9, "n": 100, "U_safety": 1.0, "t_dispatch": 5.0}
        self.slot_values = slot_values if slot_values is not None else {"f_1": 15.0, "f_2": 15.0}
        self.lux_values = lux_values or {}
        self.parameters = {}
        self.bindings = {}

    def now(self):
        return self.time

    def instances(self, class_name):
        if class_name == "I_sensor":
            slots, prefix = self.slot_values, "ir"
        elif class_name == "I_lux":
            slots, prefix = self.lux_values, "lux"
        else:
            return []
        return [(slot, self.bound(slot)) for slot in sorted(slots)]

    def bound(self, slot):
        prefix = "ir" if slot in self.slot_values else "lux"
        return self.bindings.get(slot, f"{prefix}_{slot[2:]}")

    def snapshot(self):
        return {**self.values, **self.slot_values, **self.lux_values}

    def set_parameter(self, name, value):
        self.parameters[name] = value

    def bind_instance(self, slot, instance_id):
        previous, self.bindings[slot] = self.bound(slot), instance_id
        self.slot_values[slot] = 15.0
        return previous


class CountingTarget(FakeTarget):
    """A ``FakeTarget`` that counts the probe calls made on it."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.calls = Counter()

    def instances(self, class_name):
        self.calls["instances", class_name] += 1
        return super().instances(class_name)

    def snapshot(self):
        self.calls["snapshot"] += 1
        return super().snapshot()


class TestContract:
    def test_bundled_spec_matches_simulator_surface(self):
        import redapt
        from redapt.engine import verify_contract
        from redapt.hrcs import ScenarioConfig, Simulator
        from redapt.hrcs.runner import contract_of

        sim = Simulator(
            ScenarioConfig.from_json(redapt.data_path("experiment1.json").read_text())
        )
        assert verify_contract(resolve(redapt.load_bundled_spec(), EngineConfig()), contract_of(sim)) == []

    def test_missing_probe_and_effector_reported(self, program):
        from redapt.engine import ProbeEffectorContract, verify_contract

        contract = ProbeEffectorContract(frozenset({"f_1"}), frozenset())
        problems = verify_contract(program, contract)
        assert any("effector" in p for p in problems)
        assert not any("'f_i'" in p for p in problems)  # the family is probed
        empty = ProbeEffectorContract(frozenset(), frozenset({"t_dispatch", "t_close", "t_open"}))
        assert any("probe" in p for p in verify_contract(program, empty))


class TestMonitorStep:
    def test_one_reading_per_slot(self, program):
        target = FakeTarget()
        out = readings_of(monitor_step(program, target))
        assert [(r.variable, r.value) for r in out] == [("f_1", 15.0), ("f_2", 15.0)]
        assert all(r.timestamp == 60.0 for r in out)

    def test_failed_slot_reads_absent(self, program):
        target = FakeTarget(slot_values={"f_1": 15.0, "f_3": None})
        out = readings_of(monitor_step(program, target))
        assert ("f_3", None) in [(r.variable, r.value) for r in out]

    def test_missing_instances_violate_contract(self, program):
        target = FakeTarget(slot_values={})
        with pytest.raises(ContractViolationError):
            monitor_step(program, target)

    def test_document_without_monitors_reads_nothing(self):
        doc = parse_document('goal "g" {\n  attributes:\n    numeric x\n}')
        assert readings_of(monitor_step(resolve(doc, EngineConfig()), FakeTarget())) == []


class TestEngineCycle:
    def engine(self, specs):
        return AdaptationEngine(specs, EngineConfig(), {"f_1": ["ir_11"], "f_2": ["ir_12"]})

    def test_healthy_cycle_reports_no_change(self, specs):
        engine = self.engine(specs)
        report = engine.cycle(FakeTarget(), FakeTarget(), lambda g, v: FakeVerifier(set()))
        assert all(v == "none" for v in report.violation.values())
        assert report.reconfiguration == {}
        assert report.plan_iterations == {}

    def test_a_listed_slot_missing_from_the_snapshot_fails_monitoring(self, specs):
        class Lacking(FakeTarget):
            def snapshot(self):
                values = super().snapshot()
                del values["f_2"]  # the slot ``instances`` still lists
                return values

        engine = self.engine(specs)
        target = Lacking()
        report = engine.cycle(target, target, lambda g, v: FakeVerifier(set()))
        assert report.errors == ["monitoring failed: the target's snapshot lacks slot 'f_2'"]
        assert report.instances == {} and report.violation == {}
        assert engine.trace.states == () and engine.cycle_index == 1

    def test_failed_sensor_cycle_replaces_in_same_cycle(self, specs):
        target = FakeTarget(slot_values={"f_1": 15.0, "f_2": None})
        engine = self.engine(specs)
        report = engine.cycle(target, target, lambda g, v: FakeVerifier(set()))
        assert report.violation["flow monitor"] == "ComU_FR"
        assert report.reconfiguration["flow monitor"]["kind"] == "structural"
        assert target.bindings == {"f_2": "ir_12"}
        assert report.post_verdicts["flow monitor"] == "none"

    def test_failing_slots_are_found_once_and_replaced(self, specs, monkeypatch):
        import redapt.engine as engine_module

        calls = []
        diagnosed_slots = []
        original_slots, original_diagnose = engine_module.faulty_slots, engine_module.diagnose

        def counted(source, *args, **kwargs):
            calls.append(source.name)
            return original_slots(source, *args, **kwargs)

        def kept(*args, **kwargs):
            out = original_diagnose(*args, **kwargs)
            diagnosed_slots.append(out["flow monitor"][1])
            return out

        monkeypatch.setattr(engine_module, "faulty_slots", counted)
        monkeypatch.setattr(engine_module, "diagnose", kept)
        target = FakeTarget(slot_values={"f_1": None, "f_2": 15.0, "f_3": None})
        engine = AdaptationEngine(specs, EngineConfig(), {
            "f_1": ["ir_11"], "f_2": ["ir_12"], "f_3": ["ir_13"],
        })
        report = engine.cycle(target, target, lambda g, v: FakeVerifier(set()))
        assert calls.count("gauge failure") == 1
        assert diagnosed_slots == [["f_1", "f_3"]]
        replaced = [r["slot"] for r in report.reconfiguration["flow monitor"]["replacements"]]
        assert replaced == diagnosed_slots[0]
        assert target.bindings == {"f_1": "ir_11", "f_3": "ir_13"}

    def test_plan_failure_is_recorded_not_raised(self, specs):
        target = FakeTarget(slot_values={"f_1": 15.0, "f_2": None})
        engine = self.engine(specs)
        engine.spares["f_2"] = []
        report = engine.cycle(target, target, lambda g, v: FakeVerifier(set()))
        assert any("plan failed" in e for e in report.errors)
        assert target.bindings == {}

    def test_monitoring_failure_is_recorded_not_raised(self, specs):
        target = FakeTarget(slot_values={})  # no instances answer the contract
        engine = self.engine(specs)
        report = engine.cycle(target, target, lambda g, v: FakeVerifier(set()))
        assert any("monitoring failed" in e for e in report.errors)
        assert readings_of(report) == [] and report.violation == {}

    def test_identical_inputs_produce_identical_reports(self, specs):
        def run():
            target = FakeTarget(slot_values={"f_1": 15.0, "f_2": None})
            engine = self.engine(specs)
            return engine.cycle(target, target, lambda g, v: FakeVerifier(set()))

        a, b = run(), run()
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())

    def test_engine_keeps_only_the_noise_window(self, specs):
        engine = self.engine(specs)
        target = FakeTarget()
        for k in range(1, 9):
            target.time = 60.0 * k
            engine.cycle(target, target, lambda g, v: FakeVerifier(set()))
        assert [s.time for s in engine.trace.states] == [240.0, 300.0, 360.0, 420.0, 480.0]

    def test_each_invariant_is_evaluated_once_per_cycle(self, specs, monkeypatch):
        import redapt.engine as engine_module

        calls = []
        original = engine_module.evaluate

        def counted(formula, *args, **kwargs):
            calls.append(formula)
            return original(formula, *args, **kwargs)

        monkeypatch.setattr(engine_module, "evaluate", counted)
        engine = self.engine(specs)
        target = FakeTarget(slot_values={"f_1": 15.0, "f_2": None})
        report = engine.cycle(target, target, lambda g, v: FakeVerifier(set()))
        goals = {
            g.name: g.invariant for g in resolve(specs, EngineConfig()).goals.values()
            if g.invariant is not None
        }
        assert goals and calls == list(goals.values())
        assert set(report.verdicts) == set(goals)

    def test_swap_leaves_kept_states_unchanged(self, specs):
        engine = self.engine(specs)
        target = FakeTarget()
        for k, reading in enumerate([5.0, 50.0], start=1):
            target.time = 60.0 * k
            target.slot_values["f_2"] = reading
            report = engine.cycle(target, target, lambda g, v: FakeVerifier(set()))
        assert report.violation["flow monitor"] == "ComU_NFR"
        assert target.bindings == {"f_2": "ir_12"}
        # the states kept from before the swap still hold what ir_2 read
        assert [s.values["f_2"] for s in engine.trace.states] == [5.0, 50.0]
        assert [s.instances["I_sensor"]["f_2"] for s in engine.trace.states] == [
            Instance("ir_2", 5.0), Instance("ir_2", 50.0)
        ]

    def test_replacement_is_not_judged_on_predecessor_readings(self, specs):
        engine = self.engine(specs)
        target = FakeTarget()
        for k, reading in enumerate([5.0, 50.0], start=1):
            target.time = 60.0 * k
            target.slot_values["f_2"] = reading
            engine.cycle(target, target, lambda g, v: FakeVerifier(set()))
        target.time = 180.0  # ir_12 reads 15.0, far from ir_2's 5.0 and 50.0
        report = engine.cycle(target, target, lambda g, v: FakeVerifier(set()))
        assert [s.values["f_2"] for s in engine.trace.states] == [5.0, 50.0, 15.0]
        assert report.violation["flow monitor"] == "none"
        assert report.reconfiguration == {}

    def test_a_cycle_gauges_each_class_and_slot_once(self):
        specs = parse_document(ENGINE_SPEC + LUX_MONITOR)
        engine = AdaptationEngine(specs, EngineConfig(), {})
        target = CountingTarget(lux_values={"e_1": 300.0})
        report = engine.cycle(target, target, lambda g, v: FakeVerifier(set()))
        assert set(report.violation.values()) == {"none"}
        assert target.calls == Counter({
            ("instances", "I_sensor"): 1, ("instances", "I_lux"): 1, "snapshot": 1,
        })

    def test_a_components_violation_observes_the_target_once(self, specs):
        target = CountingTarget(slot_values={"f_1": 15.0, "f_2": None})
        report = self.engine(specs).cycle(target, target, lambda g, v: FakeVerifier(set()))
        assert report.violation["flow monitor"] == "ComU_FR"
        assert target.bindings == {"f_2": "ir_12"}
        assert target.calls["snapshot"] == 1

    def test_a_later_plan_starts_from_an_earlier_plans_change(self):
        class LiveTarget(FakeTarget):
            def set_parameter(self, name, value):
                super().set_parameter(name, value)
                self.values[name] = value  # as a fresh snapshot would show it

        doc = parse_document(ENGINE_SPEC + SECOND_DISPATCH_GOAL)
        cfg = EngineConfig(param_step={"t_dispatch": 1.0})
        engine = AdaptationEngine(doc, cfg, {})
        target = LiveTarget(values={"p": 0.3, "n": 100, "U_safety": 1.0, "t_dispatch": 5.0})
        report = engine.cycle(target, target, lambda g, v: FakeVerifier({(("t_dispatch", 6.0),)}))
        assert report.violation["hold p and n"] == report.violation["hold p"] == "ConU_FR"
        first = report.reconfiguration["hold p and n"]
        assert first["changes"] == [{"param": "t_dispatch", "value": 6.0}]
        # the second plan finds 6 already applied and keeps it, instead of stepping 5 again
        assert report.reconfiguration["hold p"] == {"kind": "no_change"}
        assert target.parameters == {"t_dispatch": 6.0}

    def test_a_class_two_monitors_share_is_read_once(self):
        doc = parse_document(ENGINE_SPEC + SECOND_FLOW_MONITOR)
        engine = AdaptationEngine(doc, EngineConfig(), {})
        report = engine.cycle(FakeTarget(), FakeTarget(), lambda g, v: FakeVerifier(set()))
        readings = report.to_json_dict()["readings"]
        assert [r["variable"] for r in readings] == ["f_1", "f_2"]

    def test_absent_lux_reading_does_not_fire_flow_sources(self):
        specs = parse_document(ENGINE_SPEC + LUX_MONITOR)
        engine = AdaptationEngine(specs, EngineConfig(), {})
        target = FakeTarget(lux_values={"e_1": None, "e_2": 300.0})
        report = engine.cycle(target, target, lambda g, v: FakeVerifier(set()))
        assert ("e_1", None) in [(r.variable, r.value) for r in readings_of(report)]
        assert report.violation["flow monitor"] == "none"
        assert report.reconfiguration == {} and report.errors == []


class TestResolve:
    def test_program_of_a_document(self):
        doc = parse_document(ENGINE_SPEC + LUX_MONITOR + SECOND_FLOW_MONITOR)
        program = resolve(doc, crossing_config())
        assert list(program.classes.items()) == [
            ("I_sensor", "flow monitor"), ("I_lux", "light monitor"),
        ]
        assert {name: goal.sources for name, goal in program.goals.items()} == {
            "hold p and n": (Source("traffic growth", ViolationType.CONU_FR, ()),),
            "keep safety utility": (Source("light level", ViolationType.CONU_NFR, ()),),
            "flow monitor": (
                Source("gauge failure", ViolationType.COMU_FR, ("I_sensor",)),
                Source("gauge noise", ViolationType.COMU_NFR, ("I_sensor",)),
            ),
        }
        assert list(program.goals) == ["hold p and n", "keep safety utility", "flow monitor"]
        assert program.goals["hold p and n"].invariant == doc.by_name("hold p and n").invariant
        assert [goal.parameters for goal in program.goals.values()] == [
            ("t_dispatch",), ("t_close", "t_open"), None,
        ]
        assert program.plans == (
            ("step dispatch", "hold p and n", ("t_dispatch",)),
            ("retime gates", "keep safety utility", ("t_close", "t_open")),
        )
        assert [monitor for monitor, _ in program.gauges] == [
            "flow monitor", "light monitor", "flow cross-check",
        ]
        assert program.problems == ()

    @pytest.mark.parametrize("desired, threshold", [
        ({}, None),
        ({"U_safety": 0.7}, 0.7),
        ({"U_safety": 0.7, "keep safety utility": 0.9}, 0.9),
        ({"keep safety utility": 0.9, "U_safety": 0.7}, 0.9),
    ])
    def test_a_threshold_for_the_goal_beats_one_for_its_attribute(self, specs, desired, threshold):
        goal = resolve(specs, EngineConfig(desired_utilities=desired)).goals["keep safety utility"]
        assert (goal.utility, goal.threshold) == ("U_safety", threshold)

    def test_a_desired_utility_that_names_nothing_judged_is_a_problem(self, specs):
        # an affected goal and its utility attribute are read; a misspelt
        # attribute, an entity no uncertainty affects and an unknown name are not
        desired = {"U_safty": 0.7, "hold p and n": 0.5, "U_safety": 0.7,
                   "keep safety utility": 0.9, "light monitor": 0.1, "nowhere": 0.2}
        program = resolve(specs, crossing_config(desired_utilities=desired))
        assert program.problems == tuple(
            f"desired_utilities names {key!r}, which is neither an affected goal nor its "
            "utility attribute" for key in ("U_safty", "light monitor", "nowhere")
        )
        assert program.goals["keep safety utility"].threshold == 0.9

    def test_problems_that_would_stop_a_run(self):
        start = ENGINE_SPEC.index('plan "step dispatch" {')
        unplanned = ENGINE_SPEC[:start] + ENGINE_SPEC[ENGINE_SPEC.index("\n}\n", start) + 3:]
        doc = parse_document(unplanned + 'monitor "blind" {\n  from_goal: "hold p and n"\n}\n')
        program = resolve(doc, EngineConfig(param_step={"t_close": -0.5}))
        assert program.problems == (
            "plan 'retime gates' produces 't_open' but the engine config gives it no param_step",
            "monitor 'blind' declares no sensor class to gauge through",
            "no plan entity serves goal 'hold p and n'",
        )
        # an engine run without that check records the goal's plan as failed
        with pytest.raises(PlanFailedError, match="^no plan entity serves goal 'hold p and n'$"):
            plan(program, "hold p and n", ViolationType.CONU_FR, {"t_dispatch": 5.0}, {},
                 FakeVerifier(set()), EngineConfig())

    def test_run_scenario_rejects_a_classless_monitor_before_the_run(self, monkeypatch):
        import redapt
        from redapt.hrcs import ScenarioConfig, runner

        def no_cycle(*args):
            raise AssertionError("a cycle ran")

        monkeypatch.setattr(AdaptationEngine, "cycle", no_cycle)
        spec = parse_document(redapt.data_path("hrcs.agmspec").read_text() + (
            '\nmonitor "blind" {\n'
            '  from_goal: "Determine t_dispatch to make p > 50% and n < 350"\n}\n'
        ))
        scenario = ScenarioConfig.from_json(redapt.data_path("experiment1.json").read_text())
        with pytest.raises(ContractViolationError) as raised:
            runner.run_scenario(spec, scenario)
        assert str(raised.value) == "monitor 'blind' declares no sensor class to gauge through"

    def test_the_spec_is_read_once_per_run(self, monkeypatch):
        import redapt
        from dataclasses import replace
        from redapt.hrcs import ScenarioConfig, runner
        from redapt.speclang import EntitySpec, SpecDocument

        calls = Counter()
        for owner, name in [
            (SpecDocument, "of_kind"), (SpecDocument, "by_name"),
            (EntitySpec, "class_attributes"), (EntitySpec, "numeric_attributes"),
        ]:
            def counted(*args, _name=name, _original=getattr(owner, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        spec = redapt.load_bundled_spec()
        scenario = ScenarioConfig.from_json(redapt.data_path("sensor_noise.json").read_text())
        counts = []
        for minutes in (5.0, 60.0):
            calls.clear()
            result = runner.run_scenario(spec, replace(scenario, duration_min=minutes))
            assert len(result.reports) == minutes
            counts.append(dict(calls))
        assert counts[0] == counts[1]
