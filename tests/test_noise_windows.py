"""Diagnosis by a running engine against diagnosis from a whole trace.

An ``AdaptationEngine`` keeps only what its next cycles need.  Driven through
generated cycles, it must diagnose what ``diagnose`` gives on the trace of
every state it monitored and the windows folded from it, and the sensor
faults it finds must be those that ``reference_faulty_slots`` finds.  That
function is a reference copy of the diagnosis that walked each slot's
readings back through the kept states, with its own two-pass noise test; it
is kept here, apart from the engine, as ``oracle_eval.py`` keeps an
evaluator apart from ``speclang``.

The cycles swap instances, drop readings, lose slots and get them back, often
have too few readings for a class consensus, and hold windows whose spread
sits within a few ulps of the noise threshold.
"""

from __future__ import annotations

import math
from typing import Optional
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from redapt import engine
from redapt.engine import (
    AdaptationEngine,
    EngineConfig,
    ViolationType,
    diagnose,
    faulty_slots,
    invariant_verdicts,
    reading_windows,
    resolve,
)
from redapt.speclang import EntityKind, Trace, parse_document

SPEC = parse_document("""
adaptive_goal "gauge the flows" {
  attributes:
    numeric f_i
    class I_sensor
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
  from_goal: "gauge the flows"
  attributes:
    numeric f_i
    class I_sensor
  output: f_i
}
""")

SOURCES = SPEC.of_kind(EntityKind.COMPONENTS_UNCERTAINTY)


# -- the reference ---------------------------------------------------------


def reference_noisy(values, threshold):
    present = [v for v in values if v is not None]
    if len(present) < 2:
        return False
    mean = sum(present) / len(present)
    var = sum((v - mean) ** 2 for v in present) / (len(present) - 1)
    return math.sqrt(var) > threshold


def reference_median(state, class_name):
    present = [m.value for m in state.instances.get(class_name, {}).values()]
    present = sorted(v for v in present if v is not None)
    if len(present) < 4:
        return None
    half = len(present) // 2
    return present[half] if len(present) % 2 else (present[half - 1] + present[half]) / 2


def reference_window(window, class_name, slot):
    """The readings of ``slot``'s instance in the last state, walked back
    through the states that hold that instance."""
    instance = window[-1].instances[class_name][slot]
    values = []
    for state in reversed(window):
        held = state.instances.get(class_name, {}).get(slot)
        if held is None or held.id != instance.id:
            break
        values.append(held.value)
    values.reverse()
    return values


def reference_faulty_slots(source, trace, cfg, consensus=True):
    """Slots whose instance reads absent (FR) or whose window is noisy (NFR),
    the window judged again on its residuals from the class median when every
    state of it has a median; ``consensus=False`` skips that second test."""
    if not trace.states:
        return []
    window = trace.states[-cfg.noise_window:]
    out = []
    for cls in source.class_attributes():
        medians = None
        for slot, instance in window[-1].instances.get(cls.name, {}).items():
            if source.affected_violation_kind == "FR":
                faulty = instance.value is None
            else:
                values = reference_window(window, cls.name, slot)
                faulty = reference_noisy(values, cfg.noise_std_threshold)
                if faulty and consensus:
                    if medians is None:
                        medians = [reference_median(state, cls.name) for state in window]
                    residuals = medians[len(window) - len(values):]
                    if None not in residuals:
                        residuals = [v if v is None else v - m for v, m in zip(values, residuals)]
                        faulty = reference_noisy(residuals, cfg.noise_std_threshold)
            if faulty:
                out.append(slot)
    return out


# -- generated cycles ------------------------------------------------------


def ulps_from(x, k):
    """``x`` moved ``k`` floats up (or down, for negative ``k``)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else -math.inf)
    return x


@st.composite
def runs(draw):
    """An engine configuration and up to 12 cycles.  A cycle maps each slot
    it observes, in the target's order, to (instance id, reading)."""
    threshold = draw(st.sampled_from([3.0, 0.5, 12.0]))
    cfg = EngineConfig(noise_window=draw(st.integers(2, 6)), noise_std_threshold=threshold)
    base = draw(st.sampled_from([0.0, 15.0, -7.25, 1e6]))
    edges = [
        ulps_from(edge * threshold, k)
        for edge in (math.sqrt(2), 1.4142135, 2 * math.sqrt(2))
        for k in (-3, -1, 0, 1, 3)
    ]
    reading = st.one_of(
        st.none(),
        st.just(base),
        st.sampled_from(edges).map(lambda offset: base + offset),
        st.floats(-100.0, 100.0),
    )
    slots = [f"f_{i}" for i in range(1, draw(st.integers(2, 10)) + 1)]
    cycles = []
    ids = {slot: 0 for slot in slots}
    for _ in range(draw(st.integers(1, 12))):
        cycle = {}
        for slot in slots:
            if draw(st.integers(0, 9)) == 0:
                continue  # the slot vanishes for this cycle
            if draw(st.integers(0, 5)) == 0:
                ids[slot] += 1  # a new instance is bound
            cycle[slot] = (f"{slot}#{ids[slot]}", draw(reading))
        cycles.append(cycle)
    return cfg, cycles


class ReplayTarget:
    """Answers the probe contract from one generated cycle at a time; the
    engine's swaps are accepted and change nothing."""

    def __init__(self):
        self.time = 0.0
        self.cycle: dict[str, tuple[str, Optional[float]]] = {}

    def now(self):
        return self.time

    def instances(self, class_name):
        return [(slot, instance_id) for slot, (instance_id, _) in self.cycle.items()]

    def snapshot(self):
        return {slot: value for slot, (_, value) in self.cycle.items()}

    def set_parameter(self, name, value):
        pass

    def bind_instance(self, slot, instance_id):
        pass


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(runs())
def test_a_running_engine_diagnoses_what_its_whole_trace_shows(run):
    cfg, cycles = run
    diagnosed = []
    original = engine.diagnose

    def kept(*args, **kwargs):
        out = original(*args, **kwargs)
        diagnosed.append(out)
        return out

    target = ReplayTarget()
    # no standby instances: a components violation ends in a recorded plan failure
    adaptation = AdaptationEngine(SPEC, cfg, {})
    monitored = []
    with mock.patch.object(engine, "diagnose", kept):
        for k, cycle in enumerate(cycles, start=1):
            target.time, target.cycle = 60.0 * k, cycle
            report = adaptation.cycle(target, target, lambda goal, violation: lambda c: violation)
            if not cycle:
                assert report.errors and report.errors[0].startswith("monitoring failed")
                continue
            monitored.append(adaptation.trace.states[-1])
            trace = Trace(tuple(monitored))
            windows = reading_windows(trace.states[-cfg.noise_window:], cfg)
            program = resolve(SPEC, cfg)
            assert diagnosed.pop() == diagnose(program, trace, cfg, invariant_verdicts(program, trace), windows)
            # the windows advanced one state per cycle are those folded from the trace
            assert adaptation.windows == windows
            for source, resolved in zip(SOURCES, program.goals["flow monitor"].sources, strict=True):
                want = reference_faulty_slots(source, trace, cfg)
                assert faulty_slots(resolved, trace, cfg, windows) == want
                assert faulty_slots(resolved, adaptation.trace, cfg, adaptation.windows) == want
    assert not diagnosed


def test_the_generated_runs_reach_each_kind_of_fault():
    """The examples above are not all quiet: both sources fire, the class
    consensus clears some noisy window, and some window's range is within
    4 ulps of the range at which two readings reach the threshold."""
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(runs())
    def survey(run):
        cfg, cycles = run
        states = []
        target = ReplayTarget()
        edge = math.sqrt(2) * cfg.noise_std_threshold
        for k, cycle in enumerate(cycles, start=1):
            if not cycle:
                continue
            target.time, target.cycle = 60.0 * k, cycle
            states.append(engine.monitor_step(resolve(SPEC, cfg), target))
            trace = Trace(tuple(states))
            window = trace.states[-cfg.noise_window:]
            ((violation, _),) = diagnose(
                resolve(SPEC, cfg), trace, cfg, {}, reading_windows(window, cfg)
            ).values()
            seen.add(violation)
            noise = SOURCES[1]
            raw = reference_faulty_slots(noise, trace, cfg, consensus=False)
            if raw != reference_faulty_slots(noise, trace, cfg):
                seen.add("cleared by consensus")
            for slot in cycle:
                present = [v for v in reference_window(window, "I_sensor", slot) if v is not None]
                if len(present) >= 2 and abs(max(present) - min(present) - edge) <= 4 * math.ulp(edge):
                    seen.add("range at the edge")

    survey()
    assert seen >= {
        ViolationType.NONE, ViolationType.COMU_FR, ViolationType.COMU_NFR,
        "cleared by consensus", "range at the edge",
    }
