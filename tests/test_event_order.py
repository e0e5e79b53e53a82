"""The stated order of events on one instant, and the queue recurrence
against the event loop.

Every event has a key ``(time, clock, kind, id)``, and the reference event
loop (``reference_simulator``) runs its events in key order; the recurrence
decides each tie the counts depend on by the same order.  So a model run,
``simulate(cfg, record_rows=False)``, gives the event loop's counts on every
scenario and never builds a ``Simulator``, and a live run, engine actions
and faults included, gives its whole trace byte for byte (differential
testing: W. M. McKeeman, "Differential Testing for Software", Digital
Technical Journal 10(1), 1998).
"""

import heapq
import itertools
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_simulator
from redapt.engine import ContractViolationError
from redapt.hrcs import (
    DIRECTIONS, ScenarioConfig, SensorFault, recurrence, run_scenario, runner, simulator,
    trace_to_csv, vehicles_to_json,
)
from redapt.hrcs.simulator import (
    DETECT, EXIT, PROFILE, SAMPLE, SERVICE, Simulator, random_streams, simulate,
)
from redapt.hrcs.utilities import DomainError

from test_golden_artifacts import load_workloads
from test_simulator import counts_of


def event_loop(cfg, monkeypatch):
    """The reference event loop's whole trace of ``cfg``, and the key of
    each event, samples included, in the order it ran."""
    ran = []
    record = reference_simulator.Simulator._record_sample

    def pop(heap):
        entry = heapq.heappop(heap)
        ran.append(entry[:4])
        return entry

    def sample(sim, time):
        ran.append(sim._sample_at + (0,))  # a sample's key, with the id every other kind has
        record(sim, time)

    with monkeypatch.context() as patched:
        patched.setattr(reference_simulator, "heappop", pop)
        patched.setattr(reference_simulator.Simulator, "_record_sample", sample)
        sim = reference_simulator.Simulator(cfg)
        sim.run_to_end()
    return sim.trace(), ran


def model_run(cfg, monkeypatch):
    """``simulate(cfg, record_rows=False)``, with no ``Simulator`` to build."""

    def no_simulator(*args, **kwargs):
        raise AssertionError("a model run built a Simulator")

    with monkeypatch.context() as patched:
        patched.setattr(simulator, "Simulator", no_simulator)
        return simulate(cfg, record_rows=False)


def assert_same_trace(live, reference):
    assert live == reference
    assert trace_to_csv(live) == trace_to_csv(reference)
    assert vehicles_to_json(live) == vehicles_to_json(reference)


def tie_prone(**overrides):
    return ScenarioConfig(**{"lambda_north": 30.0, "lambda_south": 24.0, "duration_min": 10.0,
                             "seed": 7, **overrides})


# one small run for each kind of tie between events scheduled at one clock
# that the bundled scenarios, the soak runs and the tests' tie-prone runs hold
TIES = {
    # one discharge a second: a queued vehicle's service is scheduled by the
    # pass a second before, as the 1 Hz sample on its instant is
    "a service before the sample on its instant": (
        SERVICE, SAMPLE, tie_prone(discharge_rate=1.0, sample_interval_s=1.0)),
    # 100 s from the gate to the exit: a pass on a sample instant schedules
    # its exit at the next one, as that sample instant schedules its sample
    "a sample before an exit scheduled at its clock": (
        SAMPLE, EXIT, tie_prone(discharge_rate=1.0, sample_interval_s=100.0,
                                train_pass_time_s=94.0)),
    # the first detection and the profile are both scheduled as the run starts
    "the first detection before a profile step on its instant": (
        DETECT, PROFILE, tie_prone(lambda_north=20.0, lambda_south=16.0, seed=3,
                                   t_close_s=2.0, t_open_s=6.0,
                                   illuminance_profile=((0.0, 10.0), (290.0, 100.0)))),
}


@pytest.mark.parametrize("name", list(TIES))
def test_a_tie_runs_in_the_stated_order_and_the_recurrence_agrees(name, monkeypatch):
    first, second, cfg = TIES[name]
    trace, ran = event_loop(cfg, monkeypatch)
    assert ran == sorted(ran)  # every event, samples too, in key order
    assert len(set(ran)) == len(ran)
    tied = defaultdict(list)  # (time, clock) -> kinds, in the order they ran
    for time, clock, kind, _ in ran:
        tied[time, clock].append(kind)
    assert any(first in kinds and second in kinds for kinds in tied.values())
    assert first < second
    assert model_run(cfg, monkeypatch) == counts_of(trace)
    assert_same_trace(simulate(cfg), trace)


@pytest.mark.parametrize("name", list(TIES))
def test_a_model_run_counts_its_sample_instants_in_blocks(name, monkeypatch):
    # blocks of 7 instants: a block's first instant counts as scheduled at
    # the last of the block before, and each block counts what ran before
    # it; whole-second gaps put arrivals on the instants too
    cfg = TIES[name][2]
    monkeypatch.setattr(reference_simulator, "random_streams", whole_second_streams)
    monkeypatch.setattr(recurrence, "random_streams", whole_second_streams)
    trace, _ = event_loop(cfg, monkeypatch)
    monkeypatch.setattr(recurrence, "_SAMPLE_BLOCK", 7)
    blocks, occupancies = [], recurrence._occupancies

    def kept(*args):
        for block in occupancies(*args):
            blocks.append(block)
            yield block

    monkeypatch.setattr(recurrence, "_occupancies", kept)
    assert model_run(cfg, monkeypatch) == counts_of(trace)
    assert np.concatenate(blocks).tolist() == [row.n for row in trace.rows]


def soak_run_pushes(module, spec, monkeypatch):
    """A 48 h soak run (engine actions, sensor faults and swaps, dark
    episodes) by the ``Simulator`` of ``module``: its vehicles, and how many
    heap entries it pushed, no two with one key."""
    scenario = ScenarioConfig.from_dict(load_workloads().soak_scenario(1, 48))
    keys, clock, pushed = set(), None, 0

    def push(heap, entry):
        nonlocal keys, clock, pushed
        if entry[1] != clock:  # pushed at a later clock: a key unlike any before
            keys, clock = set(), entry[1]
        assert entry[:4] not in keys, entry[:4]
        keys.add(entry[:4])
        pushed += 1
        heapq.heappush(heap, entry)

    monkeypatch.setattr(module, "heappush", push)
    monkeypatch.setattr(runner, "Simulator", module.Simulator)
    result = run_scenario(spec, scenario)
    return sum(result.trace.entered.values()), pushed


def test_no_two_events_of_a_soak_run_share_a_key(bundled_spec, monkeypatch):
    # a key is the event's own, so no handler or payload is ever compared;
    # in the event loop every vehicle makes at least three events
    vehicles, pushed = soak_run_pushes(reference_simulator, bundled_spec, monkeypatch)
    assert pushed > 3 * vehicles


def test_a_live_run_keeps_no_vehicle_on_its_heap(bundled_spec, monkeypatch):
    # only the train chain, the gate, profile steps and faults are heap
    # entries: a vehicle event back on the heap would push thousands
    vehicles, pushed = soak_run_pushes(simulator, bundled_spec, monkeypatch)
    assert 0 < pushed < vehicles / 10


def whole_seconds(low, high):
    return st.integers(low, high).map(float)


class WholeSecondGaps:
    """A run's generator with each arrival gap rounded up to a whole second,
    so that arrivals, reaches and passes fall on one instant with gate
    events, samples and each other."""

    def __init__(self, rng):
        self.rng = rng

    def exponential(self, scale, size):
        return np.ceil(self.rng.exponential(scale, size))

    def normal(self, loc, scale):
        return self.rng.normal(loc, scale)


def whole_second_streams(seed):
    return [WholeSecondGaps(rng) for rng in random_streams(seed)]


@st.composite
def scenarios(draw):
    """Scenarios prone to ties: whole-second train timings, profile steps
    on detection instants, discharges, sample intervals and travel times
    that put passes, exits and samples on one instant, and sensors failed
    or made noisy on whole seconds."""
    dispatch_min = draw(st.integers(1, 8))
    warn = draw(whole_seconds(0, 20))
    dark = draw(st.booleans())
    duration_min = draw(st.sampled_from([20, 10, 30, 2]))
    detections = [k * dispatch_min * 60.0 - warn for k in range(1, duration_min // dispatch_min + 2)]
    steps = draw(st.lists(st.tuples(
        st.one_of(st.sampled_from(detections), whole_seconds(1, duration_min * 60)),
        st.sampled_from([5.0, 100.0]),
    ), max_size=3))
    faults = draw(st.lists(st.builds(
        SensorFault, st.sampled_from(["f_1", "f_2", "e_1"]), st.sampled_from(["fail", "noise"]),
        whole_seconds(0, duration_min * 60), st.sampled_from([0.0, 3.0]),
    ), max_size=3))
    return ScenarioConfig(
        lambda_north=draw(st.one_of(st.sampled_from([10.0, 30.0, 0.0]), st.floats(0.0, 40.0))),
        lambda_south=draw(st.one_of(st.sampled_from([10.0, 30.0, 0.0]), st.floats(0.0, 40.0))),
        # 2, 4, 6, 50 or 100 s from the entry to the gate and from the gate to the exit
        highway_length_m=draw(st.sampled_from([60.0, 120.0, 180.0, 1500.0, 3000.0])),
        t_dispatch_min=float(dispatch_min),
        t_close_s=draw(st.sampled_from([1.5, 2.0, 4.0])) if dark else 4.0,
        t_open_s=draw(st.sampled_from([4.0, 5.0, 6.5])) if dark else 4.0,
        train_pass_time_s=draw(whole_seconds(0, 120)),
        warn_lead_time_s=warn,
        discharge_rate=draw(st.one_of(st.sampled_from([0.25, 0.5, 1.0]), st.floats(0.2, 2.0))),
        duration_min=float(duration_min),
        seed=draw(st.integers(0, 10_000)),
        illuminance_profile=((0.0, 10.0 if dark else 100.0), *steps),
        sensor_faults=tuple(faults),
        p_time_threshold_s=draw(st.sampled_from([60.0, 300.0, 400.0])),
        sample_interval_s=draw(st.sampled_from([1.0, 6.0, 100.0, 2.5])),
        flow_sensor_count=2,
        lux_sensor_count=1,
    )


def valid(cfg):
    try:
        cfg.validate()
    except DomainError:
        return False  # a closure as long as the dispatch interval
    return True


@pytest.mark.parametrize("whole_gaps", [False, True])
@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(cfg=scenarios())
def test_a_model_run_counts_as_the_event_loop(cfg, whole_gaps):
    assume(valid(cfg))
    with pytest.MonkeyPatch.context() as monkeypatch:
        if whole_gaps:
            monkeypatch.setattr(reference_simulator, "random_streams", whole_second_streams)
            monkeypatch.setattr(recurrence, "random_streams", whole_second_streams)
        trace, _ = event_loop(cfg, monkeypatch)
        counts = model_run(cfg, monkeypatch)
    assert (counts.n_peak, counts.entered, counts.exited, counts.fast) == (
        trace.n_peak, trace.entered, trace.exited, trace.fast)
    # and each vehicle that exited did so when the recurrence has it exit
    half = (cfg.highway_length_m / 2.0) / cfg.free_speed_ms
    gate = recurrence.gate_events(cfg)
    for direction in DIRECTIONS:
        vehicles = [v for v in trace.vehicles if v.direction == direction]
        passed, _ = recurrence.passes([v.entry_time for v in vehicles], half,
                                      1.0 / cfg.discharge_rate, gate)
        exits = [v.exit_time for v in vehicles if v.exit_time is not None]
        assert [t + half for t in passed[:len(exits)]] == exits, direction


# what the engine may do between two steps: retime, some values rejected
# (0.5 min trains overlap a closure; a t_dispatch of 0 or less, a t_close of
# 0.5 and a t_open of 8 are refused), or swap a sensor
ACTIONS = st.one_of(
    st.tuples(st.just("t_dispatch"), st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 6.0])),
    st.tuples(st.just("t_close"), st.sampled_from([0.5, 1.5, 2.0, 4.0])),
    st.tuples(st.just("t_open"), st.sampled_from([4.0, 5.5, 6.5, 8.0])),
    st.tuples(st.just("bind"), st.sampled_from(["f_1", "f_2", "e_1"])),
)


def act(sim, name, value, spares):
    """Apply one action; what it raised, if anything."""
    try:
        if name == "bind":
            sim.bind_instance(value, f"spare_{next(spares)}")
        else:
            sim.set_parameter(name, value)
    except DomainError as exc:
        return str(exc)
    return None


def probe(sim):
    """What a step leaves to read: the clock, the last sample instant, the
    gate, the counts and the row recorded at the clock, if any."""
    try:
        row = sim.snapshot()
    except ContractViolationError:
        row = None
    return (sim.now(), sim.sampled_at, sim.gate_open, sim.occupancy(), sim.n_peak,
            sim.entered, sim.exited, sim.fast, sim.parameters(), row)


@pytest.mark.parametrize("whole_gaps", [False, True])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(cfg=scenarios(), data=st.data())
def test_a_live_run_is_the_event_loops(cfg, whole_gaps, data):
    assume(valid(cfg))
    duration_s = cfg.duration_s
    interval = cfg.sample_interval_s
    # steps that end on sample instants, between them and on half seconds;
    # unsorted, some go back, which runs nothing
    ends = data.draw(st.lists(st.one_of(
        st.integers(0, int(duration_s / interval)).map(lambda k: k * interval),
        whole_seconds(0, int(duration_s)),
        st.integers(0, 2 * int(duration_s)).map(lambda k: k / 2),
    ), max_size=12))
    if data.draw(st.booleans()):
        ends.sort()
    actions = data.draw(st.lists(st.lists(ACTIONS, max_size=3), min_size=len(ends),
                                 max_size=len(ends)))
    # a step read or not: the counts are brought to the clock only when read
    looks = data.draw(st.lists(st.booleans(), min_size=len(ends), max_size=len(ends)))
    with pytest.MonkeyPatch.context() as monkeypatch:
        if whole_gaps:
            monkeypatch.setattr(reference_simulator, "random_streams", whole_second_streams)
            monkeypatch.setattr(simulator, "random_streams", whole_second_streams)
        live, reference = Simulator(cfg), reference_simulator.Simulator(cfg)
        spares = (itertools.count(90), itertools.count(90))
        for end, step, look in zip(ends, actions, looks):
            live.run_until(end)
            reference.run_until(end)
            if look:
                assert probe(live) == probe(reference)
            for name, value in step:
                assert act(live, name, value, spares[0]) == act(reference, name, value, spares[1])
            if look:
                assert probe(live) == probe(reference)
        live.run_to_end()
        reference.run_to_end()
    assert probe(live) == probe(reference)
    assert_same_trace(live.trace(), reference.trace())
