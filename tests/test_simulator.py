import gc
import hashlib
import json
import math
import weakref
from dataclasses import fields, replace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from redapt.cli import trace_from_csv
from redapt.engine import ContractViolationError
from redapt.hrcs import (
    FLOW_CLASS,
    LUX_CLASS,
    NORTH,
    SOUTH,
    Metrics,
    RowView,
    RunCounts,
    ScenarioConfig,
    SensorFault,
    SimTrace,
    Simulator,
    VehicleRecord,
    VehicleView,
    compute_metrics,
    simulate,
    trace_to_csv,
    vehicles_to_json,
)
from redapt.hrcs import recurrence
from redapt.hrcs.simulator import _MAX_SAMPLE_INSTANTS, _MAX_VEHICLES, _nine_digits
from redapt.hrcs.utilities import DomainError

import reference_simulator


def quick_cfg(**overrides):
    base = dict(
        lambda_north=12.0,
        lambda_south=12.0,
        t_dispatch_min=5.0,
        duration_min=20.0,
        seed=99,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestBasics:
    def test_empty_system_when_no_arrivals(self):
        trace = simulate(quick_cfg(lambda_north=0.0, lambda_south=0.0, duration_min=12.0))
        assert all(row.n == 0 for row in trace.rows)
        metrics = compute_metrics(trace, quick_cfg(duration_min=12.0))
        assert metrics.p_north == 1.0 and metrics.p_south == 1.0

    def test_identical_seeds_are_bit_identical(self):
        cfg = quick_cfg()
        first, second = simulate(cfg), simulate(cfg)
        assert first == second
        assert trace_to_csv(first) == trace_to_csv(second)

    def test_different_seeds_differ(self):
        assert simulate(quick_cfg()) != simulate(quick_cfg(seed=100))

    def test_vehicle_conservation(self):
        cfg = quick_cfg()
        sim = Simulator(cfg)
        sim.run_to_end()
        entered = sum(sim.entered.values())
        exited = sum(sim.exited.values())
        assert entered == exited + sum(v.exit_time is None for v in sim.trace().vehicles)
        assert all(row.n >= 0 for row in sim.trace().rows)
        assert sim.trace().rows[-1].n == entered - exited

    def test_gate_cycle_well_posedness_enforced(self):
        with pytest.raises(DomainError):
            quick_cfg(t_dispatch_min=1.0, train_pass_time_s=110.0).validate()

    @pytest.mark.parametrize(
        "override",
        [
            {"duration_min": math.inf},  # a run that never ends
            {"lambda_north": math.nan},
            {"t_open_s": -math.inf},
            {"illuminance_profile": [[0.0, math.nan]]},
            {"seed": 0.5},
            {"seed": 1e9},
            {"seed": -1},
            {"seed": True},
            {"sensor_faults": [{"slot": "f_99", "mode": "fail", "at_s": 60.0}]},
            {"sensor_faults": [{"slot": "e_4", "mode": "noise", "at_s": 60.0, "sigma": 1.0}]},
            {"sensor_faults": [{"slot": "f_1", "mode": "noise", "at_s": 60.0, "sigma": math.inf}]},
            {"t_close_s": 3.5},  # the profile starts above 20 lx, which pins it at 4 s
            {"flow_window_s": 0},  # the flow gauges would divide by it
            {"standby_per_slot": 1.5},  # the component pool counts spares with it
            {"flow_sensor_count": 2.5},
            {"lux_sensor_count": -3},
            {"sensor_faults": [{"slot": "f_01", "mode": "fail", "at_s": 60.0}]},
            {"sensor_faults": [{"slot": "f_0", "mode": "fail", "at_s": 60.0}]},
            {"sensor_faults": [{"slot": 1, "mode": "fail", "at_s": 60.0}]},
            # the simulator would allocate in proportion to these before the run
            {"lambda_north": 1e12},  # the flow window is pre-filled with its arrivals
            {"flow_window_s": 1e15},
            {"lambda_north": 1e308, "lambda_south": 1e308},  # their sum overflows
            {"flow_sensor_count": 10**8},  # one sensor and one column per slot
            {"lux_sensor_count": 1001},
            {"standby_per_slot": 10**9},  # the pool makes one serial per spare
            # a train would arrive, or clear, before it is detected: the
            # event loop would run events earlier than its clock
            {"warn_lead_time_s": -5.0},
            {"illuminance_profile": [[0.0, 10.0]], "t_close_s": 1.5, "t_open_s": 6.5,
             "train_pass_time_s": -12.0},
        ],
    )
    def test_bad_values_rejected(self, override):
        # only validated: a run is never started on these
        with pytest.raises(DomainError):
            ScenarioConfig.from_dict({"lambda_north": 10.0, "lambda_south": 10.0, **override})

    def test_allocation_bounds_admit_their_limits(self):
        # 50,000 + 50,000 veh/min over a 600 s window is 1,000,000 arrivals
        cfg = ScenarioConfig.from_dict({
            "lambda_north": 50_000.0, "lambda_south": 50_000.0, "flow_sensor_count": 1000,
            "lux_sensor_count": 1000, "standby_per_slot": 100,
        })
        assert cfg.flow_sensor_count == 1000 and cfg.standby_per_slot == 100

    @pytest.mark.parametrize("interval", [0, -1])
    def test_non_positive_sample_interval_rejected(self, interval):
        # a run would re-queue its sample at the same instant forever
        with pytest.raises(DomainError):
            ScenarioConfig.from_dict(
                {"lambda_north": 10.0, "lambda_south": 10.0, "sample_interval_s": interval}
            )

    @pytest.mark.parametrize("interval, admitted", [
        (0.0036, True),  # 60 min in 1,000,000 intervals: the bound itself
        (0.00359, False),
        (1e-20, False),  # past about 1e-4 s the clock would stop moving
    ])
    def test_sample_instants_are_bounded(self, interval, admitted):
        doc = {"lambda_north": 10.0, "lambda_south": 10.0, "sample_interval_s": interval}
        if admitted:
            assert ScenarioConfig.from_dict(doc).sample_interval_s == interval
            return
        with pytest.raises(DomainError, match="sample instants"):
            ScenarioConfig.from_dict(doc)

    def test_bundled_and_soak_scenarios_stay_far_below_the_sample_bound(self):
        import redapt
        from test_golden_artifacts import SOAK, load_workloads

        workloads = load_workloads()
        configs = [
            ScenarioConfig.from_json(redapt.data_path(f"{name}.json").read_text())
            for name in ("experiment1", "experiment2", "nfr_lowlight", "sensor_failure",
                         "sensor_noise")
        ]
        configs += [ScenarioConfig.from_dict(workloads.soak_scenario(seed, hours))
                    for seed in sorted(SOAK) for hours in (48, 192)]
        configs.append(ScenarioConfig.from_dict(workloads.recording_scenario(1)))
        assert max(cfg.duration_s / cfg.sample_interval_s for cfg in configs) == 14_400
        assert 14_400 < _MAX_SAMPLE_INSTANTS / 50


    @pytest.mark.parametrize("rates, duration_min, admitted", [
        # 60 vehicles a minute, one a second, for 10,000,000 s: the bound itself
        ((30.0, 30.0), 1e7 / 60, True),
        ((30.0, 30.0), math.nextafter(1e7 / 60, math.inf), False),
        # about 3.3e10 vehicles at 15 and 18 a minute, which would take days to run
        ((15.0, 18.0), 1e9, False),
    ])
    def test_expected_vehicles_are_bounded(self, rates, duration_min, admitted):
        # only validated: a run is never started on these
        doc = {"lambda_north": rates[0], "lambda_south": rates[1], "duration_min": duration_min,
               "sample_interval_s": 1e6}
        if admitted:
            assert ScenarioConfig.from_dict(doc).duration_s == _MAX_VEHICLES
            return
        with pytest.raises(DomainError, match="vehicles expected over the run"):
            ScenarioConfig.from_dict(doc)

    def test_bundled_and_soak_scenarios_stay_far_below_the_vehicle_bound(self):
        import redapt
        from test_golden_artifacts import SOAK, load_workloads

        workloads = load_workloads()
        docs = [json.loads(redapt.data_path(f"{name}.json").read_text())
                for name in ("experiment1", "experiment2", "nfr_lowlight", "sensor_failure",
                             "sensor_noise")]
        docs += [workloads.soak_scenario(seed, 48) for seed in sorted(SOAK)]
        docs.append(workloads.recording_scenario(1))
        month = ScenarioConfig.from_dict(workloads.soak_scenario(1, 30 * 24))

        def expected(cfg):
            return (cfg.lambda_north + cfg.lambda_south) / 60.0 * cfg.duration_s

        assert max(expected(ScenarioConfig.from_dict(doc)) for doc in docs) < 100_000
        assert expected(month) == pytest.approx(1.43e6, rel=0.01)
        assert expected(month) < _MAX_VEHICLES / 5


class TestSensorNames:
    def test_a_slot_is_filled_exactly_when_it_is_listed(self):
        names = quick_cfg(flow_sensor_count=12, lux_sensor_count=0).sensor_names()
        listed = {slot for _, slot, _ in names.slots()}
        assert len(listed) == 12 and "f_12" in listed and "f_9" in listed
        candidates = {f"{p}_{i}" for p in "fex" for i in range(-2, 130)}
        candidates |= {"f_01", "f_", "f", "_1", "f_1_", "F_1", "f_ 1", "f_\u0661", "f_1e1"}
        assert {slot for slot in candidates if names.fills(slot)} == listed

    def test_instances_have_two_digits_at_least(self):
        names = quick_cfg().sensor_names()
        assert names.instance(FLOW_CLASS, 4) == "ir_04"
        assert names.instance(LUX_CLASS, 123) == "lux_123"


class TestEventLoop:
    def test_arrival_gaps_are_one_scalar_draw_per_arrival(self):
        import numpy as np

        cfg = quick_cfg(lambda_north=12.0, lambda_south=20.0, duration_min=60.0)
        trace = simulate(cfg)
        streams = np.random.SeedSequence(cfg.seed).spawn(3)
        for stream, direction, rate in ((0, NORTH, 12.0), (1, SOUTH, 20.0)):
            rng = np.random.Generator(np.random.PCG64(streams[stream]))
            expected, t = [], 0.0
            while True:
                t += float(rng.exponential(1.0 / (rate / 60.0)))  # the mean gap in s
                if t > cfg.duration_s:
                    break
                expected.append(t)
            entries = sorted(v.entry_time for v in trace.vehicles if v.direction == direction)
            assert len(entries) > 600  # more than two blocks of gaps
            assert entries == expected

    def test_a_direction_without_arrivals_schedules_none(self):
        trace = simulate(quick_cfg(lambda_north=0.0, duration_min=10.0))
        assert trace.vehicles and all(v.direction == SOUTH for v in trace.vehicles)

    def test_finished_simulator_is_freed_without_the_collector(self):
        cfg = quick_cfg(
            duration_min=10.0,
            illuminance_profile=((0.0, 100.0), (200.0, 10.0)),
            sensor_faults=(SensorFault("f_2", "noise", 100.0, sigma=2.0),),
        )
        gc.disable()
        try:
            sim = Simulator(cfg)
            sim.run_to_end()
            freed = weakref.ref(sim)
            trace = sim.trace()
            del sim
            assert freed() is None
            assert trace.rows
        finally:
            gc.enable()

    def test_occupancy_is_entered_less_exited_across_a_closure(self):
        sim = Simulator(quick_cfg(lambda_north=20.0, lambda_south=20.0, duration_min=8.0))
        closed = False
        for t in range(1, 481):
            sim.run_until(float(t))
            closed |= not sim.gate_open
            assert sim.occupancy() == sum(sim.entered.values()) - sum(sim.exited.values())
        assert closed and sum(sim.exited.values()) > 0

    def test_healed_sensors_are_gauged_as_one_by_one(self):
        cfg = quick_cfg(sensor_faults=(
            SensorFault("f_2", "fail", 100.0), SensorFault("e_1", "fail", 100.0),
        ))
        sim = Simulator(cfg)

        def one_by_one(flow):
            return tuple(
                sim._gauge(s, flow if s.class_name == FLOW_CLASS else sim.illuminance)
                for s in sim._sensors
            )

        sim.run_until(50.0)
        flow = sim.snapshot()["F"]
        assert sim._gauges(flow) == one_by_one(flow) and None not in sim._gauges(flow)
        sim.run_until(200.0)
        flow = sim.snapshot()["F"]
        assert sim._gauges(flow) == one_by_one(flow) and sim._gauges(flow).count(None) == 2
        sim.bind_instance("f_2", "ir_12")
        assert sim._gauges(flow) == one_by_one(flow) and sim._gauges(flow).count(None) == 1
        sim.bind_instance("e_1", "lux_11")
        assert sim._gauges(flow) == one_by_one(flow) and None not in sim._gauges(flow)
        assert sim._all_healthy  # every sensor healed: gauged without a per-sensor pass

    @pytest.mark.parametrize("interval, trace_sha256, n_peak", [
        (1.0, "3dfc822e9df885615b3dbfd680fc4c186a2203d7d683a0ca372407b247e7e97e", 230),
        # a gate closes 4 s after its train is detected, on a sample instant
        # that was scheduled 6 s before: the sample still sees the gate open
        (6.0, "1047dfed17051ff9d4a2710600568fd30513796c7ba94fb0624014a6c27c2414", 227),
    ])
    def test_events_on_sample_instants_keep_their_order(self, interval, trace_sha256, n_peak):
        # with one discharge per second and 100 s per half of the crossing,
        # every queued vehicle exits on a whole second, often a sample instant
        cfg = quick_cfg(
            lambda_north=30.0, lambda_south=24.0, duration_min=30.0, seed=7,
            discharge_rate=1.0, sample_interval_s=interval,
        )
        trace = simulate(cfg)
        on_samples = [v for v in trace.vehicles if v.exit_time is not None and v.exit_time % 1 == 0]
        assert len(on_samples) > 300

        def digest(text):
            return hashlib.sha256(text.encode()).hexdigest()

        assert digest(trace_to_csv(trace)) == trace_sha256
        assert digest(vehicles_to_json(trace)) == (
            "d3388c5365435bb75c6366c7d60177de9ed3b55ff29b36a494627fd633afc202"
        )
        assert trace.n_peak == n_peak
        assert simulate(cfg, record_rows=False).n_peak == max(row.n for row in trace.rows)

    @pytest.mark.parametrize("t_set", [None, 412.5, 413.5])
    def test_a_run_in_uneven_steps_matches_one_run(self, t_set):
        cfg = quick_cfg(
            lambda_north=20.0, lambda_south=16.0, sample_interval_s=2.5,
            sensor_faults=(SensorFault("f_3", "noise", 200.0, sigma=2.0),),
        )

        def finish(sim):
            trace = sim.trace()
            return trace.rows, trace.vehicles, trace.n_peak, trace.entered, trace.exited, trace.fast

        whole = Simulator(cfg)
        if t_set is not None:
            whole.run_until(t_set)
            whole.set_parameter("t_dispatch", 4.0)
        whole.run_to_end()
        unchanged = simulate(cfg)
        assert (whole.trace() == unchanged) == (t_set is None)

        steps = Simulator(cfg)
        # steps ending on a sample instant (a multiple of 2.5 s), between two
        # of them, and one that does not move the clock
        for t in (0.0, 0.0, 7.5, 8.1, 37.0, 37.5, 120.0, 199.9, 200.0, 301.2, t_set or 405.0):
            steps.run_until(t)
        if t_set is not None:
            # a step that ends on a sample instant takes its sample first
            assert steps.trace().rows[-1].time == 412.5 and steps.trace().rows[-1].t_dispatch == 5.0
            steps.set_parameter("t_dispatch", 4.0)
        for t in (415.0, 600.0, 602.4, 900.0, 1000.3, 1200.0, 2000.0):
            steps.run_until(t)
        assert steps.clock == whole.clock == cfg.duration_s
        assert finish(steps) == finish(whole)


class TestFluidStability:
    def test_experiment1_is_dischargeable_and_clean(self, experiment1):
        # fluid bound: during one dispatch period the queue accrued over the
        # closure must drain inside the open window for both directions
        closed = (
            experiment1.warn_lead_time_s
            - experiment1.t_close_s
            + experiment1.train_pass_time_s
            + experiment1.t_open_s
        )
        period = experiment1.t_dispatch_min * 60.0
        for rate_per_min in (experiment1.lambda_north, experiment1.lambda_south):
            rate = rate_per_min / 60.0
            drain = experiment1.discharge_rate - rate
            assert drain > 0
            assert rate * closed / drain < period - closed
        metrics = compute_metrics(simulate(experiment1), experiment1)
        assert metrics.p_north >= 0.5 and metrics.p_south >= 0.5
        assert metrics.n_peak < 350


class TestSnapshot:
    @pytest.mark.parametrize("until", [
        None,  # before the first sample
        90.0,  # between the samples at 60 and 120 s
    ])
    def test_snapshot_raises_where_no_row_was_recorded(self, until):
        sim = Simulator(quick_cfg(sample_interval_s=60.0))
        if until is not None:
            sim.run_until(until)
        with pytest.raises(ContractViolationError, match=f"recorded no row at {sim.clock!r} s"):
            sim.snapshot()


class TestSensors:
    def test_all_healthy_sensors_agree(self):
        cfg = quick_cfg()
        sim = Simulator(cfg)
        sim.run_until(300.0)
        snapshot = sim.snapshot()
        values = [snapshot[slot] for slot, _ in sim.instances(FLOW_CLASS)]
        assert len(values) == cfg.flow_sensor_count
        assert len(set(values)) == 1
        assert values[0] == pytest.approx(24.0, abs=8.0)

    def test_sample_sensors_covers_every_slot(self, bundled_spec):
        from redapt.engine import EngineConfig, monitor_step, resolve

        cfg = quick_cfg(sensor_faults=(SensorFault("f_3", "fail", 100.0),))
        sim = Simulator(cfg)
        sim.run_until(200.0)
        state = monitor_step(resolve(bundled_spec, EngineConfig()), sim)
        by_slot = {slot: i for members in state.instances.values() for slot, i in members.items()}
        assert len(by_slot) == cfg.flow_sensor_count + cfg.lux_sensor_count
        assert by_slot["f_3"].value is None
        assert by_slot["f_4"].value is not None
        assert by_slot["e_1"].value == 100.0
        assert by_slot["f_4"].id == "ir_04"

    def test_failed_sensor_reads_absent(self):
        cfg = quick_cfg(sensor_faults=(SensorFault("f_3", "fail", 100.0),))
        sim = Simulator(cfg)
        sim.run_until(200.0)
        assert sim.snapshot()["f_3"] is None
        assert sim.snapshot()["f_4"] is not None

    def test_noisy_sensor_exceeds_noise_threshold(self):
        cfg = quick_cfg(sensor_faults=(SensorFault("f_5", "noise", 100.0, sigma=10.0),))
        sim = Simulator(cfg)
        window = []
        for t in range(120, 420, 60):
            sim.run_until(float(t))
            window.append(sim.snapshot()["f_5"])
        mean = sum(window) / len(window)
        sample_std = math.sqrt(sum((v - mean) ** 2 for v in window) / (len(window) - 1))
        assert sample_std > 3.0  # three times the 1.0 nominal sigma

    def test_noise_is_reproducible_for_a_seed(self):
        cfg = quick_cfg(sensor_faults=(SensorFault("f_5", "noise", 100.0, sigma=10.0),))

        def observed():
            sim = Simulator(cfg)
            sim.run_until(150.0)
            return sim.snapshot()["f_5"]

        assert observed() == observed()

    def test_replacement_restores_readings(self):
        cfg = quick_cfg(sensor_faults=(SensorFault("f_3", "fail", 100.0),))
        sim = Simulator(cfg)
        sim.run_until(200.0)
        assert sim.snapshot()["f_3"] is None
        sim.bind_instance("f_3", "ir_13")
        assert sim.snapshot()["f_3"] is None  # this instant's row was recorded before the swap
        sim.run_until(201.0)
        assert sim.snapshot()["f_3"] is not None
        assert sim._sensor("f_3").instance_id == "ir_13"

    def test_binding_returns_the_instance_it_replaced(self):
        sim = Simulator(quick_cfg())
        bound = dict(sim.instances(FLOW_CLASS))["f_3"]
        assert sim.bind_instance("f_3", "ir_13") == bound
        assert sim.bind_instance("f_3", "ir_23") == "ir_13"
        assert dict(sim.instances(FLOW_CLASS))["f_3"] == "ir_23"


class TestTables:
    """Each sensor slot and each vehicle is kept once, in one table."""

    def test_vehicles_are_in_arrival_order(self):
        trace = simulate(quick_cfg())
        entries = [v.entry_time for v in trace.vehicles]
        assert len(entries) == sum(trace.entered.values())
        assert entries == sorted(entries)
        on_highway = sum(v.exit_time is None for v in trace.vehicles)
        assert on_highway == sum(trace.entered.values()) - sum(trace.exited.values()) > 0

    def test_instances_list_the_sensor_columns_in_order(self):
        sim = Simulator(quick_cfg(sensor_faults=(SensorFault("e_2", "fail", 60.0),)))
        columns = sim.columns[sim.columns.index("F") + 1 : sim.columns.index("p_north")]

        def listed():
            return tuple(slot for c in (FLOW_CLASS, LUX_CLASS) for slot, _ in sim.instances(c))

        assert listed() == columns and len(columns) == 13
        flows, lux = sim.instances(FLOW_CLASS), dict(sim.instances(LUX_CLASS))
        sim.run_until(120.0)
        sim.bind_instance("e_2", "lux_12")
        assert listed() == columns
        assert sim.instances(FLOW_CLASS) == flows
        assert dict(sim.instances(LUX_CLASS)) == {**lux, "e_2": "lux_12"}
        assert sim.instances("I_other") == []


class TestEffectors:
    def test_dispatch_change_moves_next_train(self):
        sim = Simulator(quick_cfg(lambda_north=2.0, lambda_south=2.0, duration_min=30.0))
        sim.run_until(320.0)  # first train (at 300 s) has passed
        sim.set_parameter("t_dispatch", 6.0)
        sim.run_to_end()
        closures = _closure_starts(sim.trace())
        # detection leads arrival by 10 s and the gate closes 4 s later
        first, second = closures[0], closures[1]
        assert first == pytest.approx(300.0 - 10.0 + 4.0, abs=1.0)
        assert second == pytest.approx(300.0 + 360.0 - 10.0 + 4.0, abs=1.0)

    def test_gate_retiming_applies_to_next_cycle(self):
        cfg = quick_cfg(illuminance_profile=((0.0, 10.0),))
        sim = Simulator(cfg)
        sim.run_until(60.0)
        sim.set_parameter("t_close", 1.5)
        sim.set_parameter("t_open", 6.5)
        assert sim.t_close_s == 1.5 and sim.t_open_s == 6.5
        assert sim.utilities().u_safety == pytest.approx(5 / 6)

    def test_bright_regime_rejects_retiming(self):
        sim = Simulator(quick_cfg())
        with pytest.raises(DomainError):
            sim.set_parameter("t_close", 2.0)

    def test_out_of_domain_rejected(self):
        sim = Simulator(quick_cfg(illuminance_profile=((0.0, 10.0),)))
        with pytest.raises(DomainError):
            sim.set_parameter("t_open", 7.0)
        with pytest.raises(DomainError):
            sim.set_parameter("nonsense", 1.0)

    def test_bright_reset_restores_optimum(self):
        cfg = quick_cfg(illuminance_profile=((0.0, 10.0), (300.0, 80.0)))
        sim = Simulator(cfg)
        sim.run_until(60.0)
        sim.set_parameter("t_close", 1.5)
        sim.run_until(301.0)
        assert sim.t_close_s == 4.0 and sim.t_open_s == 4.0


def _closure_starts(trace):
    starts = []
    previous = "open"
    for row in trace.rows:
        if row.gate == "closed" and previous == "open":
            starts.append(row.time)
        previous = row.gate
    return starts


def view_of(*records):
    """A view holding ``records``, in the order given."""
    return reference_simulator.view_of([v.entry_time for v in records],
                                       [v.exit_time for v in records],
                                       [v.direction for v in records])


def counted_trace(entered=(0, 0), exited=(0, 0), fast=(0, 0), n_peak=0, vehicles=()):
    """A trace without rows holding the given (north, south) counts."""

    def by_direction(pair):
        return dict(zip((NORTH, SOUTH), pair))

    return SimTrace(
        rows=RowView.empty(), vehicles=view_of(*vehicles), columns=(), n_peak=n_peak,
        entered=by_direction(entered), exited=by_direction(exited), fast=by_direction(fast),
    )


def reference_metrics(trace, cfg):
    """The metrics counted from the vehicle records and rows of a full run:
    a vehicle is fast when its exit less its entry is strictly under the
    threshold."""
    p = {}
    for direction in (NORTH, SOUTH):
        completed = [
            v for v in trace.vehicles if v.direction == direction and v.exit_time is not None
        ]
        if not completed:
            p[direction] = 1.0  # nothing finished, nothing late
            continue
        fast = sum(
            1 for v in completed if v.exit_time - v.entry_time < cfg.p_time_threshold_s
        )
        p[direction] = fast / len(completed)
    entered = {d: sum(1 for v in trace.vehicles if v.direction == d) for d in (NORTH, SOUTH)}
    return Metrics(
        p_north=p[NORTH],
        p_south=p[SOUTH],
        n_peak=max((row.n for row in trace.rows), default=0),
        mean_f_north=entered[NORTH] / cfg.duration_min,
        mean_f_south=entered[SOUTH] / cfg.duration_min,
    )


class TestMetrics:
    def test_percentage_counts_strictly_under_threshold(self):
        # four northbound exits after 100, 200, 500 and 600 s; two under 400 s
        trace = counted_trace(entered=(4, 0), exited=(4, 0), fast=(2, 0))
        metrics = compute_metrics(trace, quick_cfg())
        assert metrics.p_north == 0.5
        assert metrics.p_south == 1.0  # no southbound completions

    def test_no_completions_convention(self):
        pending = counted_trace(entered=(0, 1))
        metrics = compute_metrics(pending, quick_cfg())
        assert metrics.p_south == 1.0

    @pytest.mark.parametrize(
        "name", ["experiment1", "experiment2", "nfr_lowlight", "sensor_failure", "sensor_noise"]
    )
    def test_counts_match_the_records_of_a_bundled_run(self, name):
        import redapt

        cfg = ScenarioConfig.from_json(redapt.data_path(f"{name}.json").read_text())
        trace = simulate(cfg)
        assert compute_metrics(trace, cfg) == reference_metrics(trace, cfg)

    @pytest.mark.parametrize("threshold", [300.0, 400.0])
    @pytest.mark.parametrize("seed", [1, 5, 99])
    def test_counts_match_the_records_at_either_threshold(self, threshold, seed):
        # long closures, so crossing times spread on both sides of either threshold
        cfg = quick_cfg(lambda_north=25.0, lambda_south=20.0, train_pass_time_s=150.0,
                        duration_min=60.0, p_time_threshold_s=threshold, seed=seed)
        trace = simulate(cfg)
        metrics = compute_metrics(trace, cfg)
        assert metrics == reference_metrics(trace, cfg)
        assert 0.0 < metrics.p_north < 1.0 and 0.0 < metrics.p_south < 1.0


class TestTraceExport:
    def test_csv_reimports_for_verification(self):
        cfg = quick_cfg(duration_min=5.0)
        text = trace_to_csv(simulate(cfg))
        trace = trace_from_csv(text)
        assert len(trace.states) == 301
        first = trace.states[0]
        assert first.values["n"] == 0.0
        assert "U_safety" in first.values and "p" in first.values

    def test_csv_floats_have_nine_significant_digits(self):
        cfg = quick_cfg(duration_min=2.0)
        header, first_row = trace_to_csv(simulate(cfg)).splitlines()[:2]
        p_index = header.split(",").index("p_north")
        cell = first_row.split(",")[p_index]
        assert len(cell.replace(".", "").replace("-", "").lstrip("0")) <= 9


class TestModelRuns:
    """A run that records no rows scores exactly like a full run."""

    @pytest.mark.parametrize(
        "name, t_dispatch",
        [("experiment2", 4.0), ("experiment2", 5.0), ("experiment2", 6.0),
         ("experiment2", 7.0), ("experiment1", None)],
    )
    def test_counts_match_full_run_metrics(self, name, t_dispatch):
        import redapt

        cfg = ScenarioConfig.from_json(redapt.data_path(f"{name}.json").read_text())
        if t_dispatch is not None:
            cfg = replace(cfg, t_dispatch_min=t_dispatch)
        full = compute_metrics(simulate(cfg), cfg)
        counted = simulate(cfg, record_rows=False)
        assert type(counted) is RunCounts
        assert compute_metrics(counted, cfg) == full

    def test_running_peak_is_the_row_maximum(self):
        sim = Simulator(quick_cfg())
        sim.run_to_end()
        assert sim.n_peak == max(row.n for row in sim.trace().rows) > 0


def bundled(name, **overrides):
    import redapt

    return replace(ScenarioConfig.from_json(redapt.data_path(f"{name}.json").read_text()), **overrides)


def event_loop_trace(cfg, until=None):
    """The reference event loop's trace, run to ``until`` or to the end."""
    sim = reference_simulator.Simulator(cfg)
    sim.run_until(cfg.duration_s if until is None else until)
    return sim.trace()


def counts_of(trace):
    """The counts of a trace, as a model run returns them."""
    return RunCounts(**{f.name: getattr(trace, f.name) for f in fields(RunCounts)})


# one discharge per second puts every queued vehicle's exit on a whole
# second, so on 1 Hz and 6 s sample instants; with 94 s trains a gate opens
# at 398 s and a queued vehicle passes at 400 s, so at 100 s sampling its
# exit at 500 s was scheduled on the sample instant before it
TIE_PRONE = dict(lambda_north=30.0, lambda_south=24.0, duration_min=30.0, seed=7)
# a dark start with its own gate timing; bright light pins both intervals at
# 4 s from its first change on
DARK = dict(lambda_north=20.0, lambda_south=16.0, duration_min=40.0, seed=3,
            t_close_s=2.0, t_open_s=6.0)

RECURRENCE_CASES = {
    **{f"experiment2 at {t:g}": (lambda t=t: bundled("experiment2", t_dispatch_min=t))
       for t in (4.0, 5.0, 6.0, 7.0, 19.0)},
    "experiment1": lambda: bundled("experiment1"),
    "experiment1 at 3": lambda: bundled("experiment1", t_dispatch_min=3.0),
    "nfr_lowlight": lambda: bundled("nfr_lowlight"),
    "nfr_lowlight at 2": lambda: bundled("nfr_lowlight", t_dispatch_min=2.0),
    "sensor_failure": lambda: bundled("sensor_failure"),
    "sensor_noise": lambda: bundled("sensor_noise"),
    # at these rates 60 / rate is not 1 / (rate / 60), the event loop's mean gap
    "11 and 22 vehicles a minute": lambda: quick_cfg(lambda_north=11.0, lambda_south=22.0),
    **{f"discharge {rate:g}, sampling {interval:g} s": (
        lambda rate=rate, interval=interval: quick_cfg(
            **TIE_PRONE, discharge_rate=rate, sample_interval_s=interval))
       for rate in (0.5, 1.0) for interval in (1.0, 6.0)},
    "a pass scheduled on the sample instant before its exit": lambda: quick_cfg(
        **TIE_PRONE, discharge_rate=1.0, sample_interval_s=100.0, train_pass_time_s=94.0),
    "dark episodes": lambda: quick_cfg(**DARK, illuminance_profile=(
        (0.0, 10.0), (600.0, 100.0), (1200.0, 5.0), (1500.0, 100.0))),
    # the first detection is scheduled before the profile's changes, and runs first
    "light on the first detection": lambda: quick_cfg(
        **DARK, illuminance_profile=((0.0, 10.0), (290.0, 100.0))),
    # every later one is scheduled after them, and runs after
    "light on the second detection": lambda: quick_cfg(
        **DARK, illuminance_profile=((0.0, 10.0), (590.0, 100.0))),
}


class TestQueueRecurrence:
    """A run without rows is computed by queue recurrence, and gives the
    reference event loop's counts field by field; a live run gives its
    whole trace."""

    def test_a_counting_run_is_the_event_loops(self):
        for name, make in RECURRENCE_CASES.items():
            cfg = make()
            counts = simulate(cfg, record_rows=False)
            assert counts == counts_of(event_loop_trace(cfg)), name
            assert type(counts.n_peak) is int
            # a whole run counts the vehicles still on the highway at its end
            assert sum(counts.entered.values()) > sum(counts.exited.values()), name

    @pytest.mark.parametrize("path", ["recurrence", "event loop"])
    @pytest.mark.parametrize("minute", [1, 7, 19])
    def test_a_stopped_run_returns_the_trace_so_far(self, path, minute):
        # a run that ends at `minute` counts as a longer run's event loop stopped then
        cfg = quick_cfg(lambda_north=20.0, lambda_south=16.0, train_pass_time_s=110.0)
        stopped = event_loop_trace(cfg, minute * 60.0)
        short = replace(cfg, duration_min=float(minute))
        if path == "event loop":
            assert simulate(short) == stopped
        counts = simulate(short, record_rows=False)
        assert counts == counts_of(stopped)
        assert counts.n_peak > 0
        # vehicles that entered by then, some still on the highway
        assert sum(counts.entered.values()) > sum(counts.exited.values())

    @pytest.mark.parametrize(
        "name", ["experiment1", "experiment2", "nfr_lowlight", "sensor_failure", "sensor_noise"]
    )
    def test_the_peak_is_the_largest_sampled_occupancy(self, name):
        cfg = bundled(name)
        assert recurrence.counting_run(cfg).n_peak == max(row.n for row in simulate(cfg).rows)

    def test_gate_events_alternate_from_a_close(self):
        cfg = quick_cfg(**DARK, illuminance_profile=((0.0, 10.0), (590.0, 100.0)))
        times, scheduled = recurrence.gate_events(cfg)
        # trains at 5, 10, ... min, detected 10 s ahead, 30 s long; the first
        # is timed in the dark, the rest in the light
        assert times[:6] == [292.0, 336.0, 594.0, 634.0, 894.0, 934.0]
        assert scheduled[:6] == [290.0, 330.0, 590.0, 630.0, 890.0, 930.0]
        # the detection at 2,390 s is within the 40 minutes; two events that never come end them
        assert len(times) == 2 * 8 + 2 and times[-2:] == scheduled[-2:] == [math.inf] * 2


class TestVehiclesJson:
    """The hand-written writer gives json.dumps(..., indent=2) byte for byte,
    records in entry order and, within one entry time, in id order."""

    @staticmethod
    def reference(trace):
        def nine(value):
            return float(f"{value:.9g}")

        records = [
            {
                "entry_time": nine(v.entry_time),
                "exit_time": None if v.exit_time is None else nine(v.exit_time),
                "direction": v.direction,
            }
            for v in sorted(trace.vehicles, key=lambda v: v.entry_time)
        ]
        return json.dumps({"vehicles": records}, indent=2) + "\n"

    @staticmethod
    def of(*vehicles):
        return counted_trace(vehicles=vehicles)

    def test_empty_vehicle_list(self):
        trace = self.of()
        assert vehicles_to_json(trace) == self.reference(trace) == '{\n  "vehicles": []\n}\n'

    def test_pending_vehicles_write_null(self):
        trace = self.of(VehicleRecord(3.0, 230.25, NORTH), VehicleRecord(12.5, None, SOUTH))
        text = vehicles_to_json(trace)
        assert text == self.reference(trace)
        assert '"exit_time": null' in text

    def test_values_rounded_to_nine_digits(self):
        trace = self.of(
            VehicleRecord(0, 7, SOUTH),  # integers are written as floats
            VehicleRecord(0.1 + 0.2, 1e-7 / 3, SOUTH),
            VehicleRecord(1234.56789012345, 1634.567890126, NORTH),
            VehicleRecord(86399.99999999, 123456789012.0, NORTH),
        )
        text = vehicles_to_json(trace)
        assert text == self.reference(trace)
        assert '"entry_time": 1234.56789,' in text

    def test_simulated_run_matches(self):
        trace = simulate(quick_cfg())
        assert any(v.exit_time is None for v in trace.vehicles)
        assert vehicles_to_json(trace) == self.reference(trace)


class TestVehicleStore:
    """A run's trace reads its vehicles in place from the per-id store."""

    def test_view_is_a_sequence_of_records(self):
        view = simulate(quick_cfg()).vehicles
        records = tuple(view)
        assert isinstance(view, VehicleView)
        assert len(view) == len(records) > 5
        assert all(type(v) is VehicleRecord for v in records)
        assert (view[0], view[-1]) == (records[0], records[-1])
        with pytest.raises(IndexError):
            view[len(records)]

    def test_trace_taken_mid_run_keeps_its_vehicles(self):
        sim = Simulator(quick_cfg())
        sim.run_until(300.0)
        early = sim.trace()
        records = tuple(early.vehicles)
        assert any(v.exit_time is None for v in records)
        sim.run_to_end()
        assert len(early.vehicles) == len(records) < len(sim.trace().vehicles)
        assert tuple(early.vehicles) == records
        copied = replace(early, vehicles=view_of(*records))
        assert vehicles_to_json(early) == vehicles_to_json(copied)

    def test_a_run_writes_vehicles_from_its_store(self, monkeypatch):
        trace = simulate(quick_cfg())
        expected = TestVehiclesJson.reference(trace)

        def no_records(*args):
            raise AssertionError("a record was built")

        monkeypatch.setattr(VehicleView, "__iter__", no_records)
        monkeypatch.setattr(VehicleView, "__getitem__", no_records)
        assert vehicles_to_json(trace) == expected


class TestVehiclesJsonOrder:
    """Records are written in id (arrival) order, which a run gives in entry
    order."""

    def test_equal_entry_times_keep_id_order(self):
        # ids 1 to 4 enter at once, from both directions
        trace = replace(counted_trace(), vehicles=reference_simulator.view_of(
            [1.0, 2.5, 2.5, 2.5, 2.5, 4.0],
            [10.0, 11.0, 12.0, 13.0, None, 14.0],
            [NORTH, SOUTH, NORTH, SOUTH, NORTH, SOUTH],
        ))
        text = vehicles_to_json(trace)
        assert text == TestVehiclesJson.reference(trace)
        assert [(v["entry_time"], v["direction"], v["exit_time"])
                for v in json.loads(text)["vehicles"]] == [
            (1.0, NORTH, 10.0), (2.5, SOUTH, 11.0), (2.5, NORTH, 12.0),
            (2.5, SOUTH, 13.0), (2.5, NORTH, None), (4.0, SOUTH, 14.0),
        ]


def _around(magnitude):
    return st.floats(min_value=magnitude / 100, max_value=magnitude * 100)


@given(st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    st.integers(min_value=0, max_value=2**70),
    _around(1e-4), _around(1e9), _around(1e16),
))
@example(0)
@example(7)
@example(1e-7 / 3)
@example(123456789012.0)
@example(1e-4)
@example(999999999.5)
def test_time_formatter_matches_repr_of_the_rounded_float(value):
    assert _nine_digits(value) == repr(float(f"{value:.9g}"))
