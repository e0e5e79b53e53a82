import math
from dataclasses import replace

import pytest

from redapt.cli import trace_from_csv
from redapt.hrcs import (
    NORTH,
    SOUTH,
    Metrics,
    SampleRow,
    ScenarioConfig,
    SensorFault,
    SimTrace,
    Simulator,
    VehicleRecord,
    compute_metrics,
    simulate,
    trace_to_csv,
)
from redapt.hrcs.utilities import DomainError


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
        assert entered == exited + len(sim._vehicles)
        assert all(row.n >= 0 for row in sim.trace().rows)
        assert sim.trace().rows[-1].n == entered - exited

    def test_gate_cycle_well_posedness_enforced(self):
        with pytest.raises(DomainError):
            quick_cfg(t_dispatch_min=1.0, train_pass_time_s=110.0).validate()

    @pytest.mark.parametrize("interval", [0, -1])
    def test_non_positive_sample_interval_rejected(self, interval):
        # a run would re-queue its sample at the same instant forever
        with pytest.raises(DomainError):
            ScenarioConfig.from_dict(
                {"lambda_north": 10.0, "lambda_south": 10.0, "sample_interval_s": interval}
            )


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


class TestSensors:
    def test_all_healthy_sensors_agree(self):
        cfg = quick_cfg()
        sim = Simulator(cfg)
        sim.run_until(300.0)
        values = [sim.read(slot) for slot in sim.flow_slots()]
        assert len(values) == cfg.flow_sensor_count
        assert len(set(values)) == 1
        assert values[0] == pytest.approx(24.0, abs=8.0)

    def test_sample_sensors_covers_every_slot(self):
        from redapt.hrcs import sample_sensors

        cfg = quick_cfg(sensor_faults=(SensorFault("f_3", "fail", 100.0),))
        sim = Simulator(cfg)
        sim.run_until(200.0)
        readings = sample_sensors(sim)
        by_slot = {r.variable: r for r in readings}
        assert len(readings) == cfg.flow_sensor_count + cfg.lux_sensor_count
        assert by_slot["f_3"].value is None
        assert by_slot["f_4"].value is not None
        assert by_slot["e_1"].value == 100.0
        assert by_slot["f_4"].sensor_id == "ir_04"

    def test_failed_sensor_reads_absent(self):
        cfg = quick_cfg(sensor_faults=(SensorFault("f_3", "fail", 100.0),))
        sim = Simulator(cfg)
        sim.run_until(200.0)
        assert sim.read("f_3") is None
        assert sim.read("f_4") is not None

    def test_noisy_sensor_exceeds_noise_threshold(self):
        cfg = quick_cfg(sensor_faults=(SensorFault("f_5", "noise", 100.0, sigma=10.0),))
        sim = Simulator(cfg)
        window = []
        for t in range(120, 420, 60):
            sim.run_until(float(t))
            window.append(sim.read("f_5"))
        mean = sum(window) / len(window)
        sample_std = math.sqrt(sum((v - mean) ** 2 for v in window) / (len(window) - 1))
        assert sample_std > 3.0  # three times the 1.0 nominal sigma

    def test_noise_is_reproducible_for_a_seed(self):
        cfg = quick_cfg(sensor_faults=(SensorFault("f_5", "noise", 100.0, sigma=10.0),))

        def observed():
            sim = Simulator(cfg)
            sim.run_until(150.0)
            return sim.read("f_5")

        assert observed() == observed()

    def test_replacement_restores_readings(self):
        cfg = quick_cfg(sensor_faults=(SensorFault("f_3", "fail", 100.0),))
        sim = Simulator(cfg)
        sim.run_until(200.0)
        assert sim.read("f_3") is None
        sim.bind_instance("f_3", "ir_13")
        assert sim.read("f_3") is not None
        assert sim.flow_sensors["f_3"].instance_id == "ir_13"


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


class TestMetrics:
    def hand_trace(self, rows=(), vehicles=()):
        return SimTrace(rows=tuple(rows), vehicles=tuple(vehicles), flow_slots=(), lux_slots=())

    def hand_row(self, time, n):
        return SampleRow(
            time=time, illuminance=100.0, n=n, gate="open", flows=(), lux=(),
            p_north=1.0, p_south=1.0, t_dispatch=5.0, t_close=4.0, t_open=4.0,
            u_safety=1.0, u_pass=1.0,
        )

    def test_percentage_counts_strictly_under_threshold(self):
        vehicles = [
            VehicleRecord(0.0, 100.0, NORTH),
            VehicleRecord(0.0, 200.0, NORTH),
            VehicleRecord(0.0, 500.0, NORTH),
            VehicleRecord(0.0, 600.0, NORTH),
        ]
        metrics = compute_metrics(self.hand_trace(vehicles=vehicles), quick_cfg())
        assert metrics.p_north == 0.5
        assert metrics.p_south == 1.0  # no southbound completions

    def test_no_completions_convention(self):
        pending = [VehicleRecord(10.0, None, SOUTH)]
        metrics = compute_metrics(self.hand_trace(vehicles=pending), quick_cfg())
        assert metrics.p_south == 1.0

    def test_occupancy_peak_matches_hand_count(self):
        rows = [self.hand_row(float(t), n) for t, n in ((0, 0), (1, 2), (2, 5), (3, 3), (4, 1))]
        metrics = compute_metrics(self.hand_trace(rows=rows), quick_cfg())
        assert metrics.n_peak == 5


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
