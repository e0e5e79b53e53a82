"""The crossing's event loop: the reference the live simulator is tested
against (differential testing: W. M. McKeeman, "Differential Testing for
Software", Digital Technical Journal 10(1), 1998).

``redapt.hrcs.simulator.Simulator`` keeps only the rare events on its heap
and decides each vehicle by queue recurrence.  Here every event is a heap
entry, each vehicle's arrival, reach of the gate, service and exit
included, under the key ``(time, clock, kind, id)`` and the rank order
stated in the ``simulator`` module.  ``run_until`` pops one entry ``(time,
clock, kind, id, handler, payload)`` at a time and calls ``handler(self,
*payload)``; the next sample instant is kept as its key ``(time, clock,
SAMPLE)``, taken in its place among the heap's entries.  A handler is the
class's plain function, not a bound method, so that a finished run is freed
without the cyclic garbage collector.

Each direction's queue keeps one invariant, which the recurrence relies
on: while the gate is open and the queue holds a vehicle, one service is
pending.  The gate's open pushes a service for a queue that holds one, and
a service pushes the next while the queue still does.  A vehicle that
reaches the open gate with nobody waiting passes at once, so one that joins
the queue while the gate is open finds a service pending.

The probe and effector interface is the simulator's; ``trace()`` returns
the same ``SimTrace``, its vehicles a view built from the per-id store.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Optional

from redapt.engine import ContractViolationError
from redapt.hrcs.simulator import (
    _GAP_BLOCK, _NO_SAMPLE, ARRIVAL, CLOSE, DETECT, DIRECTIONS, EXIT, FAULT, FLOW_CLASS, LUX_CLASS,
    NORTH, OPEN, PROFILE, REACH, SAMPLE, SERVICE, SOUTH, TRAIN_ARRIVAL, TRAIN_CLEAR, RowView,
    SampleRecord, ScenarioConfig, SensorFault, SimTrace, UnknownSensorError, VehicleView,
    _SensorState, fast_share, random_streams, row_columns,
)
from redapt.hrcs.utilities import (
    DARK_LUX_BOUND, DomainError, OPTIMAL_INTERVAL_S, check_gate_timing, eval_utilities,
)


def view_of(entries, exits, directions) -> VehicleView:
    """A view of the vehicles given by id, in arrival order: each
    direction's entries, and its exits, which come first in first out."""
    lanes = []
    for direction in DIRECTIONS:
        mine = [i for i, d in enumerate(directions) if d == direction]
        done = [exits[i] for i in mine if exits[i] is not None]
        assert all(exits[i] is not None for i in mine[:len(done)]), "exits out of arrival order"
        lanes.append(([entries[i] for i in mine], done, len(done)))
    return VehicleView(tuple(lanes), bytes(map(DIRECTIONS.index, directions)), len(directions))


def reference_trace(cfg: ScenarioConfig) -> SimTrace:
    """The event loop's whole trace of ``cfg``."""
    sim = Simulator(cfg)
    sim.run_to_end()
    return sim.trace()


class Simulator:
    """One crossing, advanced up to a requested time by an event heap and
    the next sample instant, which ``run_until`` takes in its place among
    the heap's events.  Every sample instant updates ``n_peak`` and is
    recorded in the run's ``SampleRecord``."""

    def __init__(self, cfg: ScenarioConfig):
        cfg.validate()
        self.cfg = cfg
        self.clock = 0.0
        self._heap: list[tuple] = []  # (time, clock, kind, id, handler, payload)
        # read on every event of their kind, so computed once
        self._duration_s = cfg.duration_s
        self._half_travel_s = (cfg.highway_length_m / 2.0) / cfg.free_speed_ms
        self._service_gap_s = 1.0 / cfg.discharge_rate
        self._sample_interval_s = cfg.sample_interval_s
        self._p_threshold_s = cfg.p_time_threshold_s
        self._flow_window_s = cfg.flow_window_s

        north, south, self._rng_noise = random_streams(cfg.seed)
        self._rng_arrivals = {NORTH: north, SOUTH: south}
        # mean gap of each direction that has arrivals, and its undrawn gaps,
        # last first
        rates = {NORTH: cfg.lambda_north / 60.0, SOUTH: cfg.lambda_south / 60.0}
        self._gap_scale = {d: 1.0 / rate for d, rate in rates.items() if rate > 0}
        self._gaps: dict[str, list[float]] = {d: [] for d in self._gap_scale}

        self.gate_open = True
        self._service_version = {d: 0 for d in DIRECTIONS}
        self._queues: dict[str, deque[int]] = {d: deque() for d in DIRECTIONS}
        # by vehicle id: entry time, exit time (None while on the highway), direction
        self._entries: list[float] = []
        self._exits: list[Optional[float]] = []
        self._directions: list[str] = []
        self.entered = {d: 0 for d in DIRECTIONS}
        self.exited = {d: 0 for d in DIRECTIONS}
        self.fast = {d: 0 for d in DIRECTIONS}
        self._occupancy = 0  # vehicles entered and not exited
        # flow sensors average over a trailing window; seed it at the steady
        # arrival rate so gauges start saturated instead of ramping up
        self._entry_window: deque[float] = deque()
        rate = (cfg.lambda_north + cfg.lambda_south) / 60.0
        if rate > 0:
            count = int(rate * cfg.flow_window_s)
            self._entry_window.extend(
                -(count - i) / rate for i in range(count)
            )

        self.t_dispatch_min = cfg.t_dispatch_min
        self.t_close_s = cfg.t_close_s
        self.t_open_s = cfg.t_open_s
        self._train_version = 0
        self._pending_arrival = 0.0
        self._pending_detected = False
        self._last_train_arrival: Optional[float] = None

        self.illuminance = cfg.illuminance_profile[0][1]

        names = cfg.sensor_names()
        # every slot in column order, flows first; rebound in place, never added
        self._sensors = tuple(
            _SensorState(class_name, slot, names.instance(class_name, index))
            for class_name, slot, index in names.slots()
        )
        self._slot_index = {sensor.slot: i for i, sensor in enumerate(self._sensors)}
        self._class_slots = tuple(
            tuple(s.slot for s in self._sensors if s.class_name == class_name)
            for class_name in (FLOW_CLASS, LUX_CLASS)
        )
        # no sensor failed or noisy: every gauge reads the truth, no noise drawn
        self._all_healthy = True

        self.columns = row_columns(cfg)
        self._record = SampleRecord(cfg.flow_sensor_count, cfg.lux_sensor_count)
        # the settings the next sample records; None once an input changed
        self._settings: Optional[tuple] = None
        # the settings tuple of the last snapshot, and a snapshot holding
        # them, which the next snapshot under them copies and writes over
        self._snapshot_settings: Optional[tuple] = None
        self._snapshot_base: dict[str, object] = {}
        self.n_peak = 0
        self.sampled_at: Optional[float] = None

        for direction in self._gap_scale:  # a direction without arrivals schedules none
            self._push(self._next_gap(direction), ARRIVAL, direction,
                       Simulator._on_arrival, (direction,))
        self._schedule_train(self.t_dispatch_min * 60.0)
        for i, (t, lux) in enumerate(cfg.illuminance_profile[1:]):
            self._push(t, PROFILE, i, Simulator._on_profile, (lux,))
        for i, fault in enumerate(cfg.sensor_faults):
            self._push(fault.at_s, FAULT, i, Simulator._on_fault, (fault,))
        self._sample_at = (0.0, 0.0, SAMPLE)  # the next sample instant's key

    # -- event machinery ---------------------------------------------------

    def _push(self, time: float, kind: int, ident, handler, payload: tuple) -> None:
        heappush(self._heap, (time, self.clock, kind, ident, handler, payload))

    def run_until(self, t_end: float) -> None:
        t_end = min(t_end, self._duration_s)
        heap, pop = self._heap, heappop
        sample_at = self._sample_at
        while sample_at[0] <= t_end:
            # no entry shares a sample's kind, so its first three fields decide
            while heap and heap[0] < sample_at:
                time, _, _, _, handler, payload = pop(heap)
                self.clock = time
                handler(self, *payload)
            self.clock = self.sampled_at = time = sample_at[0]
            n = self._occupancy
            if n > self.n_peak:
                self.n_peak = n
            self._record_sample(time)
            after = time + self._sample_interval_s
            sample_at = (after, time, SAMPLE) if after <= self._duration_s else _NO_SAMPLE
            self._sample_at = sample_at
        while heap and heap[0][0] <= t_end:
            time, _, _, _, handler, payload = pop(heap)
            self.clock = time
            handler(self, *payload)
        self.clock = max(self.clock, t_end)

    def run_to_end(self) -> None:
        self.run_until(self._duration_s)

    # -- handlers ------------------------------------------------------------
    # ``run_until`` never pops an event past the end of the run, so no
    # handler runs after it

    def _next_gap(self, direction: str) -> float:
        gaps = self._gaps[direction]
        if not gaps:
            block = self._rng_arrivals[direction].exponential(
                self._gap_scale[direction], _GAP_BLOCK
            ).tolist()
            block.reverse()
            gaps.extend(block)
        return gaps.pop()

    # nearly every event is one of the three below, so they push their
    # successors with ``heappush`` itself rather than through ``_push``

    def _on_arrival(self, direction: str) -> None:
        clock = self.clock
        vehicle = len(self._entries)
        self._entries.append(clock)
        self._exits.append(None)
        self._directions.append(direction)
        self.entered[direction] += 1
        self._occupancy += 1
        self._entry_window.append(clock)
        heap = self._heap
        heappush(heap, (clock + self._half_travel_s, clock, REACH, vehicle,
                        Simulator._on_reach_gate, (vehicle, direction)))
        gaps = self._gaps[direction]
        gap = gaps.pop() if gaps else self._next_gap(direction)
        heappush(heap, (clock + gap, clock, ARRIVAL, direction, Simulator._on_arrival, (direction,)))

    def _on_reach_gate(self, vehicle: int, direction: str) -> None:
        queue = self._queues[direction]
        if self.gate_open and not queue:
            clock = self.clock
            heappush(self._heap, (clock + self._half_travel_s, clock, EXIT, vehicle,
                                  Simulator._on_exit, (vehicle,)))
            return
        queue.append(vehicle)

    def _on_service(self, direction: str, version: int) -> None:
        if not self.gate_open or version != self._service_version[direction]:
            return
        queue = self._queues[direction]
        if not queue:
            return
        vehicle = queue.popleft()
        clock, heap = self.clock, self._heap
        heappush(heap, (clock + self._half_travel_s, clock, EXIT, vehicle,
                        Simulator._on_exit, (vehicle,)))
        if queue:
            heappush(heap, (clock + self._service_gap_s, clock, SERVICE, direction,
                            Simulator._on_service, (direction, version)))

    def _on_exit(self, vehicle: int) -> None:
        direction = self._directions[vehicle]
        clock = self._exits[vehicle] = self.clock
        self.exited[direction] += 1
        self._occupancy -= 1
        if clock - self._entries[vehicle] < self._p_threshold_s:
            self.fast[direction] += 1

    def _schedule_train(self, arrival: float) -> None:
        arrival = max(arrival, self.clock)
        self._pending_arrival = arrival
        self._pending_detected = False
        self._push(
            max(self.clock, arrival - self.cfg.warn_lead_time_s),
            DETECT, self._train_version,
            Simulator._on_train_detect, (self._train_version, arrival),
        )

    def _on_train_detect(self, version: int, arrival: float) -> None:
        if version != self._train_version:
            return
        # gate timings are captured at detection for the whole cycle; the
        # physical close/pass/open chain runs regardless of rescheduling
        self._pending_detected = True
        self._push(self.clock + self.t_close_s, CLOSE, 0, Simulator._on_gate_close, ())
        self._push(arrival, TRAIN_ARRIVAL, version, Simulator._on_train_arrive, (version, arrival))
        self._push(arrival + self.cfg.train_pass_time_s, TRAIN_CLEAR, 0,
                   Simulator._on_train_clear, (self.t_open_s,))

    def _on_train_arrive(self, version: int, arrival: float) -> None:
        self._last_train_arrival = arrival
        if version != self._train_version:
            return
        self._schedule_train(arrival + self.t_dispatch_min * 60.0)

    def _on_train_clear(self, t_open: float) -> None:
        self._push(self.clock + t_open, OPEN, 0, Simulator._on_gate_open, ())

    def _on_gate_close(self) -> None:
        self.gate_open = False
        for d in DIRECTIONS:
            self._service_version[d] += 1

    def _on_gate_open(self) -> None:
        self.gate_open = True
        for d in DIRECTIONS:
            self._service_version[d] += 1
            if self._queues[d]:
                self._push(self.clock + self._service_gap_s, SERVICE, d,
                           Simulator._on_service, (d, self._service_version[d]))

    def _on_profile(self, lux: float) -> None:
        self.illuminance = lux
        self._settings = None
        if lux > DARK_LUX_BOUND:
            # bright conditions pin both intervals at the optimum
            self.t_close_s = OPTIMAL_INTERVAL_S
            self.t_open_s = OPTIMAL_INTERVAL_S

    def _on_fault(self, fault: SensorFault) -> None:
        sensor = self._sensor(fault.slot)
        if fault.mode == "fail":
            sensor.failed = True
        else:
            sensor.noise_sigma = fault.sigma
        self._all_healthy = False

    # -- derived state -------------------------------------------------------

    def _sensor(self, slot: str) -> _SensorState:
        if slot not in self._slot_index:
            raise UnknownSensorError(slot)
        return self._sensors[self._slot_index[slot]]

    def occupancy(self) -> int:
        return self._occupancy

    def flow_per_min(self) -> float:
        horizon = self.clock - self._flow_window_s
        window = self._entry_window
        while window and window[0] < horizon:
            window.popleft()
        return len(window) * 60.0 / self._flow_window_s

    def percentage_fast(self, direction: str) -> float:
        return fast_share(self.fast[direction], self.exited[direction])

    def utilities(self):
        return eval_utilities(self.t_close_s, self.t_open_s, self.illuminance)

    def _gauges(self) -> tuple[Optional[float], ...]:
        """What every sensor reads now, failed ones ``None``: flows before
        lux, each in slot order, which is the order of the noise draws."""
        flow, lux = self.flow_per_min(), self.illuminance
        gauge = self._gauge
        return tuple([
            gauge(sensor, flow if sensor.class_name == FLOW_CLASS else lux)
            for sensor in self._sensors
        ])

    def _gauge(self, sensor: _SensorState, truth: float) -> Optional[float]:
        """What one sensor reads when the true value is ``truth``."""
        if sensor.failed:
            return None
        if sensor.noise_sigma > 0:
            return truth + float(self._rng_noise.normal(0.0, sensor.noise_sigma))
        return truth

    def _record_sample(self, time: float) -> None:
        """Record the sample at ``time``, the current clock."""
        settings = self._settings
        if settings is None:
            # a rejected timing raises here, every sample until it changes,
            # and before anything of the sample is recorded
            u = self.utilities()
            settings = self._settings = (
                self.illuminance, self.t_dispatch_min, self.t_close_s, self.t_open_s,
                u.u_e, u.u_safety, u.u_pass,
            )
        record = self._record
        record.time.append(time)
        record.n.append(self._occupancy)
        record.gate_open.append(self.gate_open)
        record.flow.append(self.flow_per_min())
        record.p_north.append(self.percentage_fast(NORTH))
        record.p_south.append(self.percentage_fast(SOUTH))
        record.settings.append(settings)
        record.gauges.append(None if self._all_healthy else self._gauges())

    # -- probe interface -------------------------------------------------------

    def now(self) -> float:
        return self.clock

    def instances(self, class_name: str) -> list[tuple[str, str]]:
        return [(s.slot, s.instance_id) for s in self._sensors if s.class_name == class_name]

    def snapshot(self) -> dict[str, object]:
        """The row recorded at the current instant, without ``time``."""
        record = self._record
        if not record.time or record.time[-1] != self.clock:
            raise ContractViolationError(f"the simulator recorded no row at {self.clock!r} s")
        settings = record.settings[-1]
        if settings is not self._snapshot_settings:
            self._snapshot_base = dict(zip(self.columns[1:], record.values(-1)))
            self._snapshot_settings = settings
        # every value but ``E`` and the settings', which the copy holds
        values = self._snapshot_base.copy()
        values["n"] = record.n[-1]
        values["gate"] = "open" if record.gate_open[-1] else "closed"
        values["F"] = flow = record.flow[-1]
        gauges = record.gauges[-1]
        if gauges is None:
            flow_slots, lux_slots = self._class_slots
            for slot in flow_slots:
                values[slot] = flow
            for slot in lux_slots:
                values[slot] = settings[0]
        else:
            values.update(zip(self._slot_index, gauges))  # its keys are the slots in order
        values["p_north"] = north = record.p_north[-1]
        values["p_south"] = south = record.p_south[-1]
        values["p"] = min(north, south)
        return values

    def parameters(self) -> dict[str, float]:
        """The current value of each parameter ``set_parameter`` accepts."""
        return dict(t_dispatch=self.t_dispatch_min, t_close=self.t_close_s, t_open=self.t_open_s)

    # -- effector interface ------------------------------------------------------

    def set_parameter(self, name: str, value: float) -> None:
        if name == "t_dispatch":
            if value <= 0:
                raise DomainError("dispatch interval must be positive")
            self.t_dispatch_min = float(value)
            self._settings = None
            self._train_version += 1
            if self._pending_detected:
                # the detected train still passes; its successor uses the new
                # interval (scheduled here because the stale arrive event no
                # longer extends the chain)
                self._schedule_train(self._pending_arrival + self.t_dispatch_min * 60.0)
            else:
                base = self._last_train_arrival if self._last_train_arrival is not None else 0.0
                self._schedule_train(base + self.t_dispatch_min * 60.0)
            return
        if name == "t_close":
            check_gate_timing(value, self.t_open_s, self.illuminance)
            self.t_close_s = float(value)
            self._settings = None
            return
        if name == "t_open":
            check_gate_timing(self.t_close_s, value, self.illuminance)
            self.t_open_s = float(value)
            self._settings = None
            return
        raise DomainError(f"unknown parameter {name!r}")

    def bind_instance(self, slot: str, instance_id: str) -> str:
        """Fill ``slot`` with a healthy instance; returns the one it replaced."""
        sensor = self._sensor(slot)
        previous, sensor.instance_id = sensor.instance_id, instance_id
        sensor.failed = False
        sensor.noise_sigma = 0.0
        self._all_healthy = not any(s.failed or s.noise_sigma > 0 for s in self._sensors)
        return previous

    # -- trace export ------------------------------------------------------------

    def trace(self) -> SimTrace:
        return SimTrace(
            rows=RowView(self._record, self.columns),
            vehicles=view_of(self._entries, self._exits, self._directions),
            columns=self.columns,
            n_peak=self.n_peak,
            entered=dict(self.entered),
            exited=dict(self.exited),
            fast=dict(self.fast),
        )
