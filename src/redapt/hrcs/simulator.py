"""Deterministic event-driven highway-rail crossing simulator.

Vehicles arrive from north and south as seeded Poisson streams, cross at
free speed, and are held in a queue at the midpoint gate while trains pass.
Trains run on a fixed dispatch interval; the gate closes a configured delay
after each train is detected and reopens a configured delay after its
trailing end clears.  Queued vehicles restart through the gate at a fixed
discharge rate.  Sensors gauging vehicle flow and illuminance can be failed
or made noisy at configured times and replaced at runtime.

The simulator exposes the probe interface (``now``, ``instances``, ``read``,
``snapshot``) and the effector interface (``set_parameter``,
``bind_instance``) consumed by the adaptation engine.
"""

from __future__ import annotations

import heapq
import io
import json
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .utilities import DARK_LUX_BOUND, DomainError, OPTIMAL_INTERVAL_S, eval_utilities

NORTH = "north"
SOUTH = "south"
DIRECTIONS = (NORTH, SOUTH)

FLOW_CLASS = "I_sensor"
LUX_CLASS = "I_lux"


class UnknownSensorError(KeyError):
    pass


@dataclass(frozen=True)
class SensorFault:
    slot: str
    mode: str  # "fail" | "noise"
    at_s: float
    sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in ("fail", "noise"):
            raise ValueError(f"unknown fault mode {self.mode!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    lambda_north: float  # vehicles per minute
    lambda_south: float
    highway_length_m: float = 3000.0
    free_speed_ms: float = 15.0
    t_dispatch_min: float = 5.0
    t_close_s: float = 4.0
    t_open_s: float = 4.0
    train_pass_time_s: float = 30.0
    warn_lead_time_s: float = 10.0
    discharge_rate: float = 0.67  # vehicles per second per direction
    duration_min: float = 60.0
    seed: int = 1
    illuminance_profile: tuple[tuple[float, float], ...] = ((0.0, 100.0),)
    sensor_faults: tuple[SensorFault, ...] = ()
    p_time_threshold_s: float = 400.0  # 300 is the tighter config alternative
    n_limit: int = 350
    p_min: float = 0.5
    flow_sensor_count: int = 10
    lux_sensor_count: int = 3
    flow_window_s: float = 600.0
    sample_interval_s: float = 1.0
    standby_per_slot: int = 2
    sensor_nominal_sigma: float = 1.0

    def validate(self) -> None:
        if self.lambda_north < 0 or self.lambda_south < 0:
            raise DomainError("arrival rates cannot be negative")
        if self.highway_length_m <= 0 or self.free_speed_ms <= 0:
            raise DomainError("geometry must be positive")
        if self.t_dispatch_min <= 0 or self.duration_min <= 0:
            raise DomainError("durations must be positive")
        if not 1.0 < self.t_close_s <= 4.0:
            raise DomainError(f"close interval {self.t_close_s!r} outside (1, 4] seconds")
        if not 4.0 <= self.t_open_s < 7.0:
            raise DomainError(f"open interval {self.t_open_s!r} outside [4, 7) seconds")
        if self.discharge_rate <= 0:
            raise DomainError("discharge rate must be positive")
        if not self.sample_interval_s > 0:
            raise DomainError(f"sample interval {self.sample_interval_s!r} s must be positive")
        closed = self.warn_lead_time_s - self.t_close_s + self.train_pass_time_s + self.t_open_s
        if closed <= 0:
            raise DomainError("gate closure interval is empty; check warn lead and close delay")
        if closed >= self.t_dispatch_min * 60.0:
            raise DomainError(
                f"gate stays closed {closed:g} s per train, longer than the "
                f"{self.t_dispatch_min:g} min dispatch interval"
            )
        if not self.illuminance_profile or self.illuminance_profile[0][0] > 0.0:
            raise DomainError("illuminance profile must start at time 0")

    @property
    def duration_s(self) -> float:
        return self.duration_min * 60.0

    @staticmethod
    def from_dict(data: Mapping) -> "ScenarioConfig":
        known = dict(data)
        known.pop("name", None)
        faults = tuple(
            SensorFault(
                slot=f["slot"],
                mode=f["mode"],
                at_s=float(f["at_s"]),
                sigma=float(f.get("sigma", 0.0)),
            )
            for f in known.pop("sensor_faults", ())
        )
        profile = tuple(
            (float(t), float(lux)) for t, lux in known.pop("illuminance_profile", ((0.0, 100.0),))
        )
        cfg = ScenarioConfig(sensor_faults=faults, illuminance_profile=profile, **known)
        cfg.validate()
        return cfg

    @staticmethod
    def from_json(text: str) -> "ScenarioConfig":
        return ScenarioConfig.from_dict(json.loads(text))


@dataclass(frozen=True)
class VehicleRecord:
    entry_time: float
    exit_time: Optional[float]
    direction: str


@dataclass(frozen=True)
class SampleRow:
    time: float
    illuminance: float
    n: int
    gate: str  # "open" | "closed"
    flows: tuple[Optional[float], ...]
    lux: tuple[Optional[float], ...]
    p_north: float
    p_south: float
    t_dispatch: float
    t_close: float
    t_open: float
    u_safety: float
    u_pass: float


@dataclass(frozen=True)
class SimTrace:
    rows: tuple[SampleRow, ...]
    vehicles: tuple[VehicleRecord, ...]
    flow_slots: tuple[str, ...]
    lux_slots: tuple[str, ...]

    def occupancy_peak(self) -> int:
        return max((row.n for row in self.rows), default=0)


@dataclass(frozen=True)
class Metrics:
    p_north: float
    p_south: float
    n_peak: int
    mean_f_north: float
    mean_f_south: float

    def to_json_dict(self) -> dict:
        return {
            "p_north": self.p_north,
            "p_south": self.p_south,
            "n_peak": self.n_peak,
            "mean_f_north": self.mean_f_north,
            "mean_f_south": self.mean_f_south,
        }


def compute_metrics(trace: SimTrace, cfg: ScenarioConfig) -> Metrics:
    """Per-direction crossing-time percentages, occupancy peak and mean flow."""
    p: dict[str, float] = {}
    for direction in DIRECTIONS:
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
    entered = {
        d: sum(1 for v in trace.vehicles if v.direction == d) for d in DIRECTIONS
    }
    return Metrics(
        p_north=p[NORTH],
        p_south=p[SOUTH],
        n_peak=trace.occupancy_peak(),
        mean_f_north=entered[NORTH] / cfg.duration_min,
        mean_f_south=entered[SOUTH] / cfg.duration_min,
    )


@dataclass
class _SensorState:
    slot: str
    instance_id: str
    failed: bool = False
    noise_sigma: float = 0.0


class Simulator:
    """One crossing, advanced by an event heap up to a requested time."""

    def __init__(self, cfg: ScenarioConfig):
        cfg.validate()
        self.cfg = cfg
        self.clock = 0.0
        self._heap: list[tuple[float, int, str, tuple]] = []
        self._seq = 0

        streams = np.random.SeedSequence(cfg.seed).spawn(3)
        self._rng_arrivals = {
            NORTH: np.random.Generator(np.random.PCG64(streams[0])),
            SOUTH: np.random.Generator(np.random.PCG64(streams[1])),
        }
        self._rng_noise = np.random.Generator(np.random.PCG64(streams[2]))

        self.gate_open = True
        self._service_version = {d: 0 for d in DIRECTIONS}
        self._queues: dict[str, deque[tuple[int, float]]] = {d: deque() for d in DIRECTIONS}
        self._vehicles: dict[int, tuple[str, float]] = {}
        self._next_vehicle = 0
        self.entered = {d: 0 for d in DIRECTIONS}
        self.exited = {d: 0 for d in DIRECTIONS}
        self.completed: list[VehicleRecord] = []
        self._completed_total = {d: 0 for d in DIRECTIONS}
        self._completed_fast = {d: 0 for d in DIRECTIONS}
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

        self.flow_sensors = {
            f"f_{i}": _SensorState(f"f_{i}", f"ir_{i:02d}")
            for i in range(1, cfg.flow_sensor_count + 1)
        }
        self.lux_sensors = {
            f"e_{i}": _SensorState(f"e_{i}", f"lux_{i:02d}")
            for i in range(1, cfg.lux_sensor_count + 1)
        }

        self._rows: list[SampleRow] = []

        for direction in DIRECTIONS:
            self._schedule_arrival(direction, 0.0)
        self._schedule_train(self.t_dispatch_min * 60.0)
        for t, lux in cfg.illuminance_profile[1:]:
            self._push(t, "profile", (lux,))
        for fault in cfg.sensor_faults:
            self._push(fault.at_s, "fault", (fault,))
        self._push(0.0, "sample", ())

    # -- event machinery ---------------------------------------------------

    def _push(self, time: float, kind: str, payload: tuple) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, kind, payload))

    def run_until(self, t_end: float) -> None:
        t_end = min(t_end, self.cfg.duration_s)
        while self._heap and self._heap[0][0] <= t_end:
            time, _, kind, payload = heapq.heappop(self._heap)
            self.clock = time
            getattr(self, f"_on_{kind}")(*payload)
        self.clock = max(self.clock, t_end)

    def run_to_end(self) -> None:
        self.run_until(self.cfg.duration_s)

    # -- handlers ------------------------------------------------------------

    def _schedule_arrival(self, direction: str, now: float) -> None:
        rate = {NORTH: self.cfg.lambda_north, SOUTH: self.cfg.lambda_south}[direction] / 60.0
        if rate <= 0:
            return
        gap = float(self._rng_arrivals[direction].exponential(1.0 / rate))
        self._push(now + gap, "arrival", (direction,))

    def _on_arrival(self, direction: str) -> None:
        if self.clock > self.cfg.duration_s:
            return
        vehicle = self._next_vehicle
        self._next_vehicle += 1
        self._vehicles[vehicle] = (direction, self.clock)
        self.entered[direction] += 1
        self._entry_window.append(self.clock)
        self._push(self.clock + self._half_travel(), "reach_gate", (vehicle,))
        self._schedule_arrival(direction, self.clock)

    def _half_travel(self) -> float:
        return (self.cfg.highway_length_m / 2.0) / self.cfg.free_speed_ms

    def _on_reach_gate(self, vehicle: int) -> None:
        direction, _ = self._vehicles[vehicle]
        queue = self._queues[direction]
        if self.gate_open and not queue:
            self._push(self.clock + self._half_travel(), "exit", (vehicle,))
            return
        queue.append((vehicle, self.clock))
        if self.gate_open and len(queue) == 1:
            self._push(
                self.clock + 1.0 / self.cfg.discharge_rate,
                "service",
                (direction, self._service_version[direction]),
            )

    def _on_service(self, direction: str, version: int) -> None:
        if not self.gate_open or version != self._service_version[direction]:
            return
        queue = self._queues[direction]
        if not queue:
            return
        vehicle, _ = queue.popleft()
        self._push(self.clock + self._half_travel(), "exit", (vehicle,))
        if queue:
            self._push(self.clock + 1.0 / self.cfg.discharge_rate, "service", (direction, version))

    def _on_exit(self, vehicle: int) -> None:
        direction, entry = self._vehicles.pop(vehicle)
        self.exited[direction] += 1
        self.completed.append(VehicleRecord(entry, self.clock, direction))
        self._completed_total[direction] += 1
        if self.clock - entry < self.cfg.p_time_threshold_s:
            self._completed_fast[direction] += 1

    def _schedule_train(self, arrival: float) -> None:
        arrival = max(arrival, self.clock)
        self._pending_arrival = arrival
        self._pending_detected = False
        self._push(
            max(self.clock, arrival - self.cfg.warn_lead_time_s),
            "train_detect",
            (self._train_version, arrival),
        )

    def _on_train_detect(self, version: int, arrival: float) -> None:
        if version != self._train_version:
            return
        # gate timings are captured at detection for the whole cycle; the
        # physical close/pass/open chain runs regardless of rescheduling
        self._pending_detected = True
        self._push(self.clock + self.t_close_s, "gate_close", ())
        self._push(arrival, "train_arrive", (version, arrival))
        self._push(arrival + self.cfg.train_pass_time_s, "train_clear", (self.t_open_s,))

    def _on_train_arrive(self, version: int, arrival: float) -> None:
        self._last_train_arrival = arrival
        if version != self._train_version:
            return
        self._schedule_train(arrival + self.t_dispatch_min * 60.0)

    def _on_train_clear(self, t_open: float) -> None:
        self._push(self.clock + t_open, "gate_open", ())

    def _on_gate_close(self) -> None:
        self.gate_open = False
        for d in DIRECTIONS:
            self._service_version[d] += 1

    def _on_gate_open(self) -> None:
        self.gate_open = True
        for d in DIRECTIONS:
            self._service_version[d] += 1
            if self._queues[d]:
                self._push(
                    self.clock + 1.0 / self.cfg.discharge_rate,
                    "service",
                    (d, self._service_version[d]),
                )

    def _on_profile(self, lux: float) -> None:
        self.illuminance = lux
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

    def _on_sample(self, *_: object) -> None:
        if self.clock > self.cfg.duration_s:
            return
        self._rows.append(self._row())
        nxt = self.clock + self.cfg.sample_interval_s
        if nxt <= self.cfg.duration_s:
            self._push(nxt, "sample", ())

    # -- derived state -------------------------------------------------------

    def _sensor(self, slot: str) -> _SensorState:
        if slot in self.flow_sensors:
            return self.flow_sensors[slot]
        if slot in self.lux_sensors:
            return self.lux_sensors[slot]
        raise UnknownSensorError(slot)

    def occupancy(self) -> int:
        return sum(self.entered.values()) - sum(self.exited.values())

    def flow_per_min(self) -> float:
        horizon = self.clock - self.cfg.flow_window_s
        while self._entry_window and self._entry_window[0] < horizon:
            self._entry_window.popleft()
        return len(self._entry_window) * 60.0 / self.cfg.flow_window_s

    def percentage_fast(self, direction: str) -> float:
        done = self._completed_total[direction]
        if done == 0:
            return 1.0
        return self._completed_fast[direction] / done

    def utilities(self):
        return eval_utilities(self.t_close_s, self.t_open_s, self.illuminance)

    def _row(self) -> SampleRow:
        u = self.utilities()
        return SampleRow(
            time=self.clock,
            illuminance=self.illuminance,
            n=self.occupancy(),
            gate="open" if self.gate_open else "closed",
            flows=tuple(self.read(slot) for slot in self.flow_slots()),
            lux=tuple(self.read(slot) for slot in self.lux_slots()),
            p_north=self.percentage_fast(NORTH),
            p_south=self.percentage_fast(SOUTH),
            t_dispatch=self.t_dispatch_min,
            t_close=self.t_close_s,
            t_open=self.t_open_s,
            u_safety=u.u_safety,
            u_pass=u.u_pass,
        )

    def flow_slots(self) -> list[str]:
        return sorted(self.flow_sensors, key=lambda s: int(s.split("_")[1]))

    def lux_slots(self) -> list[str]:
        return sorted(self.lux_sensors, key=lambda s: int(s.split("_")[1]))

    # -- probe interface -------------------------------------------------------

    def now(self) -> float:
        return self.clock

    def instances(self, class_name: str) -> list[tuple[str, str]]:
        if class_name == FLOW_CLASS:
            return [(slot, self.flow_sensors[slot].instance_id) for slot in self.flow_slots()]
        if class_name == LUX_CLASS:
            return [(slot, self.lux_sensors[slot].instance_id) for slot in self.lux_slots()]
        return []

    def read(self, slot: str) -> Optional[float]:
        sensor = self._sensor(slot)
        if sensor.failed:
            return None
        truth = self.flow_per_min() if slot in self.flow_sensors else self.illuminance
        if sensor.noise_sigma > 0:
            truth += float(self._rng_noise.normal(0.0, sensor.noise_sigma))
        return truth

    def snapshot(self) -> dict[str, object]:
        u = self.utilities()
        healthy_lux = [
            self.illuminance for s in self.lux_sensors.values() if not s.failed
        ]
        mean_lux = sum(healthy_lux) / len(healthy_lux) if healthy_lux else self.illuminance
        p_north = self.percentage_fast(NORTH)
        p_south = self.percentage_fast(SOUTH)
        return {
            "E": mean_lux,
            "n": self.occupancy(),
            "gate": "open" if self.gate_open else "closed",
            "F": self.flow_per_min(),
            "p_north": p_north,
            "p_south": p_south,
            "p": min(p_north, p_south),
            "t_dispatch": self.t_dispatch_min,
            "t_close": self.t_close_s,
            "t_open": self.t_open_s,
            "U_E": u.u_e,
            "U_safety": u.u_safety,
            "U_pass": u.u_pass,
        }

    # -- effector interface ------------------------------------------------------

    def set_parameter(self, name: str, value: float) -> None:
        if name == "t_dispatch":
            if value <= 0:
                raise DomainError("dispatch interval must be positive")
            self.t_dispatch_min = float(value)
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
            if not 1.0 < value <= 4.0:
                raise DomainError(f"close interval {value!r} outside (1, 4] seconds")
            if self.illuminance > DARK_LUX_BOUND and value != OPTIMAL_INTERVAL_S:
                raise DomainError("close interval is pinned at 4 s above 20 lx")
            self.t_close_s = float(value)
            return
        if name == "t_open":
            if not 4.0 <= value < 7.0:
                raise DomainError(f"open interval {value!r} outside [4, 7) seconds")
            if self.illuminance > DARK_LUX_BOUND and value != OPTIMAL_INTERVAL_S:
                raise DomainError("open interval is pinned at 4 s above 20 lx")
            self.t_open_s = float(value)
            return
        raise DomainError(f"unknown parameter {name!r}")

    def bind_instance(self, slot: str, instance_id: str) -> None:
        sensor = self._sensor(slot)
        sensor.instance_id = instance_id
        sensor.failed = False
        sensor.noise_sigma = 0.0

    # -- trace export ------------------------------------------------------------

    def trace(self) -> SimTrace:
        pending = tuple(
            VehicleRecord(entry, None, direction)
            for direction, entry in self._vehicles.values()
        )
        return SimTrace(
            rows=tuple(self._rows),
            vehicles=tuple(self.completed) + pending,
            flow_slots=tuple(self.flow_slots()),
            lux_slots=tuple(self.lux_slots()),
        )


def simulate(cfg: ScenarioConfig) -> SimTrace:
    """Run one scenario start to finish without an adaptation engine."""
    sim = Simulator(cfg)
    sim.run_to_end()
    return sim.trace()


def sample_sensors(sim: Simulator):
    """Gauge every sensor slot once; failed sensors read absent."""
    from ..engine import Reading

    now = sim.now()
    return [
        Reading(sensor_id=instance_id, variable=slot, value=sim.read(slot), timestamp=now)
        for class_name in (FLOW_CLASS, LUX_CLASS)
        for slot, instance_id in sim.instances(class_name)
    ]


# -- trace serialization ----------------------------------------------------


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return f"{value:.9g}"


def trace_to_csv(trace: SimTrace) -> str:
    out = io.StringIO()
    header = (
        ["time", "E", "n", "gate"]
        + list(trace.flow_slots)
        + list(trace.lux_slots)
        + ["p_north", "p_south", "p", "t_dispatch", "t_close", "t_open", "U_safety", "U_pass"]
    )
    out.write(",".join(header) + "\n")
    for row in trace.rows:
        cells = [
            _fmt(row.time),
            _fmt(row.illuminance),
            str(row.n),
            row.gate,
            *(_fmt(v) for v in row.flows),
            *(_fmt(v) for v in row.lux),
            _fmt(row.p_north),
            _fmt(row.p_south),
            _fmt(min(row.p_north, row.p_south)),
            _fmt(row.t_dispatch),
            _fmt(row.t_close),
            _fmt(row.t_open),
            _fmt(row.u_safety),
            _fmt(row.u_pass),
        ]
        out.write(",".join(cells) + "\n")
    return out.getvalue()


def vehicles_to_json(trace: SimTrace) -> str:
    def nine(value: float) -> float:
        return float(f"{value:.9g}")

    records = [
        {
            "entry_time": nine(v.entry_time),
            "exit_time": None if v.exit_time is None else nine(v.exit_time),
            "direction": v.direction,
        }
        for v in sorted(trace.vehicles, key=lambda v: (v.entry_time, v.direction))
    ]
    return json.dumps({"vehicles": records}, indent=2) + "\n"
