"""Deterministic event-driven highway-rail crossing simulator.

Vehicles arrive from north and south as seeded Poisson streams, cross at
free speed, and are held in a queue at the midpoint gate while trains pass.
Trains run on a fixed dispatch interval; the gate closes a configured delay
after each train is detected and reopens a configured delay after its
trailing end clears.  Queued vehicles restart through the gate at a fixed
discharge rate.  Sensors gauging vehicle flow and illuminance can be failed
or made noisy at configured times and replaced at runtime.

The simulator exposes the probe interface (``now``, ``instances``,
``snapshot``) and the effector interface (``set_parameter``,
``bind_instance``) consumed by the adaptation engine.

One instant is described by one row: the value of every column in
``Simulator.columns``.  A full run records every sample instant, which
gauges each sensor once, by column (``SampleRecord``): one list for each
quantity that varies, one shared tuple of the settings while they hold,
and the gauges only while some sensor is failed or noisy.  The trace's
rows are a view of that record (``RowView``), and ``snapshot()`` is the row
recorded at the current clock without its ``time``, so the engine sees what
``trace.csv`` records; a swap shows from the next sample on.

As it goes, a run counts by direction the vehicles that ``entered``, those
that ``exited`` and those that exited ``fast`` (in under
``p_time_threshold_s``), and keeps the occupancy peak ``n_peak`` over the
sample instants.  The rows' ``p`` columns and ``compute_metrics`` read these
counts.  Every run keeps its vehicles in one store indexed by id, ids given
in arrival order, and its trace returns no records but a view of that store
(``VehicleView``), which ``vehicles.json`` is written from in id order.

Events are ordered by ``(time, seq)``, where ``seq`` counts the events as
they are scheduled and no two share one: events at the same instant run in
the order they were scheduled.  Every event but the sample instants is an
entry ``(time, seq, handler, payload)`` of a heap, and ``run_until`` pops
one and calls ``handler(self, *payload)``.  The sample instants are not
heap entries.  The simulator keeps the next one as a pair ``(time, seq)``,
its ``seq`` drawn where a heap entry's would be, after the first events are
scheduled and then right after each sample is taken.  ``run_until`` pops
the entries that order before that pair, takes the sample, and so runs each
sample exactly where its heap entry would have run.  A pair decides every
comparison, so a handler is never compared.  A handler is the class's plain
function (``Simulator._on_exit``), not a bound method: a bound method would
hold the simulator from its own heap, so a finished run, rows and vehicles
included, would wait for the cyclic garbage collector instead of being freed
when its last reference goes.  Each direction's arrival gaps come from that
direction's own generator, drawn in blocks of ``_GAP_BLOCK`` and consumed in
order; as the stream serves nothing else, the gaps are those that one draw
per arrival would give.
"""

from __future__ import annotations

import io
import itertools
import json
import numbers
import operator
from collections import deque, namedtuple
from collections.abc import Sequence
from dataclasses import dataclass, fields
from heapq import heappop, heappush
from typing import Callable, Iterator, Mapping, Optional, TextIO

from ..engine import ContractViolationError, is_finite
from .utilities import (
    DARK_LUX_BOUND, DomainError, OPTIMAL_INTERVAL_S, check_gate_timing, eval_utilities,
)

NORTH = "north"
SOUTH = "south"
DIRECTIONS = (NORTH, SOUTH)

FLOW_CLASS = "I_sensor"
LUX_CLASS = "I_lux"

_GAP_BLOCK = 256  # arrival gaps drawn at once from a direction's generator
_NO_SAMPLE = (float("inf"), 0)  # the next sample instant once the run has taken its last

# what a scenario may make the simulator allocate before its run: the flow
# window is pre-filled with its expected arrivals, and each sensor and spare
_MAX_WINDOW_ARRIVALS = 1_000_000
# the sample instants a run may record, each a sample of every column; it
# also keeps the clock moving, as an interval this far above the duration's
# precision always advances it
_MAX_SAMPLE_INSTANTS = 1_000_000
_MAX_COUNTS = {"flow_sensor_count": 1_000, "lux_sensor_count": 1_000, "standby_per_slot": 100}

# each sensor class's slot prefix and instance prefix
_NAME_PREFIXES = {FLOW_CLASS: ("f", "ir"), LUX_CLASS: ("e", "lux")}


class UnknownSensorError(KeyError):
    pass


@dataclass(frozen=True)
class SensorNames:
    """The names of a scenario's sensor slots and of the instances that fill
    them, spelled here and nowhere else.  Slot ``i`` (from 1) of the flow
    class is ``f_<i>`` and of the lux class ``e_<i>``; the instance with
    serial ``k`` is ``ir_<k>`` or ``lux_<k>``, ``k`` in at least two digits."""

    counts: tuple[tuple[str, int], ...]  # (class, number of slots), flows first

    def slots(self) -> Iterator[tuple[str, str, int]]:
        """``(class, slot, index)`` of every slot, flows first, each class in
        index order."""
        for class_name, count in self.counts:
            prefix = _NAME_PREFIXES[class_name][0]
            for i in range(1, count + 1):
                yield class_name, f"{prefix}_{i}", i

    @staticmethod
    def instance(class_name: str, serial: int) -> str:
        return f"{_NAME_PREFIXES[class_name][1]}_{serial:02d}"

    def fills(self, slot: object) -> bool:
        """Whether a sensor fills ``slot``: whether it is one of the names
        ``slots()`` gives, of which ``validate()`` bounds the number."""
        return isinstance(slot, str) and slot in {name for _, name, _ in self.slots()}


@dataclass(frozen=True)
class SensorFault:
    slot: str
    mode: str  # "fail" | "noise"
    at_s: float
    sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in ("fail", "noise"):
            raise ValueError(f"unknown fault mode {self.mode!r}")


def _require_finite(name: str, value: object) -> None:
    if not is_finite(value):
        raise DomainError(f"{name} must be a finite number, not {value!r}")


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
    flow_sensor_count: int = 10
    lux_sensor_count: int = 3
    flow_window_s: float = 600.0
    sample_interval_s: float = 1.0
    standby_per_slot: int = 2

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, tuple):
                _require_finite(f.name, value)
        for name, bound in _MAX_COUNTS.items():
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 0:
                raise DomainError(f"{name} {value!r} must be a non-negative integer")
            if value > bound:
                raise DomainError(f"{name} {value} exceeds {bound}")
        for t, lux in self.illuminance_profile:
            _require_finite("illuminance profile time", t)
            _require_finite("illuminance", lux)
        names = self.sensor_names()
        for fault in self.sensor_faults:
            if not names.fills(fault.slot):
                raise DomainError(f"sensor fault names slot {fault.slot!r}, which no sensor fills")
            _require_finite("fault time", fault.at_s)
            _require_finite("fault sigma", fault.sigma)
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise DomainError(f"seed {self.seed!r} must be a non-negative integer")
        if self.lambda_north < 0 or self.lambda_south < 0:
            raise DomainError("arrival rates cannot be negative")
        if self.highway_length_m <= 0 or self.free_speed_ms <= 0:
            raise DomainError("geometry must be positive")
        if self.t_dispatch_min <= 0 or self.duration_min <= 0:
            raise DomainError("durations must be positive")
        if not self.illuminance_profile or self.illuminance_profile[0][0] > 0.0:
            raise DomainError("illuminance profile must start at time 0")
        check_gate_timing(self.t_close_s, self.t_open_s, self.illuminance_profile[0][1])
        if self.discharge_rate <= 0:
            raise DomainError("discharge rate must be positive")
        if not self.sample_interval_s > 0:
            raise DomainError(f"sample interval {self.sample_interval_s!r} s must be positive")
        instants = self.duration_s / self.sample_interval_s
        if instants > _MAX_SAMPLE_INSTANTS:
            raise DomainError(
                f"{instants:g} sample instants at a {self.sample_interval_s!r} s interval "
                f"exceed {_MAX_SAMPLE_INSTANTS}"
            )
        if not self.flow_window_s > 0:
            raise DomainError(f"flow window {self.flow_window_s!r} s must be positive")
        arrivals = (self.lambda_north + self.lambda_south) / 60.0 * self.flow_window_s
        if arrivals > _MAX_WINDOW_ARRIVALS:
            raise DomainError(
                f"{arrivals:g} arrivals expected in the flow window exceed {_MAX_WINDOW_ARRIVALS}"
            )
        closed = self.warn_lead_time_s - self.t_close_s + self.train_pass_time_s + self.t_open_s
        if closed <= 0:
            raise DomainError("gate closure interval is empty; check warn lead and close delay")
        if closed >= self.t_dispatch_min * 60.0:
            raise DomainError(
                f"gate stays closed {closed:g} s per train, longer than the "
                f"{self.t_dispatch_min:g} min dispatch interval"
            )

    @property
    def duration_s(self) -> float:
        return self.duration_min * 60.0

    def sensor_names(self) -> SensorNames:
        return SensorNames(
            ((FLOW_CLASS, self.flow_sensor_count), (LUX_CLASS, self.lux_sensor_count))
        )

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


# one vehicle of a run; ``exit_time`` is None for one still on the highway
VehicleRecord = namedtuple("VehicleRecord", "entry_time exit_time direction")


class VehicleView(Sequence):
    """A run's vehicles, read in place from the simulator's per-id lists:
    a read-only sequence of ``VehicleRecord``, in id (arrival) order, whose
    length is the number of vehicles when the view was made.  It equals
    another view holding the same records."""

    __slots__ = ("_entries", "_exits", "_directions", "_n")

    def __init__(self, entries: list, exits: list, directions: list):
        self._entries, self._exits, self._directions = entries, exits, directions
        self._n = len(entries)

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index: int) -> VehicleRecord:
        i = range(self._n)[index]
        return VehicleRecord(self._entries[i], self._exits[i], self._directions[i])

    def __iter__(self) -> Iterator[VehicleRecord]:
        return map(VehicleRecord, *self.columns())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VehicleView):
            return NotImplemented
        return self.columns() == other.columns()

    def columns(self) -> tuple[Sequence, Sequence, Sequence]:
        """The entry times, exit times and directions by id, each of the
        view's length: the store's own lists once nothing has been added."""
        n = self._n
        return tuple(c if len(c) == n else c[:n]
                     for c in (self._entries, self._exits, self._directions))


class SampleRecord:
    """What a run recorded at its sample instants, by column: each list
    holds one entry per sample.  ``settings`` holds the tuple ``(E,
    t_dispatch, t_close, t_open, U_E, U_safety, U_pass)``, one tuple shared
    by the samples while none of them changes; ``gauges`` holds what every
    sensor read, flows before lux, or None where each healthy sensor read
    the truth (``flow`` or ``E``)."""

    __slots__ = ("flow_count", "lux_count", "time", "n", "gate_open", "flow",
                 "p_north", "p_south", "settings", "gauges")

    def __init__(self, flow_count: int = 0, lux_count: int = 0):
        self.flow_count, self.lux_count = flow_count, lux_count
        self.time: list[float] = []
        self.n: list[int] = []
        self.gate_open: list[bool] = []
        self.flow: list[float] = []
        self.p_north: list[float] = []
        self.p_south: list[float] = []
        self.settings: list[tuple] = []
        self.gauges: list[Optional[tuple]] = []

    def values(self, i: int) -> tuple:
        """Sample ``i``'s value of every column but ``time``, in column order."""
        E, *settings = self.settings[i]
        flow, gauges = self.flow[i], self.gauges[i]
        if gauges is None:
            gauges = (flow,) * self.flow_count + (E,) * self.lux_count
        p_north, p_south = self.p_north[i], self.p_south[i]
        return (E, self.n[i], "open" if self.gate_open[i] else "closed", flow, *gauges,
                p_north, p_south, min(p_north, p_south), *settings)


class RowView(Sequence):
    """A run's rows, read in place from its ``SampleRecord``: a read-only
    sequence of ``Row`` namedtuples, one per sample instant in ``columns``
    order, whose length is the number of samples when the view was made.
    It equals another view, or a tuple, holding the same rows."""

    __slots__ = ("_record", "_columns", "_n", "_row_type")

    def __init__(self, record: SampleRecord, columns: tuple[str, ...]):
        self._record, self._columns = record, columns
        self._n = len(record.time)
        self._row_type = None  # made at the first row read

    @staticmethod
    def empty() -> "RowView":
        """The rows of a run that recorded none."""
        return RowView(SampleRecord(), ())

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index: int) -> tuple:
        i = range(self._n)[index]
        return self._row(self._record.time[i], *self._record.values(i))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (RowView, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def _row(self, *values: object) -> tuple:
        if self._row_type is None:
            self._row_type = namedtuple("Row", self._columns)  # cells also read by name
        return self._row_type(*values)

    def record(self) -> tuple[SampleRecord, int]:
        """The record and how many of its samples the view holds."""
        return self._record, self._n


@dataclass(frozen=True)
class SimTrace:
    rows: RowView  # one per sample instant, in ``columns`` order
    vehicles: VehicleView  # in arrival order
    columns: tuple[str, ...]
    # what the simulator counted, kept whether rows were recorded or not
    n_peak: int
    entered: Mapping[str, int]  # by direction
    exited: Mapping[str, int]
    fast: Mapping[str, int]  # exited in under ``p_time_threshold_s``


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


def fast_share(fast: int, exited: int) -> float:
    """The share of exited vehicles that crossed fast; 1.0 when none has
    exited: nothing finished, nothing late."""
    return fast / exited if exited else 1.0


def compute_metrics(trace: SimTrace, cfg: ScenarioConfig) -> Metrics:
    """Per-direction crossing-time percentages, occupancy peak and mean flow,
    from the counts the simulator kept.  The shares are counted at the
    ``p_time_threshold_s`` of the scenario that was simulated; ``cfg`` gives
    only the duration the flows are averaged over."""
    return Metrics(
        p_north=fast_share(trace.fast[NORTH], trace.exited[NORTH]),
        p_south=fast_share(trace.fast[SOUTH], trace.exited[SOUTH]),
        n_peak=trace.n_peak,
        mean_f_north=trace.entered[NORTH] / cfg.duration_min,
        mean_f_south=trace.entered[SOUTH] / cfg.duration_min,
    )


def row_columns(cfg: ScenarioConfig) -> tuple[str, ...]:
    """The columns of a row, in order: the one place they are named, which
    ``SampleRecord.values`` fills after ``time``."""
    return (
        "time", "E", "n", "gate", "F", *(slot for _, slot, _ in cfg.sensor_names().slots()),
        "p_north", "p_south", "p", "t_dispatch", "t_close", "t_open",
        "U_E", "U_safety", "U_pass",
    )


def random_streams(seed: int) -> list:
    """A run's three generators, spawned from ``seed``: north arrivals,
    south arrivals and sensor noise."""
    import numpy as np  # here, not at the top: `check` and `verify` never simulate

    return [np.random.Generator(np.random.PCG64(s)) for s in np.random.SeedSequence(seed).spawn(3)]


@dataclass(slots=True)
class _SensorState:
    class_name: str
    slot: str
    instance_id: str
    failed: bool = False
    noise_sigma: float = 0.0


class Simulator:
    """One crossing, advanced up to a requested time by an event heap and
    the next sample instant, which ``run_until`` takes in its place among
    the heap's events.

    Every sample instant updates ``n_peak``, and ``sampled_at`` is the
    last one taken.  A full run also records the instant in its
    ``SampleRecord``, appending what varies to one list each; the settings
    tuple is made again at the first sample after ``_on_profile`` or
    ``set_parameter`` changes one of its inputs, and the gauges are read
    only while some sensor is failed or noisy.  ``record_rows=False`` is for
    model runs: a sample records nothing, so no sensor is read.
    ``simulate`` computes such a run by queue recurrence
    (``recurrence.counting_run``), and builds a simulator for it, run to
    the end, only where the recurrence hands the run back.  Either way the
    trace returns the per-id vehicle store as a ``VehicleView``, not as
    records.

    Each direction's queue keeps one invariant, which the recurrence relies
    on: while the gate is open and the queue holds a vehicle, one service is
    pending.  The gate's open pushes a service for a queue that holds one,
    and a service pushes the next while the queue still does.  A vehicle
    that reaches the open gate with nobody waiting passes at once, so one
    that joins the queue while the gate is open finds a service pending.
    """

    def __init__(self, cfg: ScenarioConfig, *, record_rows: bool = True):
        cfg.validate()
        self.cfg = cfg
        self.record_rows = record_rows
        self.clock = 0.0
        self._heap: list[tuple] = []  # (time, seq, handler, payload)
        self._next_seq = itertools.count(1).__next__
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
            self._push(self._next_gap(direction), Simulator._on_arrival, (direction,))
        self._schedule_train(self.t_dispatch_min * 60.0)
        for t, lux in cfg.illuminance_profile[1:]:
            self._push(t, Simulator._on_profile, (lux,))
        for fault in cfg.sensor_faults:
            self._push(fault.at_s, Simulator._on_fault, (fault,))
        # the next sample instant and its place in the order of events
        self._sample_at = (0.0, self._next_seq())

    # -- event machinery ---------------------------------------------------

    def _push(self, time: float, handler, payload: tuple) -> None:
        heappush(self._heap, (time, self._next_seq(), handler, payload))

    def run_until(self, t_end: float) -> None:
        t_end = min(t_end, self._duration_s)
        heap, pop = self._heap, heappop
        sample_at = self._sample_at
        while sample_at[0] <= t_end:
            # ``(time, seq, ...) < (time, seq)`` decides on the pair alone
            while heap and heap[0] < sample_at:
                time, _, handler, payload = pop(heap)
                self.clock = time
                handler(self, *payload)
            self.clock = self.sampled_at = time = sample_at[0]
            n = self._occupancy
            if n > self.n_peak:
                self.n_peak = n
            if self.record_rows:
                self._record_sample(time)
            time += self._sample_interval_s
            sample_at = (time, self._next_seq()) if time <= self._duration_s else _NO_SAMPLE
            self._sample_at = sample_at
        while heap and heap[0][0] <= t_end:
            time, _, handler, payload = pop(heap)
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
        heap, seq = self._heap, self._next_seq
        reach_at = clock + self._half_travel_s
        heappush(heap, (reach_at, seq(), Simulator._on_reach_gate, (vehicle, direction)))
        gaps = self._gaps[direction]
        gap = gaps.pop() if gaps else self._next_gap(direction)
        heappush(heap, (clock + gap, seq(), Simulator._on_arrival, (direction,)))

    def _on_reach_gate(self, vehicle: int, direction: str) -> None:
        queue = self._queues[direction]
        if self.gate_open and not queue:
            exit_at = self.clock + self._half_travel_s
            heappush(self._heap, (exit_at, self._next_seq(), Simulator._on_exit, (vehicle,)))
            return
        queue.append(vehicle)

    def _on_service(self, direction: str, version: int) -> None:
        if not self.gate_open or version != self._service_version[direction]:
            return
        queue = self._queues[direction]
        if not queue:
            return
        vehicle = queue.popleft()
        clock, heap, seq = self.clock, self._heap, self._next_seq
        heappush(heap, (clock + self._half_travel_s, seq(), Simulator._on_exit, (vehicle,)))
        if queue:
            payload = (direction, version)
            heappush(heap, (clock + self._service_gap_s, seq(), Simulator._on_service, payload))

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
            Simulator._on_train_detect,
            (self._train_version, arrival),
        )

    def _on_train_detect(self, version: int, arrival: float) -> None:
        if version != self._train_version:
            return
        # gate timings are captured at detection for the whole cycle; the
        # physical close/pass/open chain runs regardless of rescheduling
        self._pending_detected = True
        self._push(self.clock + self.t_close_s, Simulator._on_gate_close, ())
        self._push(arrival, Simulator._on_train_arrive, (version, arrival))
        self._push(
            arrival + self.cfg.train_pass_time_s, Simulator._on_train_clear, (self.t_open_s,)
        )

    def _on_train_arrive(self, version: int, arrival: float) -> None:
        self._last_train_arrival = arrival
        if version != self._train_version:
            return
        self._schedule_train(arrival + self.t_dispatch_min * 60.0)

    def _on_train_clear(self, t_open: float) -> None:
        self._push(self.clock + t_open, Simulator._on_gate_open, ())

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
                    self.clock + self._service_gap_s,
                    Simulator._on_service,
                    (d, self._service_version[d]),
                )

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
        # entries and directions are only appended to, and no vehicle exits
        # once the run has ended, so a finished run's view reads the store
        # itself; one taken earlier copies the exit times, as vehicles on
        # the highway have yet to exit
        exits = self._exits if self.clock >= self._duration_s else self._exits[:]
        return SimTrace(
            rows=RowView(self._record, self.columns),
            vehicles=VehicleView(self._entries, exits, self._directions),
            columns=self.columns,
            n_peak=self.n_peak,
            entered=dict(self.entered),
            exited=dict(self.exited),
            fast=dict(self.fast),
        )


def simulate(cfg: ScenarioConfig, *, record_rows: bool = True) -> SimTrace:
    """Run one scenario start to finish without an adaptation engine.

    ``record_rows=False`` (for model runs) returns a trace without rows
    whose vehicles and counts are those of the full run.  A run with rows
    goes through the event loop.  One without is computed by queue
    recurrence (``recurrence.counting_run``), which gives the event loop's
    trace; where two events tie on one instant and only the event loop can
    order them, it hands the run back, and the event loop runs it."""
    if not record_rows:
        from .recurrence import HandBack, counting_run

        try:
            return counting_run(cfg)
        except HandBack:
            pass
    sim = Simulator(cfg, record_rows=record_rows)
    sim.run_to_end()
    return sim.trace()


# -- trace serialization ----------------------------------------------------
# Each artifact has one writer, which streams it line by line through the
# open text file's own buffer; ``trace_to_csv`` and ``vehicles_to_json``
# give the same text as a string.


def _fmt(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _cell_formatter() -> Callable[[object], str]:
    """One column's formatter: ``_fmt`` of each value, the cell of each
    nonzero float kept by value, so each is formatted once.  Other values
    are formatted each time: 0.0 and -0.0 are equal but write ``0`` and
    ``-0``, and 1.0 equals 1 and True, which write ``1`` and ``True``."""
    cells: dict[float, str] = {}

    def cell(value: object) -> str:
        if value.__class__ is float and value:
            text = cells.get(value)
            if text is None:
                text = cells[value] = f"{value:.9g}"
            return text
        return _fmt(value)

    return cell


def _trace_lines(rows: RowView) -> Iterator[str]:
    """Each row's line, formatted from the record's columns.  A settings
    tuple's cells are formatted once per change; under one, the healthy
    gauges' cells are joined once per distinct flow value.  Times never
    repeat and are formatted as they come; every other float goes through
    its column's formatter."""
    record, n = rows.record()
    lux_count = record.lux_count
    flow_cell, north_cell, south_cell = _cell_formatter(), _cell_formatter(), _cell_formatter()
    gauge_cells = [_cell_formatter() for _ in range(record.flow_count + lux_count)]
    settings = None
    for time, occupancy, gate_open, flow, north, south, current, gauges in itertools.islice(zip(
        record.time, record.n, record.gate_open, record.flow,
        record.p_north, record.p_south, record.settings, record.gauges,
    ), n):
        if current is not settings:
            settings = current
            e_cell = _fmt(settings[0])
            lux = ("," + e_cell) * lux_count
            tail = "".join("," + _fmt(value) for value in settings[1:])
            healthy: dict[str, str] = {}  # the F cell -> every gauge's cells joined after it
        f_cell = flow_cell(flow)
        if gauges is None:
            middle = healthy.get(f_cell)
            if middle is None:
                middle = healthy[f_cell] = ("," + f_cell) * record.flow_count + lux
        else:
            middle = "".join(["," + fmt(value) for fmt, value in zip(gauge_cells, gauges)])
        north_text, south_text = north_cell(north), south_cell(south)
        # p is the smaller share, the northern where they are equal, as ``min`` gives it
        yield (
            f"{time:.9g},{e_cell},{occupancy},{'open' if gate_open else 'closed'},{f_cell}"
            f"{middle},{north_text},{south_text},"
            f"{south_text if south < north else north_text}{tail}\n"
        )


def write_trace_csv(trace: SimTrace, out: TextIO) -> None:
    out.write(",".join(trace.columns) + "\n")
    out.writelines(_trace_lines(trace.rows))


def trace_to_csv(trace: SimTrace) -> str:
    out = io.StringIO()
    write_trace_csv(trace, out)
    return out.getvalue()


def _nine_digits(value: float) -> str:
    """``repr(float(f"{value:.9g}"))``: a time rounded to nine significant
    digits as json writes a float.  Where ``%.9g`` writes no exponent, its
    digits are repr's (nine digits or fewer name one float, and repr gives
    the shortest text that does), and so is its notation but for the
    ``.0`` repr adds to a whole number."""
    text = "%.9g" % value
    if "e" in text or "n" in text:  # an exponent, inf or nan
        return repr(float(text))
    return text if "." in text else text + ".0"


def _vehicle_records(vehicles: VehicleView) -> Iterator[str]:
    """Each record of ``vehicles.json`` with the separator before it."""
    entries, exits, directions = vehicles.columns()
    quoted = {d: json.dumps(d) for d in set(directions)}
    separator = "\n"
    for entry_time, exit_time, direction in zip(entries, exits, directions):
        yield (
            f'{separator}    {{\n'
            f'      "entry_time": {_nine_digits(entry_time)},\n'
            f'      "exit_time": {"null" if exit_time is None else _nine_digits(exit_time)},\n'
            f'      "direction": {quoted[direction]}\n'
            '    }'
        )
        separator = ",\n"


def write_vehicles_json(trace: SimTrace, out: TextIO) -> None:
    """The vehicles as ``json.dumps({"vehicles": [...]}, indent=2)`` writes
    them, in id (arrival) order, times rounded to nine significant digits.
    Written out by hand: ``indent`` would send every record through json's
    pure-Python encoder."""
    if not trace.vehicles:
        out.write('{\n  "vehicles": []\n}\n')
        return
    out.write('{\n  "vehicles": [')
    out.writelines(_vehicle_records(trace.vehicles))
    out.write("\n  ]\n}\n")


def vehicles_to_json(trace: SimTrace) -> str:
    out = io.StringIO()
    write_vehicles_json(trace, out)
    return out.getvalue()
