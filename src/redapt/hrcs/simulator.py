"""Deterministic highway-rail crossing simulator.

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
``Simulator.columns``.  A live run records every sample instant by column
(``SampleRecord``); the trace's rows are a view of that record
(``RowView``), and ``snapshot()`` is the row recorded at the current clock
without its ``time``, so the engine sees what ``trace.csv`` records.  A run
counts by direction the vehicles that ``entered``, ``exited`` and exited
``fast`` (in under ``p_time_threshold_s``), and keeps the occupancy peak
``n_peak`` over the sample instants: the counts (``RunCounts``) that the
rows' ``p`` columns and ``compute_metrics`` read, all a model run returns.

Every event has a key ``(time, clock, kind, id)``: the instant it runs at,
the clock it was scheduled at (0 for those scheduled as the run starts),
the rank of its kind, and an id that tells apart events of one kind: a
vehicle's id for a reach or an exit, the direction for an arrival or a
service (north first), the train version for a detection or a train's
arrival, the index in the scenario for a profile step or a fault, and 0
otherwise.  Events run in the order of their keys.  So on one instant an
event scheduled at an earlier clock runs first, and of those scheduled at
one clock, the kind ranked first: ``ARRIVAL``, ``REACH``, ``DETECT``,
``CLOSE``, ``TRAIN_ARRIVAL``, ``TRAIN_CLEAR``, ``OPEN``, ``SERVICE``,
``PROFILE``, ``FAULT``, ``SAMPLE``, ``EXIT``.  An arrival is scheduled at
the one before it in its direction, a reach at its arrival, an exit at its
pass of the gate, and a sample at the previous sample instant, the first
at 0.  An effector acts between two calls of ``run_until``, so what it
schedules on the current instant runs after every event that has run
there.  The ranks are chosen so that in each tie the bundled scenarios, the
soak runs and the tests' tie-prone runs hold, the event scheduled first
runs first: a service before the sample on its instant, a sample before an
exit scheduled at its clock, and the first detection before a profile step
on its instant.  The queue recurrence (``recurrence.py``) applies this
order, and the tests' event loop (``tests/reference_simulator.py``) runs it.

Only the rare events are heap entries ``(time, clock, kind, id, handler,
payload)``: the train chain, the gate's closes and opens, profile steps and
faults; the next sample instant's key ``(time, clock, SAMPLE)`` is kept
beside the heap.  No two entries share a key, so a handler or a payload is
never compared.  Each direction's vehicles are a lane
(``recurrence.Lane``), which decides them by queue recurrence over the gate
events that have run and counts them at each sample instant; the trace
reads them in place (``VehicleView``).  A handler is the class's plain
function, not a bound method, and a lane holds no reference to its
simulator, so a finished run is freed without the cyclic collector.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import numbers
import operator
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import asdict, dataclass, fields
from heapq import heappop, heappush
from itertools import chain, islice, repeat
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
_NO_SAMPLE = (float("inf"),)  # the next sample instant once the run has taken its last

# the rank of each kind of event among those on one instant scheduled at one clock
(ARRIVAL, REACH, DETECT, CLOSE, TRAIN_ARRIVAL, TRAIN_CLEAR, OPEN, SERVICE, PROFILE, FAULT,
 SAMPLE, EXIT) = range(12)

# what a scenario may make the simulator allocate before its run: the flow
# window is pre-filled with its expected arrivals, and each sensor and spare
_MAX_WINDOW_ARRIVALS = 1_000_000
# the sample instants a run may record, each a sample of every column; it
# also keeps the clock moving, as an interval this far above the duration's
# precision always advances it
_MAX_SAMPLE_INSTANTS = 1_000_000
# the vehicles a run may expect, each kept by a live run and decided by the
# recurrence; a 30-day soak at experiment-1 flows expects about 1.43 million
_MAX_VEHICLES = 10_000_000
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
        if self.warn_lead_time_s < 0 or self.train_pass_time_s < 0:
            # a train would be scheduled to arrive or clear before it is detected
            raise DomainError("warn lead and train pass times cannot be negative")
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
        vehicles = (self.lambda_north + self.lambda_south) / 60.0 * self.duration_s
        if vehicles > _MAX_VEHICLES:
            raise DomainError(f"{vehicles:g} vehicles expected over the run exceed {_MAX_VEHICLES}")
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
    """A run's vehicles, read in place from its lanes: a read-only sequence
    of ``VehicleRecord`` in id (arrival) order, as many as when the view was
    made.  A lane holds one direction's entry and exit times and how many of
    its first have exited (it is first in, first out); ``order`` holds each
    vehicle's lane by id.  It equals another view holding the same records."""

    __slots__ = ("_lanes", "_order", "_n")

    def __init__(self, lanes: Sequence[tuple[Sequence, Sequence, int]], order: bytes, n: int):
        self._lanes, self._order, self._n = tuple(lanes), order, n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index: int) -> VehicleRecord:
        i = range(self._n)[index]
        lane = self._order[i]
        k = self._order.count(lane, 0, i)  # its place in its lane
        entries, exits, exited = self._lanes[lane]
        return VehicleRecord(entries[k], exits[k] if k < exited else None, DIRECTIONS[lane])

    def __iter__(self) -> Iterator[VehicleRecord]:
        return itertools.starmap(VehicleRecord, self.tuples())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VehicleView):
            return NotImplemented
        return self._n == other._n and all(map(operator.eq, self.tuples(), other.tuples()))

    def tuples(self) -> Iterator[tuple]:
        """Each vehicle's entry time, exit time and direction, in id order,
        taken from the lanes in the order ``order`` gives."""
        lanes = [zip(entries, chain(islice(exits, exited), repeat(None)), repeat(direction))
                 for (entries, exits, exited), direction in zip(self._lanes, DIRECTIONS)]
        return map(next, map(lanes.__getitem__, islice(self._order, self._n)))


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
class RunCounts:
    """What a run counted, all that ``compute_metrics`` reads."""

    n_peak: int  # the largest occupancy at a sample instant
    entered: Mapping[str, int]  # by direction
    exited: Mapping[str, int]
    fast: Mapping[str, int]  # exited in under ``p_time_threshold_s``


@dataclass(frozen=True)
class SimTrace(RunCounts):
    rows: RowView  # one per sample instant, in ``columns`` order
    vehicles: VehicleView  # in arrival order
    columns: tuple[str, ...]


@dataclass(frozen=True)
class Metrics:
    p_north: float
    p_south: float
    n_peak: int
    mean_f_north: float
    mean_f_south: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def fast_share(fast: int, exited: int) -> float:
    """The share of exited vehicles that crossed fast; 1.0 when none has
    exited: nothing finished, nothing late."""
    return fast / exited if exited else 1.0


def compute_metrics(trace: RunCounts, cfg: ScenarioConfig) -> Metrics:
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
    """One crossing, advanced up to a requested time: ``run_until`` runs
    the heap's events in key order, and before each, and at the end of the
    step, takes at once the sample instants that order before it.  Each
    updates ``n_peak``, and ``sampled_at`` is the last one taken.  The
    settings tuple is made again at the first sample after an input
    changes, and the gauges are read only while some sensor is failed or
    noisy.  ``entered``, ``exited``, ``fast`` and ``occupancy()`` are the
    lanes' counts, brought to the end of the last step when read.  Every
    live run is one of these; a model run is not (``simulate``)."""

    def __init__(self, cfg: ScenarioConfig):
        cfg.validate()
        from .recurrence import Lane  # numpy, which `check` and `verify` never load

        self.cfg = cfg
        self.clock = 0.0
        self._heap: list[tuple] = []  # (time, clock, kind, id, handler, payload)
        self._duration_s = cfg.duration_s
        self._sample_interval_s = cfg.sample_interval_s
        self._flow_window_s = cfg.flow_window_s

        north, south, self._rng_noise = random_streams(cfg.seed)
        half_travel_s = (cfg.highway_length_m / 2.0) / cfg.free_speed_ms
        self._lanes = tuple(  # in the order of DIRECTIONS
            Lane(rng, rate / 60.0, half_travel_s, 1.0 / cfg.discharge_rate, cfg.p_time_threshold_s)
            for rng, rate in ((north, cfg.lambda_north), (south, cfg.lambda_south))
        )
        # the gate events that have run, as ``recurrence.passes`` reads them
        self._gate: tuple[list[float], list[float]] = ([math.inf] * 2, [math.inf] * 2)
        self.gate_open = True
        self._step_end: Optional[tuple] = None  # every event before it has run
        self._order = bytearray()  # each vehicle's lane by id, as far as merged
        self._merged = (0, 0)
        # flow sensors average over a trailing window; seed it at the steady
        # arrival rate so gauges start saturated instead of ramping up
        rate = (cfg.lambda_north + cfg.lambda_south) / 60.0
        count = int(rate * cfg.flow_window_s) if rate > 0 else 0
        self._prefill = [-(count - i) / rate for i in range(count)]

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
        # no sensor failed or noisy: every gauge reads the truth, no noise drawn
        self._all_healthy = True

        self.columns = row_columns(cfg)
        self._record = SampleRecord(cfg.flow_sensor_count, cfg.lux_sensor_count)
        # the settings the next sample records; None once an input changed
        self._settings: Optional[tuple] = None
        self.n_peak = 0
        self.sampled_at: Optional[float] = None

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
        end = (min(t_end, self._duration_s), math.inf)  # after every event on its instant
        heap = self._heap
        while True:
            # no entry shares a sample's kind, so its first three fields decide
            bound = heap[0] if heap and heap[0] < end else end
            if self._sample_at < bound:
                self._take_samples(bound)
            if bound is end:
                break
            time, _, _, _, handler, payload = heappop(heap)
            self.clock = time
            handler(self, *payload)
        self.clock = max(self.clock, end[0])
        self._step_end = (self.clock, math.inf)  # a step back runs nothing

    def run_to_end(self) -> None:
        self.run_until(self._duration_s)

    def _take_samples(self, bound: tuple) -> None:
        """Record every sample instant that orders before ``bound``, the
        next event to run or the end of the step: the gate, the settings and
        the sensors hold for all of them, and each lane counts at each."""
        settings = self._settings
        if settings is None:
            # a rejected timing raises here, every step until it changes,
            # and before anything of the samples is recorded
            u = self.utilities()
            settings = self._settings = (
                self.illuminance, self.t_dispatch_min, self.t_close_s, self.t_open_s,
                u.u_e, u.u_safety, u.u_pass,
            )
        interval, duration_s, window_s = self._sample_interval_s, self._duration_s, self._flow_window_s
        times, clocks = [], []  # a sample counts as scheduled at the one before it
        sample = self._sample_at
        while sample < bound:
            time = sample[0]
            times.append(time)
            clocks.append(sample[1])
            after = time + interval
            sample = (after, time, SAMPLE) if after <= duration_s else _NO_SAMPLE
        self._sample_at = sample
        (present_n, held_n, p_north), (present_s, held_s, p_south) = [
            lane.advance(self._gate, bound, times, clocks, window_s) for lane in self._lanes
        ]
        occupancy = list(map(operator.add, present_n, present_s))
        held = map(operator.add, held_n, held_s)  # entered within the flow window
        prefill = self._prefill
        if prefill:
            held = [n + len(prefill) - bisect_left(prefill, t - window_s) for n, t in zip(held, times)]
            if times[-1] - window_s > prefill[-1]:
                self._prefill = []  # the window has left them behind
        flows = [n * 60.0 / window_s for n in held]

        record, m = self._record, len(times)
        record.time += times
        record.n += occupancy
        record.gate_open += repeat(self.gate_open, m)
        record.flow += flows
        record.p_north += p_north
        record.p_south += p_south
        record.settings += repeat(settings, m)
        record.gauges += repeat(None, m) if self._all_healthy else map(self._gauges, flows)
        self.n_peak = max(self.n_peak, max(occupancy))
        self.clock = self.sampled_at = times[-1]

    # -- the train chain and the gate --------------------------------------

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
        self._push(self.clock + self.t_close_s, CLOSE, 0, Simulator._on_gate_close, (self.clock,))
        self._push(arrival, TRAIN_ARRIVAL, version, Simulator._on_train_arrive, (version, arrival))
        self._push(arrival + self.cfg.train_pass_time_s, TRAIN_CLEAR, 0,
                   Simulator._on_train_clear, (self.t_open_s,))

    def _on_train_arrive(self, version: int, arrival: float) -> None:
        self._last_train_arrival = arrival
        if version != self._train_version:
            return
        self._schedule_train(arrival + self.t_dispatch_min * 60.0)

    def _on_train_clear(self, t_open: float) -> None:
        self._push(self.clock + t_open, OPEN, 0, Simulator._on_gate_open, (self.clock,))

    # the lanes read closes and opens alternating: a close of a closed gate
    # changes nothing, and an open of an open gate voids the pending service
    # and starts the chain again, as a close and an open on its key would

    def _on_gate_close(self, scheduled: float) -> None:
        if self.gate_open:
            self.gate_open = False
            self._gate_ran(scheduled)

    def _on_gate_open(self, scheduled: float) -> None:
        if self.gate_open:
            self._gate_ran(scheduled)
        self.gate_open = True
        self._gate_ran(scheduled)

    def _gate_ran(self, scheduled: float) -> None:
        times, clocks = self._gate
        times.insert(-2, self.clock)  # before the two events that never come
        clocks.insert(-2, scheduled)

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

    def _settled(self) -> tuple:
        """The lanes, their counts brought to the end of the last step."""
        end = self._step_end
        if end is not None:
            for lane in self._lanes:
                lane.advance(self._gate, end, [end[0]], [math.inf], self._flow_window_s)
            self._step_end = None
        return self._lanes

    def _by_direction(self, count: str) -> dict[str, int]:
        return {d: getattr(lane, count) for d, lane in zip(DIRECTIONS, self._settled())}

    entered = property(lambda self: self._by_direction("entered"))
    exited = property(lambda self: self._by_direction("exited"))
    fast = property(lambda self: self._by_direction("fast"))  # exited in under p_time_threshold_s

    def occupancy(self) -> int:
        return sum(lane.entered - lane.exited for lane in self._settled())

    def _merge_arrivals(self) -> int:
        """Extend the lane of each vehicle by id to every one that has
        entered, and return their number."""
        import numpy as np  # loaded with the lanes' generators

        (north, south), (i, j) = self._settled(), self._merged
        a = np.frombuffer(north.entries, count=north.entered)
        b = np.frombuffer(south.entries, count=south.entered)
        ahead = np.searchsorted(b, a[i:], "left")  # southern arrivals before each northern
        for k in np.flatnonzero(np.searchsorted(b, a[i:], "right") > ahead).tolist():
            # on one instant the one scheduled first (at the arrival before it
            # in its lane, the first at 0) runs first, the northern on one key
            clock = a[i + k - 1] if i + k else 0.0
            while ahead[k] < len(b) and b[ahead[k]] == a[i + k] and (
                    b[ahead[k] - 1] if ahead[k] else 0.0) < clock:
                ahead[k] += 1
        merged = np.ones(len(a) + len(b) - i - j, np.uint8)
        merged[ahead - j + np.arange(len(a) - i)] = 0
        del a, b  # a view of a lane's list would stop it growing
        self._order += merged.tobytes()
        self._merged = (north.entered, south.entered)
        return len(self._order)

    def _sensor(self, slot: str) -> _SensorState:
        if slot not in self._slot_index:
            raise UnknownSensorError(slot)
        return self._sensors[self._slot_index[slot]]

    def utilities(self):
        return eval_utilities(self.t_close_s, self.t_open_s, self.illuminance)

    def _gauges(self, flow: float) -> tuple[Optional[float], ...]:
        """What every sensor reads when the flow is ``flow``, failed ones
        ``None``: flows before lux, each in slot order, which is the order
        of the noise draws."""
        lux, gauge = self.illuminance, self._gauge
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
        return dict(zip(self.columns[1:], record.values(-1)))

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
        n = self._merge_arrivals()  # a view reads the lanes, only appended to, in place
        return SimTrace(
            rows=RowView(self._record, self.columns),
            vehicles=VehicleView([(lane.entries, lane.exits, lane.exited) for lane in self._lanes],
                                 self._order, n),
            columns=self.columns,
            n_peak=self.n_peak,
            entered=self.entered,
            exited=self.exited,
            fast=self.fast,
        )


def simulate(cfg: ScenarioConfig, *, record_rows: bool = True) -> SimTrace | RunCounts:
    """Run one scenario start to finish without an adaptation engine: as a
    live run, which returns the whole ``SimTrace``, or, with
    ``record_rows=False`` (a model run), by ``recurrence.counting_run``,
    which returns only its ``RunCounts``."""
    if not record_rows:
        from .recurrence import counting_run

        return counting_run(cfg)
    sim = Simulator(cfg)
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
    quoted = {d: json.dumps(d) for d in DIRECTIONS}
    separator = "\n"
    for entry_time, exit_time, direction in vehicles.tuples():
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
