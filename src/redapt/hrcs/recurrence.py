"""A run that records no rows, computed by queue recurrence instead of the
event heap.

Such a run is computed to its end: it counts vehicles and keeps the
occupancy peak, and reads no sensor and has no engine.  In each direction
it is one FIFO queue at a gate whose close and open times are fixed before
the run starts: the train chain and the illuminance profile set them, and
nothing else moves them.  So each vehicle's pass time follows from the one
before it, as in Lindley's recurrence for a single-server queue
(D. V. Lindley, "The theory of queues with a single server", Proc.
Cambridge Phil. Soc. 48, 1952):

- a vehicle that reaches the gate while it is open and nobody waits passes
  at once;
- otherwise it waits for the service chain: a service ``g`` after the gate
  opens, then one ``g`` after each pass while the queue holds a vehicle.  A
  close breaks the chain, and the next open starts it again.

Every time here is computed with the float operations the event loop uses,
in the same order, so the passes, exits and counts are the event loop's
bit for bit.

Where two events fall on the same instant, the event loop runs them in the
order it scheduled them, and an event scheduled at an earlier clock comes
first.  Every tie the counting depends on is resolved that way: a vehicle
reaching the gate against a gate event or a service, a service against a
close, a profile change against a train detection, and an arrival or exit
against a sample instant, whose order is drawn when the previous sample is
taken.  Where the two events were scheduled at the same clock, their order
depends on the order of the events that scheduled them; the run raises
``HandBack`` and ``simulate`` gives it to the event loop.  So does a train
chain whose gate events do not alternate close, open, close, ..., and a run
of more than ``MAX_SAMPLES`` sample instants, whose occupancy is not held
in memory at once.

``simulate`` imports this module on its first run without rows, so
``import redapt.cli`` loads no numpy.
"""

from __future__ import annotations

import math

import numpy as np

from .simulator import (
    _GAP_BLOCK,
    DIRECTIONS,
    RowView,
    ScenarioConfig,
    SimTrace,
    VehicleView,
    random_streams,
    row_columns,
)
from .utilities import DARK_LUX_BOUND, OPTIMAL_INTERVAL_S

MAX_SAMPLES = 1 << 18  # sample instants of the longest run computed here


class HandBack(Exception):
    """A run for the event loop: two events on one instant whose order only
    it can tell, a train chain it schedules into its own past or whose
    closures overlap, or more sample instants than are held at once."""


def _first(scheduled: float, other: float) -> bool:
    """Whether an event scheduled at clock ``scheduled`` runs before one on
    the same instant scheduled at clock ``other``."""
    if scheduled == other:
        raise HandBack
    return scheduled < other


def gate_events(cfg: ScenarioConfig) -> tuple[list[float], list[float]]:
    """The time of each gate close and open whose train is detected within
    the run, alternating from a close, and the clock each was scheduled at:
    a close at its train's detection, an open at its train's clearing."""
    dispatch_s = cfg.t_dispatch_min * 60.0
    end = cfg.duration_s
    # bright light pins both intervals at the optimum from the first bright
    # profile change on; the first detection is scheduled before any
    # profile change, every later one after them all
    bright = min((t for t, lux in cfg.illuminance_profile[1:] if lux > DARK_LUX_BOUND),
                 default=math.inf)
    times: list[float] = []
    scheduled: list[float] = []
    clock, arrival = 0.0, max(dispatch_s, 0.0)
    first = True
    while True:
        detect = max(clock, arrival - cfg.warn_lead_time_s)
        if detect > end:
            break
        clear = arrival + cfg.train_pass_time_s
        if arrival < detect or clear < detect:
            raise HandBack  # the event loop would schedule into its past
        optimal = bright < detect or (bright == detect and not first)
        t_close, t_open = (
            (OPTIMAL_INTERVAL_S, OPTIMAL_INTERVAL_S) if optimal else (cfg.t_close_s, cfg.t_open_s)
        )
        times += (detect + t_close, clear + t_open)
        scheduled += (detect, clear)
        clock, arrival, first = arrival, arrival + dispatch_s, False
    if any(a >= b for a, b in zip(times, times[1:])):
        raise HandBack  # one train's closure overlaps the next
    return times, scheduled


def passes(entries: list[float], half_travel_s: float, service_gap_s: float,
           gate: tuple[list[float], list[float]]) -> list[float]:
    """The time each of one direction's vehicles, in arrival order, passes
    the gate: a vehicle still waiting after the last gate event given is
    served by the chain that event left it."""
    inf = math.inf
    # two events that never come, so that an index is never out of range
    times, scheduled = gate[0] + [inf, inf], gate[1] + [inf, inf]
    out: list[float] = []
    k = 0  # gate events run before the current vehicle reaches the gate
    c = 0  # the first close not before the clock the current service was scheduled at
    # the previous vehicle's pass and the clock it was scheduled at: its
    # arrival if it passed as it reached the gate, else the pass or open before it
    last = last_scheduled = -inf
    for entry in entries:
        reach = entry + half_travel_s
        while times[k] <= reach:
            if times[k] == reach and not _first(scheduled[k], entry):
                break
            k += 1
        if last < reach or last == reach and _first(last_scheduled, entry):
            if not k & 1:  # nobody waits and the gate is open: it passes now
                last = reach
                last_scheduled = entry
                out.append(reach)
                continue
            at = times[k]  # the gate's next open
        else:
            at = last  # the pass before it schedules its service
        service = at + service_gap_s
        while True:  # a close after the service is scheduled and before it runs voids it
            while times[c] < at:
                c += 2
            if times[c] < service or times[c] == service and _first(scheduled[c], at):
                at = times[c + 1]
                service = at + service_gap_s
            else:
                break
        last = service
        last_scheduled = at
        out.append(service)
    return out


def _arrivals(rng, mean_gap_s: float, end: float) -> np.ndarray:
    """One direction's arrival times up to ``end``: its gaps drawn from its
    own generator in blocks of ``_GAP_BLOCK``, as the event loop draws them,
    and added up one after another from 0."""
    blocks, last = [], 0.0
    while last <= end:
        block = np.cumsum(np.concatenate(([last], rng.exponential(mean_gap_s, _GAP_BLOCK))))
        blocks.append(block[1:])
        last = block[-1]
    times = np.concatenate(blocks)
    return times[: np.searchsorted(times, end, "right")]


def _sample_instants(end: float, interval: float) -> np.ndarray:
    """0, then each instant the one before plus ``interval``, as the event
    loop adds them, up to ``end``; two spare steps cover any rounding of the
    sum."""
    instants = np.full(int(end / interval) + 3, interval)
    instants[0] = 0.0
    instants = np.cumsum(instants)
    return instants[: np.searchsorted(instants, end, "right")]


def _before_samples(samples: np.ndarray, times: np.ndarray,
                    scheduled: np.ndarray) -> np.ndarray:
    """How many of the events at ``times`` (nondecreasing), each scheduled
    at the clock in ``scheduled`` (``-inf`` before the run starts), run
    before each sample instant: those at an earlier time, and those on the
    instant that were scheduled before its sample was, which is right after
    the previous sample was taken."""
    count = np.searchsorted(times, samples, "left")
    on = np.searchsorted(times, samples, "right") - count
    for j in np.flatnonzero(on).tolist():
        previous = samples[j - 1] if j else -math.inf
        first = count[j]
        for clock in scheduled[first:first + on[j]].tolist():
            if clock == previous > -math.inf:
                raise HandBack
            count[j] += clock < previous or clock == -math.inf
    return count


def counting_run(cfg: ScenarioConfig) -> SimTrace:
    """The trace the event loop gives for ``cfg`` with ``record_rows=False``:
    counts, peak and vehicles of the whole run, no rows.  Raises
    ``HandBack`` where the event loop must run it instead."""
    cfg.validate()
    end = cfg.duration_s
    if end / cfg.sample_interval_s >= MAX_SAMPLES:
        raise HandBack

    half = (cfg.highway_length_m / 2.0) / cfg.free_speed_ms
    gap = 1.0 / cfg.discharge_rate
    gate = gate_events(cfg)
    samples = _sample_instants(end, cfg.sample_interval_s)
    occupancy = np.zeros(len(samples), dtype=np.intp)  # at each sample instant
    # by direction, in arrival order: entry and exit times (the queue is
    # FIFO, so exits are nondecreasing) and whether each exit is fast
    entries, exits, fast = [], [], []
    rates = (cfg.lambda_north / 60.0, cfg.lambda_south / 60.0)  # vehicles per second
    for rng, rate in zip(random_streams(cfg.seed), rates):
        entry = _arrivals(rng, 1.0 / rate, end) if rate > 0 else np.empty(0)
        passed = np.array(passes(entry.tolist(), half, gap, gate))
        exit_ = passed + half
        # each arrival is scheduled by the one before it, the first before
        # the run starts; each exit as its vehicle passes the gate
        occupancy += _before_samples(samples, entry, np.concatenate(([-math.inf], entry))[:-1])
        occupancy -= _before_samples(samples, exit_, passed)
        entries.append(entry)
        exits.append(exit_)
        fast.append(exit_ - entry < cfg.p_time_threshold_s)
    n_peak = int(occupancy.max())
    del samples, occupancy

    # ids in arrival order across the directions
    arrived = np.concatenate(entries)
    order = np.argsort(arrived, kind="stable")
    southbound = order >= len(entries[0])
    arrived = arrived[order]
    same = np.flatnonzero(arrived[1:] == arrived[:-1])
    if (southbound[same] != southbound[same + 1]).any():
        raise HandBack  # a north and a south arrival on one instant
    id_exits = np.concatenate(exits)[order]
    vehicle_exits = id_exits.tolist()
    for i in np.flatnonzero(id_exits > end).tolist():
        vehicle_exits[i] = None  # still on the highway
    exited = [int(np.searchsorted(x, end, "right")) for x in exits]
    return SimTrace(
        rows=RowView.empty(),
        vehicles=VehicleView(arrived.tolist(), vehicle_exits,
                             np.array(DIRECTIONS, dtype=object)[southbound.astype(np.intp)].tolist()),
        columns=row_columns(cfg),
        n_peak=n_peak,
        entered={d: len(e) for d, e in zip(DIRECTIONS, entries)},
        exited=dict(zip(DIRECTIONS, exited)),
        fast={d: int(np.count_nonzero(f[:k])) for d, f, k in zip(DIRECTIONS, fast, exited)},
    )
