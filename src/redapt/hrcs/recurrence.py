"""A model run: the counts of a run without rows, computed by queue
recurrence instead of the event heap.

Such a run is computed to its end: it counts vehicles and keeps the
occupancy peak, and keeps no vehicle, reads no sensor and has no engine.
In each direction it is one FIFO queue at a gate whose close and open times
are fixed before the run starts: the train chain and the illuminance
profile set them, and nothing else moves them.  So each vehicle's pass time
follows from the one before it, as in Lindley's recurrence for a
single-server queue (D. V. Lindley, "The theory of queues with a single
server", Proc. Cambridge Phil. Soc. 48, 1952):

- a vehicle that reaches the gate while it is open and nobody waits passes
  at once;
- otherwise it waits for the service chain: a service ``g`` after the gate
  opens, then one ``g`` after each pass while the queue holds a vehicle.  A
  close breaks the chain, and the next open starts it again.

Every time here is computed with the float operations the event loop uses,
in the same order, so the passes, exits and counts are the event loop's
bit for bit.

Two events on one instant run in the event loop's order, stated in the
``simulator`` module: the one scheduled at an earlier clock first, and of
two scheduled at one clock, the kind ranked first (``_before``).  Every tie
the counts depend on is decided so: a vehicle reaching the gate against a
gate event or a service, a service against a close, a profile step against
a train detection, and an arrival or an exit against a sample instant.

``simulate`` imports this module on its first model run, so
``import redapt.cli`` loads no numpy.
"""

from __future__ import annotations

import math

import numpy as np

from .simulator import (
    _GAP_BLOCK,
    ARRIVAL,
    CLOSE,
    DETECT,
    DIRECTIONS,
    EXIT,
    OPEN,
    PROFILE,
    REACH,
    SAMPLE,
    SERVICE,
    RunCounts,
    ScenarioConfig,
    random_streams,
)
from .utilities import DARK_LUX_BOUND, OPTIMAL_INTERVAL_S


def _before(clock: float, kind: int, other_clock: float, other_kind: int) -> bool:
    """Whether an event of ``kind`` scheduled at ``clock`` runs before one
    of ``other_kind`` on the same instant scheduled at ``other_clock``."""
    return (clock, kind) < (other_clock, other_kind)


def gate_events(cfg: ScenarioConfig) -> tuple[list[float], list[float]]:
    """The time of each gate close and open whose train is detected within
    the run, and the clock each was scheduled at: a close at its train's
    detection, an open at its train's clearing.

    They alternate from a close in the order the event loop runs them,
    since ``validate()`` holds the warn lead and the pass time at zero or
    above and each closure shorter than the dispatch interval:

    - a train is detected no later than it arrives and clears no earlier,
      so no event is scheduled into the event loop's past;
    - a close comes at most 4 s after its detection and its open at least
      4 s after the clearing, so a close comes no later than its open; on
      one instant, with neither warn lead nor pass time, both are
      scheduled at one clock and the close ranks first;
    - a closure (warn lead less close delay, plus pass time and open
      delay) is shorter than the dispatch interval, with the optimal
      delays too, so the next close comes after this open.
    """
    dispatch_s = cfg.t_dispatch_min * 60.0
    end = cfg.duration_s
    # bright light pins both intervals at the optimum from the first bright
    # profile step on, and every step is scheduled as the run starts
    bright = min((t for t, lux in cfg.illuminance_profile[1:] if lux > DARK_LUX_BOUND),
                 default=math.inf)
    times: list[float] = []
    scheduled: list[float] = []
    clock, arrival = 0.0, dispatch_s
    while True:
        detect = max(clock, arrival - cfg.warn_lead_time_s)
        if detect > end:
            break
        optimal = bright < detect or bright == detect and _before(0.0, PROFILE, clock, DETECT)
        t_close, t_open = (
            (OPTIMAL_INTERVAL_S, OPTIMAL_INTERVAL_S) if optimal else (cfg.t_close_s, cfg.t_open_s)
        )
        clear = arrival + cfg.train_pass_time_s
        times += (detect + t_close, clear + t_open)
        scheduled += (detect, clear)
        clock, arrival = arrival, arrival + dispatch_s
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
    c = 0  # the next close that can break the current service chain
    # the previous vehicle's pass, and the clock and kind of that event: a
    # reach at its arrival if it passed as it reached the gate, else a
    # service at the pass or open before it
    last = last_scheduled = -inf
    last_kind = REACH
    for entry in entries:
        reach = entry + half_travel_s
        while times[k] < reach or (
                times[k] == reach and _before(scheduled[k], (CLOSE, OPEN)[k & 1], entry, REACH)):
            k += 1
        # two reaches scheduled at one clock run in id order, the earlier vehicle first
        if last < reach or last == reach and not _before(entry, REACH, last_scheduled, last_kind):
            if not k & 1:  # nobody waits and the gate is open: it passes now
                last, last_scheduled, last_kind = reach, entry, REACH
                out.append(reach)
                continue
            at, c = times[k], k + 1  # the gate's next open starts the chain
        else:
            at = last  # the pass before it schedules its service
        service = at + service_gap_s
        # a close after the service is scheduled and before it runs voids
        # it, and the open after that close starts the chain again
        while times[c] < service or (
                times[c] == service and _before(scheduled[c], CLOSE, at, SERVICE)):
            at = times[c + 1]
            service = at + service_gap_s
            c += 2
        last, last_scheduled, last_kind = service, at, SERVICE
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


def _before_samples(samples: np.ndarray, times: np.ndarray, scheduled: np.ndarray,
                    kind: int) -> np.ndarray:
    """How many of the events of ``kind`` at ``times`` (nondecreasing), each
    scheduled at the clock in ``scheduled``, run before each sample
    instant: those at an earlier time, and those on the instant that order
    before its sample, which counts as scheduled at the previous sample
    instant (the first at 0)."""
    count = np.searchsorted(times, samples, "left")
    on = np.searchsorted(times, samples, "right") - count
    for j in np.flatnonzero(on).tolist():
        sample_clock = float(samples[j - 1]) if j else 0.0
        first = count[j]
        count[j] += sum(_before(clock, kind, sample_clock, SAMPLE)
                        for clock in scheduled[first:first + on[j]].tolist())
    return count


def counting_run(cfg: ScenarioConfig) -> RunCounts:
    """The counts the event loop gives for ``cfg``: the occupancy peak and,
    by direction, the vehicles that entered, exited and exited fast by the
    end of the run."""
    cfg.validate()
    end = cfg.duration_s
    half = (cfg.highway_length_m / 2.0) / cfg.free_speed_ms
    gap = 1.0 / cfg.discharge_rate
    gate = gate_events(cfg)
    samples = _sample_instants(end, cfg.sample_interval_s)
    occupancy = np.zeros(len(samples), dtype=np.intp)  # at each sample instant
    entered, exited, fast = {}, {}, {}
    rates = (cfg.lambda_north / 60.0, cfg.lambda_south / 60.0)  # vehicles per second
    for direction, rng, rate in zip(DIRECTIONS, random_streams(cfg.seed), rates):
        entry = _arrivals(rng, 1.0 / rate, end) if rate > 0 else np.empty(0)
        passed = np.array(passes(entry.tolist(), half, gap, gate))
        exit_ = passed + half  # nondecreasing, as the queue is FIFO
        # each arrival is scheduled by the one before it, the first as the
        # run starts; each exit as its vehicle passes the gate
        occupancy += _before_samples(samples, entry, np.concatenate(([0.0], entry))[:-1], ARRIVAL)
        occupancy -= _before_samples(samples, exit_, passed, EXIT)
        done = int(np.searchsorted(exit_, end, "right"))
        entered[direction] = len(entry)
        exited[direction] = done
        fast[direction] = int(np.count_nonzero(exit_[:done] - entry[:done] < cfg.p_time_threshold_s))
    return RunCounts(n_peak=int(occupancy.max()), entered=entered, exited=exited, fast=fast)
