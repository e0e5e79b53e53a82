"""The queue recurrence: each vehicle's pass of the gate follows from the
one before it, in model runs and live runs alike.

In each direction the crossing is one FIFO queue at the gate, as in
Lindley's recurrence for a single-server queue (D. V. Lindley, "The theory
of queues with a single server", Proc. Cambridge Phil. Soc. 48, 1952).  A
vehicle that reaches the gate while it is open and nobody waits passes at
once; otherwise it waits for the service chain: a service ``g`` after the
gate opens, then one ``g`` after each pass while the queue holds a vehicle.
A close breaks the chain, and the next open starts it again.

Every time is computed with the float operations of the tests' event loop
(``tests/reference_simulator.py``), in the same order, so the passes, exits
and counts are its own bit for bit.  Events on one instant run in the order
of their keys, stated in the ``simulator`` module (``_before``), which
decides every tie the counts depend on: a vehicle reaching the gate against
a gate event or a service, a service against a close, a profile step
against a train detection, an arrival or an exit against a sample instant.

A model run (``counting_run``) knows its gate events before it starts
(``gate_events``), so it passes all its vehicles at once and counts its
sample instants in blocks.  A live run's lanes (``Lane``) learn them as
they run, resume ``passes`` over those so far, and decide a vehicle only
once its pass orders before the next event still to run.  A gate event
comes more than 1 s after what schedules it (a close ``t_close`` after its
train's detection, an open ``t_open`` after its train clears), so no event
yet to come, an effector's included, can move a decided pass.

``simulate`` imports this module on its first run: ``import redapt.cli``
loads no numpy.
"""

from __future__ import annotations

import math
from array import array
from functools import partial

import numpy as np

from .simulator import (
    _GAP_BLOCK, ARRIVAL, CLOSE, DETECT, DIRECTIONS, EXIT, OPEN, PROFILE, REACH, SAMPLE, SERVICE,
    RunCounts, ScenarioConfig, random_streams,
)
from .utilities import DARK_LUX_BOUND, OPTIMAL_INTERVAL_S

_SAMPLE_BLOCK = 65_536  # sample instants a model run counts at once

# a queue before its first vehicle: no gate event before it, no pass yet
START = (0, 0, -math.inf, -math.inf, REACH)


def _before(clock: float, kind: int, other_clock: float, other_kind: int) -> bool:
    """Whether an event of ``kind`` scheduled at ``clock`` runs before one
    of ``other_kind`` on the same instant scheduled at ``other_clock``."""
    return (clock, kind) < (other_clock, other_kind)


def gate_events(cfg: ScenarioConfig) -> tuple[list[float], list[float]]:
    """The time of each gate close and open whose train is detected within
    the run, and the clock each was scheduled at: a close at its train's
    detection, an open at its train's clearing; both lists end in two
    events that never come, as ``passes`` reads them.

    They alternate from a close in the order the event loop runs them, as
    ``validate()`` holds the warn lead and the pass time at zero or above
    (no event is scheduled into the past) and each closure shorter than the
    dispatch interval, with the optimal delays too (the next close comes
    after this open); a close comes at most 4 s after its detection and its
    open at least 4 s after the clearing, and on one instant the close,
    scheduled at one clock with the open, ranks first.
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
    return times + [math.inf] * 2, scheduled + [math.inf] * 2


def passes(entries, half_travel_s: float, service_gap_s: float,
           gate: tuple[list[float], list[float]], queue: tuple = START,
           until: tuple = (math.inf, math.inf)) -> tuple[list[float], tuple]:
    """The time each of one direction's vehicles, in arrival order from
    ``entries``, passes the gate, up to the first whose pass does not order
    before the key ``until``, and the queue's state to resume from at that
    vehicle (``queue`` at the first).  ``gate`` holds each close's and
    open's time, alternating from a close, and the clock it was scheduled
    at, both ending in two events that never come."""
    inf = math.inf
    times, scheduled = gate
    # the gate events run before the vehicle's reach; the next close that can
    # break the service chain; the previous pass, and its event's clock and
    # kind: a reach at its arrival, or a service at the pass or open before it
    k, c, last, last_scheduled, last_kind = queue
    until_time, until_rest = until[0], tuple(until[1:3])
    out: list[float] = []
    for entry in entries:
        reach = entry + half_travel_s
        while times[k] < reach or (
                times[k] == reach and _before(scheduled[k], (CLOSE, OPEN)[k & 1], entry, REACH)):
            k += 1
        # two reaches scheduled at one clock run in id order, the earlier vehicle first
        if last < reach or last == reach and not _before(entry, REACH, last_scheduled, last_kind):
            if not k & 1:  # nobody waits and the gate is open: it passes now
                if reach >= until_time and (reach > until_time or (entry, REACH) >= until_rest):
                    break
                last, last_scheduled, last_kind = reach, entry, REACH
                out.append(reach)
                continue
            at, chain = times[k], k + 1  # the gate's next open starts the chain
        else:
            at, chain = last, c  # the pass before it schedules its service
        service = at + service_gap_s
        # a close after the service is scheduled and before it runs voids
        # it, and the open after that close starts the chain again
        while times[chain] < service or (times[chain] == service < inf and _before(
                scheduled[chain], CLOSE, at, SERVICE)):
            at = times[chain + 1]
            service = at + service_gap_s
            chain += 2
        if service >= until_time and (service > until_time or (at, SERVICE) >= until_rest):
            break
        last, last_scheduled, last_kind = service, at, SERVICE
        c = chain
        out.append(service)
    return out, (k, c, last, last_scheduled, last_kind)


class Lane:
    """One direction of a live run.  By arrival, its vehicles' entry times,
    drawn by blocks ahead of the clock, and their pass and exit times, as
    far as the gate events that have run decide them; and at the last
    instant counted, how many of the first had entered, exited, exited fast
    and entered before the flow window.  The entry and exit lists each end
    in a vehicle that never comes, so that a count stops there."""

    __slots__ = ("entries", "passed", "exits", "entered", "exited", "fast", "before_window",
                 "_queue", "_draw", "_half_travel_s", "_service_gap_s", "_p_threshold_s")

    @np.errstate(over="ignore")  # an arrival past the float range never comes
    def __init__(self, rng, rate: float, half_travel_s: float, service_gap_s: float,
                 p_threshold_s: float):
        self.entries, self.passed = array("d"), array("d")
        self.exits = array("d", [math.inf])
        self.entered = self.exited = self.fast = self.before_window = 0
        self._queue = START
        self._half_travel_s, self._service_gap_s = half_travel_s, service_gap_s
        self._p_threshold_s = p_threshold_s
        # the direction's own generator serves nothing but its gaps, so a
        # block of them is what one draw per arrival would give
        self._draw = partial(rng.exponential, 1.0 / rate, _GAP_BLOCK) if rate > 0 else None
        self.entries.extend(np.cumsum(self._draw()).tolist() if self._draw else [math.inf])

    def draw(self, until: float) -> None:
        """Draw arrivals, each gap added to the last, until one is after ``until``."""
        entries = self.entries
        while entries[-1] <= until:
            with np.errstate(over="ignore"):
                entries.frombytes(np.cumsum(np.concatenate(([entries[-1]], self._draw())))[1:].tobytes())

    def advance(self, gate: tuple[list[float], list[float]], until: tuple,
                times: list[float], clocks: list[float], window_s: float) -> tuple[list, ...]:
        """Decide every pass that orders before the key ``until``, before
        which every gate event has run; then count at each instant of
        ``times``, a sample scheduled at the clock in ``clocks`` (inf: after
        every event on the instant), and return at each the vehicles on the
        highway, those entered within the flow window of ``window_s``, and
        the share of those exited that exited fast (1.0 while none has)."""
        entries = self.entries
        self.draw(until[0])
        decided, self._queue = passes(entries[len(self.passed):], self._half_travel_s,
                                      self._service_gap_s, gate, self._queue, until)
        exits, passed, half = self.exits, self.passed, self._half_travel_s
        if decided:
            passed.extend(decided)
            exits[-1:] = array("d", [t + half for t in decided] + [math.inf])
        i, o, fast, old = self.entered, self.exited, self.fast, self.before_window
        threshold = self._p_threshold_s
        present, in_window, shares = [], [], []
        for time, clock in zip(times, clocks):
            # on the instant, an arrival runs first unless scheduled later
            # (at the one before it, the first at 0); an exit, scheduled at
            # its pass, only if scheduled earlier
            while entries[i] < time or entries[i] == time and (entries[i - 1] if i else 0.0) <= clock:
                i += 1
            while exits[o] < time or exits[o] == time and passed[o] < clock:
                fast += exits[o] - entries[o] < threshold
                o += 1
            horizon = time - window_s
            while entries[old] < horizon:
                old += 1
            present.append(i - o)
            in_window.append(i - old)
            shares.append(fast / o if o else 1.0)  # as ``fast_share`` gives it
        self.entered, self.exited, self.fast, self.before_window = i, o, fast, old
        return present, in_window, shares


def _sample_blocks(end: float, interval: float):
    """The sample instants up to ``end`` by blocks, each with the instant
    before its first (0 for the first block): 0, then each instant the one
    before plus ``interval``, as the event loop adds them."""
    before, first = 0.0, 0.0
    while first <= end:
        # two spare steps cover any rounding of the sum
        steps = np.full(min(_SAMPLE_BLOCK, int((end - first) / interval) + 3), interval)
        steps[0] = first
        instants = np.cumsum(steps)
        yield before, instants[: np.searchsorted(instants, end, "right")]
        before = float(instants[-1])
        first = before + interval


def _runs_before(samples: np.ndarray, before: float, times: np.ndarray,
                 scheduled: np.ndarray, kind: int) -> np.ndarray:
    """How many of the events of ``kind`` at ``times`` (nondecreasing), each
    scheduled at the clock in ``scheduled``, run first before each sample
    instant, the first instant counting all before it; on an instant, those
    that order before its sample, scheduled at the one before it (at
    ``before`` for the first)."""
    lo, hi = np.searchsorted(times, samples[0], "left"), np.searchsorted(times, samples[-1], "right")
    first = np.searchsorted(samples, times[lo:hi], "left")  # the first sample instant not before it
    for i in np.flatnonzero(samples[first] == times[lo:hi]).tolist():
        j = first[i]
        if not _before(float(scheduled[lo + i]), kind, float(samples[j - 1]) if j else before, SAMPLE):
            first[i] += 1
    runs = np.bincount(first, minlength=len(samples) + 1)[:len(samples)]
    runs[0] += lo
    return runs


def counting_run(cfg: ScenarioConfig) -> RunCounts:
    """The counts a live run gives for ``cfg``: the occupancy peak and, by
    direction, the vehicles that entered, exited and exited fast by the end
    of the run."""
    cfg.validate()
    end = cfg.duration_s
    half = (cfg.highway_length_m / 2.0) / cfg.free_speed_ms
    gap = 1.0 / cfg.discharge_rate
    gate = gate_events(cfg)
    events = []  # by direction: the arrivals and exits, and the clocks they were scheduled at
    entered, exited, fast = {}, {}, {}
    rates = (cfg.lambda_north / 60.0, cfg.lambda_south / 60.0)  # vehicles per second
    for direction, rng, rate in zip(DIRECTIONS, random_streams(cfg.seed), rates):
        lane = Lane(rng, rate, half, gap, cfg.p_time_threshold_s)
        lane.draw(end)
        entry = np.frombuffer(lane.entries)
        entry = entry[: np.searchsorted(entry, end, "right")]
        passed = np.array(passes(entry.tolist(), half, gap, gate)[0])
        exit_ = passed + half  # nondecreasing, as the queue is FIFO
        # each arrival is scheduled by the one before it, the first as the
        # run starts; each exit as its vehicle passes the gate
        events.append((entry, np.concatenate(([0.0], entry))[:-1], exit_, passed))
        done = int(np.searchsorted(exit_, end, "right"))
        entered[direction] = len(entry)
        exited[direction] = done
        fast[direction] = int(np.count_nonzero(exit_[:done] - entry[:done] < cfg.p_time_threshold_s))
    n_peak = max(int(n.max()) for n in _occupancies(end, cfg.sample_interval_s, events))
    return RunCounts(n_peak=n_peak, entered=entered, exited=exited, fast=fast)


def _occupancies(end: float, interval: float, events: list[tuple]):
    """The occupancy at each sample instant up to ``end``, a block at a
    time, from each direction's arrivals and exits in ``events``."""
    for before, samples in _sample_blocks(end, interval):
        yield np.cumsum(sum(
            _runs_before(samples, before, entry, arrived_at, ARRIVAL)
            - _runs_before(samples, before, exit_, passed, EXIT)
            for entry, arrived_at, exit_, passed in events
        ))
