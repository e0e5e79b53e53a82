"""Workload inputs, all made from the benchmark seed.

Each workload is one round of the same four operations, repeated for the
length of a run: ``redapt check`` on a spec, ``redapt run`` on a scenario,
``redapt verify`` of the run's trace, and ``speclang.evaluate`` over a
corpus of formula x trace pairs.  The workloads differ in what they feed
those operations, so that each loads a different layer:

* ``exp2-adapt``: the bundled experiment 2 at 1 Hz.  The sampler, the
  dispatch verifier's two 240-minute model runs, artifact writing and CSV
  reading do the work.
* ``soak-mixed``: 48 simulated hours at 60 s sampling with one sensor fault
  and one low-light episode per hour.  The engine's per-cycle cost, which
  grows with run length, does the work.
* ``verify-nested``: a short recording run, then a spec of nested temporal
  invariants over its trace and a broad corpus of random formulas.  The
  evaluator does the work.

The program only sees the files written here (and the bundled ones for
``exp2-adapt``); the corpus is handed to ``speclang.evaluate`` in-process.
Every workload evaluates a corpus, so that every end-to-end metric is
measured on every workload; only ``verify-nested`` makes it a large share
of the round.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from checks import (
    BUNDLED_INVARIANTS,
    Formula,
    G,
    F,
    X,
    U,
    and_,
    cmp,
    implies,
    not_,
    or_,
    to_text,
)

MONITOR_GOAL = "Gauge f_i by infrared sensors"
DISPATCH_GOAL = "Determine t_dispatch to make p > 50% and n < 350"
GATE_GOAL = "Keep safety efficiency above the desired level under low illuminance"

# corpus formulas keep one set of shapes for every seed, so that the cost of
# a corpus does not move with the seed; the seed fills in leaves and states
SHAPE_SEED = 20240
QUANT_DOMAINS = {"levels": (100.0, 200.0, 350.0)}


@dataclass
class Workload:
    name: str
    seed: int
    checked_spec: Path  # given to `redapt check`
    spec: Path  # given to `redapt run`
    scenario: Path
    verify_spec: Path  # evaluated by `redapt verify`
    invariants: dict[str, Formula]  # verify_spec's invariants, in document order
    scenario_doc: dict
    corpus_formulas: int
    corpus_traces: int
    repeats: int = 1  # `verify` calls and corpus passes per round
    expect_adaptation: bool = False  # the exp2 dispatch step 5 -> 6
    faults_checked: bool = False  # fault swaps and retimings are checked


def make(name: str, root: Path, workdir: Path, seed: int) -> Workload:
    """The named workload's inputs, written under ``workdir``; KeyError for
    an unknown name."""
    return BUILDERS[name](root, workdir, seed)


def _exp2(root: Path, workdir: Path, seed: int) -> Workload:
    # the bundled experiment verbatim: it is defined by its own seed 7, and
    # sits where one dispatch step separates a saturated crossing from a
    # free one; the benchmark seed draws the corpus
    spec = root / "src/redapt/data/hrcs.agmspec"
    scenario = root / "src/redapt/data/experiment2.json"
    return Workload(
        name="exp2-adapt",
        seed=seed,
        checked_spec=spec,
        spec=spec,
        scenario=scenario,
        verify_spec=spec,
        invariants=dict(BUNDLED_INVARIANTS),
        scenario_doc=json.loads(scenario.read_text(encoding="utf-8")),
        corpus_formulas=100,
        corpus_traces=30,
        repeats=3,
        expect_adaptation=True,
    )


def soak_scenario(seed: int, hours: int) -> dict:
    """Experiment-1 flows for ``hours`` hours.  Every hour brings two flow
    sensor faults on rotating slots, one in each half, fail and noise
    alternating; every third hour brings a dark episode.  Swaps are thus the
    large majority of adapting cycles, and the median one is a swap from the
    middle of the run rather than the boundary between two kinds."""
    rng = random.Random(seed)
    profile: list[list[float]] = [[0.0, 100.0]]
    faults = []
    for h in range(hours):
        base = h * 3600
        start = base + rng.randrange(5, 45) * 60 + rng.choice((0, 17, 30))
        length = rng.randrange(3, 12) * 60
        if h % 3 == 0:
            profile += [[float(start), 8.0], [float(start + length), 100.0]]
        for half in (0, 1):
            k = 2 * h + half
            fault = {
                "slot": f"f_{k % 10 + 1}",
                "mode": "fail" if (k + k // 10) % 2 == 0 else "noise",
                # a noise window closes before the half hour is out
                "at_s": float(base + half * 1800 + rng.randrange(0, 1500) + rng.choice((0, 0.5))),
            }
            if fault["mode"] == "noise":
                fault["sigma"] = float(rng.randrange(40, 61))
            faults.append(fault)
    # the default 30 s train passage keeps the queue far below n = 350, so
    # the dispatch route and its model runs stay out of this workload
    return {
        "name": f"soak: {hours} h of experiment-1 flows, hourly faults and dark episodes",
        "lambda_north": 15.0,
        "lambda_south": 18.0,
        "t_dispatch_min": 5.0,
        "t_close_s": 4.0,
        "t_open_s": 4.0,
        "duration_min": hours * 60.0,
        "seed": seed,
        "sample_interval_s": 60.0,
        "illuminance_profile": profile,
        "sensor_faults": faults,
    }


def _soak(root: Path, workdir: Path, seed: int) -> Workload:
    doc = soak_scenario(seed, hours=48)
    scenario = workdir / "soak.json"
    scenario.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    spec = root / "src/redapt/data/hrcs.agmspec"
    return Workload(
        name="soak-mixed",
        seed=seed,
        checked_spec=spec,
        spec=spec,
        scenario=scenario,
        verify_spec=spec,
        invariants=dict(BUNDLED_INVARIANTS),
        scenario_doc=doc,
        corpus_formulas=100,
        corpus_traces=30,
        repeats=3,
        faults_checked=True,
    )


def recording_scenario(seed: int) -> dict:
    """A 4-hour run sampled every 30 s (481 rows) with one dark episode and
    five flow sensor failures, so that the trace holds absent values, both
    gate states and a retiming.  Flows and failure instants are fixed, the
    failures close together, so that every seed asks for the same work and
    the median adapting cycle is always one of five like swaps."""
    rng = random.Random(seed)
    dark = rng.randrange(20, 100) * 60
    slots = rng.sample(range(1, 11), 5)
    return {
        "name": "recording run for nested invariants",
        "lambda_north": 12.0,
        "lambda_south": 12.0,
        "t_dispatch_min": 5.0,
        "t_close_s": 4.0,
        "t_open_s": 4.0,
        "duration_min": 240.0,
        "seed": seed,
        "sample_interval_s": 30.0,
        "illuminance_profile": [
            [0.0, 100.0], [float(dark), 8.0], [float(dark + rng.randrange(3, 8) * 60), 100.0]
        ],
        "sensor_faults": [
            {"slot": f"f_{slot}", "mode": "fail", "at_s": float((150 + 5 * k) * 60 + 9)}
            for k, slot in enumerate(slots)
        ],
    }


def nested_invariants(fail_slot: str) -> dict[str, Formula]:
    """Nested temporal invariants over trace.csv columns.  The first and the
    fourth nest ``U`` under ``G``, which the recursive evaluator pays for
    quadratically in the trace length; none of them stops early on a
    violation except the last, flat one."""
    return {
        "Queue bounded until the dispatch step": G(U(cmp("n", "<=", 350.0), cmp("t_dispatch", ">=", 6.0))),
        "A closed gate reopens": G(implies(cmp("gate", "=", "closed"), F(cmp("gate", "=", "open")))),
        "A failed flow sensor recovers": G(implies(cmp(fail_slot, "=", ""), F(cmp(fail_slot, "!=", "")))),
        "The gate reopens onto a bounded queue": G(implies(
            cmp("gate", "=", "closed"),
            U(cmp("gate", "=", "closed"), and_(cmp("gate", "=", "open"), X(cmp("n", "<=", 350.0)))),
        )),
        "Safety dips are repaired or dark": not_(G(implies(
            cmp("U_safety", "<", 0.7), X(or_(cmp("U_safety", ">=", 0.7), cmp("E", "<=", 20.0)))
        ))),
        "Low safety utility was seen": not_(G(cmp("U_safety", ">=", 0.7))),
        "Light stays above 20 lx": G(cmp("E", ">", 20.0)),
    }


def nested_spec_text(invariants: dict[str, Formula]) -> str:
    blocks = [
        f'goal "{name}" {{\n'
        "  attributes:\n"
        "    numeric n, t_dispatch, gate, f_i, U_safety, E\n"
        f"  invariant: {to_text(formula)}\n"
        "}\n"
        for name, formula in invariants.items()
    ]
    return "# nested temporal invariants over a recorded crossing trace\n\n" + "\n".join(blocks)


def _nested(root: Path, workdir: Path, seed: int) -> Workload:
    doc = recording_scenario(seed)
    scenario = workdir / "recording.json"
    scenario.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    invariants = nested_invariants(doc["sensor_faults"][0]["slot"])
    nested = workdir / "nested.agmspec"
    nested.write_text(nested_spec_text(invariants), encoding="utf-8")
    return Workload(
        name="verify-nested",
        seed=seed,
        checked_spec=nested,
        spec=root / "src/redapt/data/hrcs.agmspec",
        scenario=scenario,
        verify_spec=nested,
        invariants=invariants,
        scenario_doc=doc,
        corpus_formulas=200,
        corpus_traces=60,
        repeats=2,
        faults_checked=True,
    )


BUILDERS = {"exp2-adapt": _exp2, "soak-mixed": _soak, "verify-nested": _nested}


# -- the formula corpus --------------------------------------------------------


def _shape(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.2:
        return "leaf"
    roll = rng.random()
    if roll < 0.35:
        return (rng.choice(("not", "X", "F", "G")), _shape(rng, depth - 1))
    if roll < 0.85:
        return (rng.choice(("and", "or", "->", "U")), _shape(rng, depth - 1), _shape(rng, depth - 1))
    return (rng.choice(("forall", "exists")), _shape(rng, depth - 1))


class Corpus:
    """Random formulas (as speclang ASTs) crossed with short traces."""

    def __init__(self, formulas: list, traces: list):
        self.formulas = formulas
        self.traces = traces
        self.domains = QUANT_DOMAINS

    def pairs(self):
        return [(f, t) for f in self.formulas for t in self.traces]


def make_corpus(seed: int, n_formulas: int, n_traces: int) -> Corpus:
    """Random formulas over short synthetic traces, after the shape of
    criterion 6: booleans, numbers, strings and absent values, a sensor
    instance set for ``exists`` and a finite domain for ``forall``."""
    from redapt.speclang import (
        And, Atom, Cmp, Const, Eventually, Exists, Forall, Globally, Implies, Instance,
        Next, Not, Or, State, Trace, Until, Var,
    )

    unary = {"not": Not, "X": Next, "F": Eventually, "G": Globally}
    binary = {"and": And, "or": Or, "->": Implies, "U": Until}
    rng = random.Random(seed * 7919 + 17)
    shape_rng = random.Random(SHAPE_SEED)
    shapes = [_shape(shape_rng, 4) for _ in range(n_formulas)]

    def leaf(bound: frozenset):
        pick = rng.choice(("p", "q", "n", "gate") + tuple(sorted(bound)))
        if pick == "x":
            return Cmp(rng.choice(("<", "<=", ">=")), Var("n"), Var("x"))
        if pick == "s":
            roll = rng.randrange(3)
            if roll == 0:
                return Cmp(rng.choice(("=", "!=")), Var("s.value"), Const(""))
            if roll == 1:
                return Cmp(rng.choice((">=", "<")), Var("s.value"), Const(float(rng.randrange(10, 60, 10))))
            return Atom(Var("s.gauge"))
        if pick == "n":
            op = rng.choice(("<", "<=", ">", ">=", "=", "!="))
            return Cmp(op, Var("n"), Const(float(rng.randrange(0, 400, 25))))
        if pick == "gate":
            return Cmp(rng.choice(("=", "!=")), Var("gate"), Const(rng.choice(("open", "closed", ""))))
        return Atom(Var(pick))

    def fill(shape, bound: frozenset):
        if shape == "leaf":
            return leaf(bound)
        op = shape[0]
        if op == "forall":
            return Forall("x", "levels", fill(shape[1], bound | {"x"}))
        if op == "exists":
            return Exists("s", "I_sensor", fill(shape[1], bound | {"s"}))
        if op in unary:
            return unary[op](fill(shape[1], bound))
        return binary[op](fill(shape[1], bound), fill(shape[2], bound))

    def state(i: int) -> State:
        members = {}
        for k in range(1, 4):
            value = None if rng.random() < 0.2 else round(rng.uniform(0.0, 60.0), 1)
            members[f"ir_{k:02d}"] = Instance(f"ir_{k:02d}", value, True, value is not None)
        values = {
            "p": rng.random() < 0.5,
            "q": rng.random() < 0.5,
            "n": None if rng.random() < 0.15 else float(rng.randrange(0, 400)),
            "gate": rng.choice(("open", "closed", "open", None)),
        }
        return State(float(i), values, {"I_sensor": members})

    formulas = [fill(shape, frozenset()) for shape in shapes]
    traces = [Trace(tuple(state(i) for i in range(1 + k % 6))) for k in range(n_traces)]
    return Corpus(formulas, traces)
