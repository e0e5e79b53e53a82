"""Acceptance suite: one test per shipped guarantee.

Each test prints a pass/fail line through the hook in conftest.  Criteria
with stated runtime budgets assert them with ``time.perf_counter``.
"""

import itertools
import json
import math
import random
import time
from dataclasses import replace

import pytest

import redapt
from redapt.cli import main as cli_main
from redapt.engine import EngineConfig
from redapt.goalmodel import DecompositionMode, MapeRole, NodeKind
from redapt.hrcs import (
    FLOW_CLASS,
    ScenarioConfig,
    compute_metrics,
    eval_utilities,
    run_scenario,
    simulate,
)
from redapt.hrcs.fixture import derive_goal_model
from redapt.speclang import (
    And,
    Atom,
    Eventually,
    Globally,
    Next,
    Not,
    State,
    Trace,
    Until,
    Var,
    evaluate,
    parse_document,
    parse_formula,
    print_document,
    print_formula,
)

from formula_gen import random_formula
from oracle_eval import reference_verdict


def test_criterion_1_pareto_identity():
    """Safety and pass utilities always split one unit of time resource."""
    started = time.perf_counter()
    rng = random.Random(1701)
    worst = 0.0
    for _ in range(10_000):
        t_close = rng.uniform(1.0, 4.0) or 1.5
        t_close = max(t_close, 1.0000001)
        t_open = rng.uniform(4.0, 7.0)
        t_open = min(t_open, 6.9999999)
        u = eval_utilities(t_close, t_open, rng.uniform(0.0, 20.0))
        worst = max(worst, abs(u.u_pass + u.u_safety - 1.0))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_2_marginal_rate_of_substitution():
    """Finite differences along admissible retimings trade one for one."""
    rng = random.Random(1702)
    for _ in range(100):
        path = []
        while len(path) < 6:
            point = (rng.uniform(1.001, 4.0), rng.uniform(4.0, 6.999))
            if all(abs(sum(point) - sum(q)) > 1e-6 for q in path):
                path.append(point)
        for (c0, o0), (c1, o1) in zip(path, path[1:]):
            u0 = eval_utilities(c0, o0, 10.0)
            u1 = eval_utilities(c1, o1, 10.0)
            slope = (u1.u_pass - u0.u_pass) / (u1.u_safety - u0.u_safety)
            assert slope == pytest.approx(-1.0, abs=1e-9)


def test_criterion_3_nfr_adaptation_restores_safety_utility(bundled_spec):
    """Dark episodes drive the safety utility to zero and retiming restores it."""
    started = time.perf_counter()
    scenario = ScenarioConfig.from_json(redapt.data_path("nfr_lowlight.json").read_text())
    result = run_scenario(bundled_spec, scenario)

    goal = "Keep safety efficiency above the desired level under low illuminance"
    episodes = [
        r for r in result.reports
        if r.reconfiguration.get(goal, {}).get("kind") == "parametric"
    ]
    assert [r.sim_time for r in episodes] == [540.0, 780.0, 1080.0]
    for report in episodes:
        assert report.violation[goal] == "ConU_NFR"
        assert report.plan_iterations[goal] <= 8
        changes = {c["param"]: c["value"] for c in report.reconfiguration[goal]["changes"]}
        assert changes == {"t_close": 1.5, "t_open": 6.5}
        assert report.post_verdicts[goal] == "none"

    rows = {row.time: row for row in result.trace.rows}
    for onset in (540.0, 780.0, 1080.0):
        assert rows[onset].U_safety == 0.0  # diagnosed value before retiming
        converged = rows[onset + 1.0]
        assert converged.U_safety == pytest.approx(5 / 6, abs=1e-15)
        assert (converged.t_close, converged.t_open) == (1.5, 6.5)
    assert time.perf_counter() - started < 5.0


def test_criterion_4_fr_adaptation_steps_dispatch_interval(bundled_spec, experiment2):
    """Raised vehicle flow violates the dispatch goal; one +1 min step heals it."""
    started = time.perf_counter()
    goal = "Determine t_dispatch to make p > 50% and n < 350"

    result = run_scenario(bundled_spec, experiment2)
    adapting = [
        r for r in result.reports
        if r.reconfiguration.get(goal, {}).get("kind") == "parametric"
    ]
    assert len(adapting) == 1
    report = adapting[0]
    assert report.violation[goal] == "ConU_FR"
    changes = report.reconfiguration[goal]["changes"]
    assert changes == [{"param": "t_dispatch", "value": 6.0}]
    steps = report.plan_iterations[goal] - 1  # first call re-checks the current setting
    assert steps == 1
    assert report.post_verdicts[goal] == "none"
    assert result.final_parameters["t_dispatch"] == 6.0
    assert result.adaptation_counts()["parametric_adaptations"] == 1

    before = compute_metrics(simulate(experiment2), experiment2)
    assert min(before.p_north, before.p_south) < 0.5 or before.n_peak > 350

    healed_cfg = replace(experiment2, t_dispatch_min=6.0)
    after = compute_metrics(simulate(healed_cfg), healed_cfg)
    assert min(after.p_north, after.p_south) >= 0.5
    assert after.n_peak <= 350

    sweep = []
    for dispatch in (3.0, 4.0, 5.0, 6.0, 7.0, 8.0):
        cfg = replace(experiment2, t_dispatch_min=dispatch, duration_min=120.0)
        sweep.append(compute_metrics(simulate(cfg), cfg))
    for a, b in zip(sweep, sweep[1:]):
        assert b.p_north >= a.p_north
        assert b.p_south >= a.p_south
        assert b.n_peak <= a.n_peak

    assert time.perf_counter() - started < 60.0


def test_criterion_5_structural_adaptation_replaces_sensors(bundled_spec):
    """Failed and noisy sensors are swapped for standbys within the loop."""
    monitor = "Gauge f_i by infrared sensors"

    failure = ScenarioConfig.from_json(redapt.data_path("sensor_failure.json").read_text())
    result = run_scenario(bundled_spec, failure)
    failing = [r for r in result.reports if r.violation.get(monitor) == "ComU_FR"]
    assert len(failing) == 1
    report = failing[0]
    assert report.sim_time == 600.0
    assert report.reconfiguration[monitor]["kind"] == "structural"
    assert report.reconfiguration[monitor]["replacements"] == [
        {"slot": "f_3", "instance": "ir_13"}
    ]
    for later in result.reports:
        if later.cycle_index > report.cycle_index:
            values = [i.value for slot, i in later.instances[FLOW_CLASS].items() if slot == "f_3"]
            assert values and values[0] is not None

    noise = ScenarioConfig.from_json(redapt.data_path("sensor_noise.json").read_text())
    result = run_scenario(bundled_spec, noise)
    noisy = [r for r in result.reports if r.violation.get(monitor) == "ComU_NFR"]
    assert noisy, "noise was never diagnosed"
    report = noisy[0]
    window = EngineConfig().noise_window
    assert report.sim_time <= 600.0 + window * 60.0  # within noise_window samples
    assert report.reconfiguration[monitor]["kind"] == "structural"
    assert report.reconfiguration[monitor]["replacements"][0]["slot"] == "f_5"

    refill = [
        r for r in result.reports
        if report.sim_time < r.sim_time <= report.sim_time + window * 60.0
    ]
    values = [r.instances[FLOW_CLASS]["f_5"].value for r in refill]
    assert all(v is not None for v in values)
    mean = sum(values) / len(values)
    std = math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))
    assert std < EngineConfig().noise_std_threshold


def test_criterion_6_evaluator_matches_brute_force_oracle():
    """Exhaustive three-valued semantics check against an independent evaluator."""
    started = time.perf_counter()
    atoms = [Atom(Var("p")), Atom(Var("q"))]
    unary = (Not, Next, Eventually, Globally)
    binary = (And, Until)

    layers = [list(atoms)]
    for _ in range(2):  # formulas up to height 3, atoms at height 1
        everything = [f for layer in layers for f in layer]
        newest = layers[-1]
        grown = [u(f) for u in unary for f in newest]
        grown += [b(f, g) for b in binary for f in everything for g in newest]
        grown += [b(f, g) for b in binary for f in newest for g in everything if g not in newest]
        layers.append(grown)
    formulas = [f for layer in layers for f in layer]
    assert len(formulas) == 722

    mismatches = 0
    checked = 0
    for length in range(1, 6):
        for bits in itertools.product(range(4), repeat=length):
            trace = Trace(tuple(
                State(time=float(i), values={"p": bool(b & 1), "q": bool(b & 2)})
                for i, b in enumerate(bits)
            ))
            for formula in formulas:
                checked += 1
                if evaluate(formula, trace) is not reference_verdict(formula, trace.states):
                    mismatches += 1
    assert checked == 722 * 1364
    assert mismatches == 0
    assert time.perf_counter() - started < 30.0


def test_criterion_7_specification_round_trip(bundled_spec):
    """Printing and reparsing is the identity, for the bundle and random ASTs."""
    printed = print_document(bundled_spec)
    assert parse_document(printed) == bundled_spec
    assert print_document(parse_document(printed)) == printed

    rng = random.Random(1707)
    for _ in range(500):
        formula = random_formula(rng, depth=4)
        assert parse_formula(print_formula(formula)) == formula


def test_criterion_8_runs_are_byte_deterministic(tmp_path, spec_path):
    """Identical manifests produce byte-identical artifacts."""
    scenario = str(redapt.data_path("experiment2.json"))
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli_main(
            ["run", "--spec", spec_path, "--scenario", scenario,
             "--out", str(out), "--seed", "7"]
        )
        assert code == 0
        outputs.append(out)
    first, second = outputs
    assert (first / "cycles.jsonl").read_bytes() == (second / "cycles.jsonl").read_bytes()
    assert (first / "trace.csv").read_bytes() == (second / "trace.csv").read_bytes()


def test_criterion_9_goal_model_derivation():
    """The scripted pipeline yields the fully refined, valid goal model."""
    model = derive_goal_model()
    assert model.validate() == []

    dispatch = model.node("At1")
    assert dispatch.kind is NodeKind.ADAPTIVE_GOAL
    refinement = model.decomposition_of("At1")
    assert refinement.mode is DecompositionMode.AND
    assert refinement.children == ("M1", "A1", "P1", "E1")

    promoted_monitor = model.node("M1")
    assert promoted_monitor.kind is NodeKind.ADAPTIVE_GOAL
    assert promoted_monitor.mape_role is None
    inner = model.decomposition_of("M1")
    assert inner.mode is DecompositionMode.AND
    assert inner.children == ("M3", "A3", "P3", "E3")
    roles = [model.node(c).mape_role for c in inner.children]
    assert roles == [MapeRole.MONITOR, MapeRole.ANALYZE, MapeRole.PLAN, MapeRole.EXECUTE]

    assert {a.source for a in model.affects_on("M1")} == {"ComU1", "ComU2"}

    expected_nodes = {
        ("g1", "goal", None),
        ("sg2", "softgoal", None),
        ("sg3", "softgoal", None),
        ("At1", "adaptive_goal", None),
        ("At2", "adaptive_goal", None),
        ("M1", "adaptive_goal", None),
        ("A1", "mape_task", "analyze"),
        ("P1", "mape_task", "plan"),
        ("E1", "mape_task", "execute"),
        ("M2", "mape_task", "monitor"),
        ("A2", "mape_task", "analyze"),
        ("P2", "mape_task", "plan"),
        ("E2", "mape_task", "execute"),
        ("M3", "mape_task", "monitor"),
        ("A3", "mape_task", "analyze"),
        ("P3", "mape_task", "plan"),
        ("E3", "mape_task", "execute"),
    }
    actual_nodes = {
        (n.id, n.kind.value, n.mape_role.value if n.mape_role else None)
        for n in model.nodes
    }
    assert actual_nodes == expected_nodes

    expected_edges = {
        ("g1", ("At1", "At2"), "and"),
        ("At1", ("M1", "A1", "P1", "E1"), "and"),
        ("At2", ("M2", "A2", "P2", "E2"), "and"),
        ("M1", ("M3", "A3", "P3", "E3"), "and"),
    }
    assert {(d.parent, d.children, d.mode.value) for d in model.decompositions} == expected_edges
    assert {(a.source, a.target, a.label.value) for a in model.affects} == {
        ("ConU1", "At1", "FR"),
        ("ConU2", "At2", "NFR"),
        ("ComU1", "M1", "FR"),
        ("ComU2", "M1", "NFR"),
    }
