"""The dispatch verifier judges each candidate on the final state of a
whole model run: ``p`` the smaller final share, ``n`` the occupancy peak,
``p_north``, ``p_south`` and the candidate's ``t_dispatch``.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

import redapt
from redapt import cli
from redapt.engine import (
    ContractViolationError,
    EngineConfig,
    Parametric,
    ViolationType,
    invariant_verdict,
    resolve,
)
from redapt.hrcs import runner
from redapt.hrcs.simulator import RunCounts, Simulator, compute_metrics, simulate
from redapt.speclang import State, Verdict, parse_formula

GOAL = "Determine t_dispatch to make p > 50% and n < 350"


def dispatch_goal(specs, invariant=None):
    goal = resolve(specs, EngineConfig()).goals[GOAL]
    return goal if invariant is None else goal._replace(invariant=parse_formula(invariant))


def candidate(t_dispatch):
    return Parametric((("t_dispatch", t_dispatch),))


def verify(specs, scenario, goal, t_dispatch):
    verifiers = runner._Verifiers(resolve(specs, EngineConfig()), scenario, Simulator(scenario))
    return verifiers._verify_dispatch(goal, candidate(t_dispatch))


def full_run_judgement(scenario, goal, t_dispatch):
    """The verdict of the whole model run, judged on its final state only."""
    cfg = replace(scenario, t_dispatch_min=t_dispatch, sensor_faults=())
    metrics = compute_metrics(simulate(cfg, record_rows=False), cfg)
    state = State(cfg.duration_s, dict(
        p=min(metrics.p_north, metrics.p_south), n=metrics.n_peak, p_north=metrics.p_north,
        p_south=metrics.p_south, t_dispatch=t_dispatch,
    ))
    violated = invariant_verdict(goal, state) is Verdict.VIOL
    return ViolationType.CONU_FR if violated else ViolationType.NONE


@pytest.mark.parametrize("invariant", [
    None, "G(p >= 50% && n <= 200)", "G(p >= 50% && n <= 30)",
])
def test_a_model_run_decides_as_the_full_run(bundled_spec, experiment2, invariant):
    scenario = replace(experiment2, duration_min=90.0)
    goal = dispatch_goal(bundled_spec, invariant)
    for t_dispatch in (3.0, 4.0, 5.0, 6.0, 7.0, 8.0):
        expected = full_run_judgement(scenario, goal, t_dispatch)
        assert verify(bundled_spec, scenario, goal, t_dispatch) is expected, t_dispatch


@pytest.fixture
def model_runs(monkeypatch):
    """Each model run's config and trace, with ``runner.simulate`` still the
    one the tracer wraps."""
    runs = []

    def watched_simulate(cfg, **kwargs):
        trace = simulate(cfg, **kwargs)
        runs.append((cfg, trace))
        return trace

    monkeypatch.setattr(runner, "simulate", watched_simulate)
    return runs


def test_the_run_at_five_violates_on_its_final_peak(bundled_spec, experiment2, model_runs):
    goal = dispatch_goal(bundled_spec)
    assert verify(bundled_spec, experiment2, goal, 5.0) is ViolationType.CONU_FR
    [(cfg, trace)] = model_runs
    assert cfg.duration_s == experiment2.duration_s
    assert trace.n_peak > 350


def test_the_run_at_six_runs_to_the_end_and_passes(bundled_spec, experiment2, model_runs):
    goal = dispatch_goal(bundled_spec)
    assert verify(bundled_spec, experiment2, goal, 6.0) is ViolationType.NONE
    [(cfg, counts)] = model_runs
    assert (cfg.duration_s, cfg.t_dispatch_min) == (experiment2.duration_s, 6.0)
    assert type(counts) is RunCounts and 0 < counts.n_peak <= 350
    assert sum(counts.entered.values()) > sum(counts.exited.values())


def test_an_until_the_final_state_decides_does_not_read_its_left_side(
    bundled_spec, experiment2
):
    # the final peak satisfies `n <= 350`, so `U` never reads `F`, which a
    # model run does not predict
    goal = dispatch_goal(bundled_spec, "G(p >= 50% && ((F <= 100) U (n <= 350)))")
    assert verify(bundled_spec, experiment2, goal, 6.0) is ViolationType.NONE


def test_an_invariant_the_final_state_cannot_evaluate_names_what_a_model_run_predicts(
    bundled_spec, experiment2
):
    goal = dispatch_goal(bundled_spec, "G(p >= 50% && F <= 100)")
    with pytest.raises(ContractViolationError) as raised:
        verify(bundled_spec, replace(experiment2, duration_min=30.0), goal, 6.0)
    assert str(raised.value) == (
        f"the invariant of {GOAL!r} cannot be evaluated: variable 'F' is not bound and not in "
        "the state; a model run predicts only p, n, p_north, p_south and t_dispatch"
    )


def test_run_reports_what_a_model_run_predicts(tmp_path, spec_path, capsys):
    # the live cycle answers `F`; only the model run's prediction lacks it
    spec = tmp_path / "unpredicted.agmspec"
    spec.write_text(Path(spec_path).read_text().replace(
        "G(p >= 50% && n <= 350)", "G(p >= 50% && F <= 100)"))
    scenario = tmp_path / "scenario.json"
    short = json.loads(redapt.data_path("experiment2.json").read_text())
    short["duration_min"] = 45.0
    scenario.write_text(json.dumps(short))
    out = tmp_path / "o"
    code = cli.main(["run", "--spec", str(spec), "--scenario", str(scenario), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: the invariant of {GOAL!r} cannot be evaluated: ")
    assert err.rstrip().endswith(
        "; a model run predicts only p, n, p_north, p_south and t_dispatch")
    assert not out.exists() or list(out.iterdir()) == []
