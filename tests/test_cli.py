import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import redapt
from redapt.cli import main


def run_cli(*argv):
    return main(list(argv))


def python(*argv):
    """A fresh interpreter with the source tree under test on its path."""
    env = dict(os.environ, PYTHONPATH=str(Path(redapt.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


def run_process(*argv):
    return python("-m", "redapt.cli", *argv)


NOT_UTF8 = b"\xff\xfe"
# a monitor that names no sensor class to gauge through, appended to a spec
CLASSLESS_MONITOR = (
    '\nmonitor "plan failed" {\n'
    '  from_goal: "Determine t_dispatch to make p > 50% and n < 350"\n}\n'
)
HUGE = 10**400  # an integer too large for a float
DISPATCH_INVARIANT = "G(p >= 50% && n <= 350)"  # the bundled spec's one affected invariant


@pytest.fixture()
def scenario_path():
    return str(redapt.data_path("sensor_failure.json"))


class TestCheck:
    def test_bundled_spec_is_clean(self, spec_path):
        assert run_cli("check", "--spec", spec_path) == 0

    def test_undeclared_symbol_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.agmspec"
        bad.write_text('goal "x" {\n  attributes:\n    numeric p\n  invariant: G(q >= 1)\n}\n')
        assert run_cli("check", "--spec", str(bad)) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "undeclared-symbol" in err[0]
        assert err[0].startswith(str(bad) + ":")

    def test_duplicate_entity_exits_one_at_the_second_header(self, tmp_path):
        spec = tmp_path / "dup.agmspec"
        spec.write_text('goal "g" {}\n\n  goal "g" {}\n')
        done = run_process("check", "--spec", str(spec))
        assert done.returncode == 1
        assert done.stderr == f"{spec}:3:3: parse-error: duplicate entity name 'g'\n"

    def test_monitor_without_a_class_exits_one(self, tmp_path, spec_path, capsys):
        text = Path(spec_path).read_text()
        spec = tmp_path / "classless.agmspec"
        spec.write_text(text + CLASSLESS_MONITOR)
        assert run_cli("check", "--spec", str(spec)) == 1
        (err,) = capsys.readouterr().err.strip().splitlines()
        line = text.count("\n") + 2
        assert err.startswith(f"{spec}:{line}:1: missing-class: ")
        assert err.endswith(": monitor entity must declare the sensor class it gauges through")

    def test_undeclared_plan_output_exits_one(self, tmp_path, spec_path, capsys):
        text = Path(spec_path).read_text()
        assert text.count("output: t_dispatch_new") == 1
        spec = tmp_path / "typo.agmspec"
        spec.write_text(text.replace("output: t_dispatch_new", "output: t_dispatcf_new"))
        assert run_cli("check", "--spec", str(spec)) == 1
        (err,) = capsys.readouterr().err.strip().splitlines()
        line = text[: text.index("output: t_dispatch_new")].count("\n") + 1
        assert err.startswith(f"{spec}:{line}:3: undeclared-io: ")
        assert "'t_dispatcf_new'" in err

    def test_parse_error_exits_one_with_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.agmspec"
        bad.write_text('goal "x" {\n  invariant: G(p >= )\n}\n')
        assert run_cli("check", "--spec", str(bad)) == 1
        assert ":2:" in capsys.readouterr().err

    def test_character_outside_the_lexical_rules_exits_one_with_position(self, tmp_path):
        # '²' is a digit to str.isdigit but not to float
        spec = tmp_path / "square.agmspec"
        spec.write_text('goal "x" {\n  attributes:\n    numeric x\n  invariant: x < 2\u00b2\n}\n')
        done = run_process("check", "--spec", str(spec))
        assert done.returncode == 1
        assert done.stderr == f"{spec}:4:19: parse-error: unexpected character '\u00b2'\n"

    def test_missing_file_exits_two(self, tmp_path):
        assert run_cli("check", "--spec", str(tmp_path / "absent.agmspec")) == 2

    def test_non_utf8_spec_exits_two_without_traceback(self, tmp_path):
        spec = tmp_path / "latin.agmspec"
        spec.write_bytes(NOT_UTF8)
        done = run_process("check", "--spec", str(spec))
        assert done.returncode == 2
        assert "not UTF-8" in done.stderr
        assert "Traceback" not in done.stderr

    def test_import_leaves_numpy_unloaded(self):
        # check and verify build no simulator, so they never need numpy
        done = python("-c", "import sys, redapt.cli; print('numpy' in sys.modules)")
        assert done.stdout.strip() == "False", done.stderr

    def test_import_leaves_the_goal_model_unloaded(self):
        # no command reads a goal model; the fixture that builds one is not imported
        done = python("-c", "import sys, redapt.cli; print('redapt.goalmodel' in sys.modules)")
        assert done.stdout.strip() == "False", done.stderr


class TestRun:
    def test_artifacts_written_and_exit_zero(self, tmp_path, spec_path, scenario_path, capsys):
        out = tmp_path / "artifacts"
        code = run_cli(
            "run", "--spec", spec_path, "--scenario", scenario_path, "--out", str(out)
        )
        assert code == 0
        for name in ("cycles.jsonl", "trace.csv", "vehicles.json", "metrics.json"):
            assert (out / name).exists()
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["structural_adaptations"] == 1
        assert metrics["plan_failures"] == 0
        stdout = capsys.readouterr().out
        assert json.loads(stdout)["adaptations"] == 1

    def test_seed_override_changes_trace(self, tmp_path, spec_path, scenario_path):
        first, second = tmp_path / "a", tmp_path / "b"
        run_cli("run", "--spec", spec_path, "--scenario", scenario_path,
                "--out", str(first), "--seed", "1")
        run_cli("run", "--spec", spec_path, "--scenario", scenario_path,
                "--out", str(second), "--seed", "2")
        assert (first / "trace.csv").read_text() != (second / "trace.csv").read_text()

    def test_bad_scenario_exits_one(self, tmp_path, spec_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"lambda_north": 10.0}))  # lambda_south missing
        assert run_cli(
            "run", "--spec", spec_path, "--scenario", str(scenario), "--out", str(tmp_path / "o")
        ) == 1

    def test_plan_failure_exits_three(self, tmp_path, spec_path):
        scenario = tmp_path / "scenario.json"
        base = json.loads(redapt.data_path("sensor_failure.json").read_text())
        base["standby_per_slot"] = 0  # nothing to swap in
        base["duration_min"] = 15.0
        scenario.write_text(json.dumps(base))
        code = run_cli(
            "run", "--spec", spec_path, "--scenario", str(scenario), "--out", str(tmp_path / "o")
        )
        assert code == 3
        cycles = (tmp_path / "o" / "cycles.jsonl").read_text().splitlines()
        assert any("plan failed" in line for line in cycles)

    def test_plan_failures_count_failed_plans_not_error_text(self, tmp_path, spec_path, capsys):
        # every cycle's monitoring fails with an error that names this entity,
        # whose class the target has no instances of; no goal is diagnosed,
        # so no plan runs
        spec = tmp_path / "named.agmspec"
        spec.write_text(Path(spec_path).read_text() + (
            '\nmonitor "plan failed" {\n'
            '  from_goal: "Determine t_dispatch to make p > 50% and n < 350"\n'
            '  attributes:\n    class I_nowhere\n}\n'
        ))
        scenario = tmp_path / "scenario.json"
        base = json.loads(redapt.data_path("experiment1.json").read_text())
        base["duration_min"] = 5.0
        scenario.write_text(json.dumps(base))
        code = run_cli("run", "--spec", str(spec), "--scenario", str(scenario),
                       "--out", str(tmp_path / "o"))
        cycles = (tmp_path / "o" / "cycles.jsonl").read_text().splitlines()
        assert len(cycles) == 5 and all("plan failed" in line for line in cycles)
        assert json.loads(capsys.readouterr().out)["plan_failures"] == 0
        assert code == 0

    def test_monitor_without_a_class_exits_one_before_the_run(self, tmp_path, spec_path):
        spec = tmp_path / "classless.agmspec"
        spec.write_text(Path(spec_path).read_text() + CLASSLESS_MONITOR)
        scenario = tmp_path / "scenario.json"
        base = json.loads(redapt.data_path("experiment1.json").read_text())
        base["duration_min"] = 5.0
        scenario.write_text(json.dumps(base))
        run = run_process("run", "--spec", str(spec), "--scenario", str(scenario),
                          "--out", str(tmp_path / "o"))
        assert run.returncode == 1
        assert "missing-class" in run.stderr and "Traceback" not in run.stderr
        assert run.stdout == "" and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("scenario", ["experiment1", "experiment2"])
    def test_goal_that_no_plan_serves_exits_one_before_the_run(self, tmp_path, spec_path, scenario):
        # the dispatch goal stays context-affected; a run would meet the
        # missing plan only at its first ConU_FR cycle, which experiment 1
        # never has
        text = Path(spec_path).read_text()
        start = text.index('plan "Decide t_dispatch to hold p and n" {')
        spec = tmp_path / "unplanned.agmspec"
        spec.write_text(text[:start] + text[text.index("\n}\n", start) + 3:])
        assert run_process("check", "--spec", str(spec)).returncode == 0
        out = tmp_path / "o"
        run = run_process("run", "--spec", str(spec), "--scenario",
                          str(redapt.data_path(f"{scenario}.json")), "--out", str(out))
        assert run.returncode == 1
        goal = "Determine t_dispatch to make p > 50% and n < 350"
        assert run.stderr == f"error: no plan entity serves goal {goal!r}\n"
        assert run.stdout == "" and list(out.iterdir()) == []

    def test_contract_violation_exits_one_without_traceback(self, tmp_path, spec_path):
        # renamed everywhere, the plan output is declared and passes check,
        # but it names no effector, so run must reject it
        text = Path(spec_path).read_text()
        assert "output: t_dispatch_new" in text
        spec = tmp_path / "typo.agmspec"
        spec.write_text(text.replace("t_dispatch_new", "t_dispatcf_new"))

        assert run_process("check", "--spec", str(spec)).returncode == 0
        run = run_process("run", "--spec", str(spec), "--scenario",
                          str(redapt.data_path("sensor_failure.json")), "--out", str(tmp_path / "o"))
        assert run.returncode == 1
        assert run.stderr.startswith("error: ")
        assert "t_dispatcf" in run.stderr
        assert "Traceback" not in run.stderr

    @pytest.mark.parametrize("edits, cause", [
        pytest.param(
            [("f_i, F, p, n\n", "f_i, F, p, n, zzz\n"), (DISPATCH_INVARIANT, "G(zzz >= 1)")],
            "variable 'zzz' is not bound", id="unprobed-variable",
        ),
        pytest.param([(DISPATCH_INVARIANT, "G(f(p) > 0)")], "function 'f'", id="function"),
        pytest.param(
            [("    class I_sensor\n  init.pre", "    class I_sensor\n    class I_radar\n  init.pre"),
             (DISPATCH_INVARIANT, "G(forall s in I_radar . s.value > 0)")],
            "quantifier domain 'I_radar'", id="ungauged-class",
        ),
    ])
    def test_invariant_the_target_cannot_answer_exits_one_without_traceback(
        self, tmp_path, spec_path, edits, cause
    ):
        text = Path(spec_path).read_text()
        for old, new in edits:
            assert text.count(old) == 1
            text = text.replace(old, new)
        spec = tmp_path / "unanswerable.agmspec"
        spec.write_text(text)
        scenario = tmp_path / "scenario.json"
        short = json.loads(redapt.data_path("experiment1.json").read_text())
        short["duration_min"] = 2.0
        scenario.write_text(json.dumps(short))
        assert run_process("check", "--spec", str(spec)).returncode == 0
        out = tmp_path / "o"
        run = run_process("run", "--spec", str(spec), "--scenario", str(scenario), "--out", str(out))
        assert run.returncode == 1
        goal = "Determine t_dispatch to make p > 50% and n < 350"
        assert run.stderr.startswith(f"error: the invariant of {goal!r} cannot be evaluated: ")
        assert cause in run.stderr and "Traceback" not in run.stderr
        assert run.stdout == "" and list(out.iterdir()) == []

    def test_dispatch_candidates_are_judged_by_the_goals_own_invariant(
        self, tmp_path, spec_path, capsys
    ):
        # no interval in the search domain keeps a model run's occupancy peak
        # within 30, so every cycle steps the interval to its bound and fails
        spec = tmp_path / "tight.agmspec"
        spec.write_text(Path(spec_path).read_text().replace(
            DISPATCH_INVARIANT, "G(p >= 50% && n <= 30)"))
        scenario = tmp_path / "scenario.json"
        short = json.loads(redapt.data_path("experiment2.json").read_text())
        short["duration_min"] = 10.0
        scenario.write_text(json.dumps(short))
        out = tmp_path / "o"
        code = run_cli("run", "--spec", str(spec), "--scenario", str(scenario), "--out", str(out))
        assert code == 3
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["plan_failures"] == 10
        assert metrics["final_parameters"]["t_dispatch"] == 5.0
        goal = "Determine t_dispatch to make p > 50% and n < 350"
        cycles = [json.loads(line) for line in (out / "cycles.jsonl").read_text().splitlines()]
        assert len(cycles) == 10
        for cycle in cycles:
            assert cycle["violation"][goal] == "ConU_FR" and cycle["reconfiguration"] == {}
            [error] = cycle["errors"]
            assert error.startswith(f"plan failed for {goal!r}: ")
            assert "clamped at their domain bounds" in error

    def test_invariant_a_model_run_cannot_answer_exits_one_without_traceback(
        self, tmp_path, spec_path
    ):
        # the target probes the flow F, so every cycle evaluates the
        # invariant; a model run predicts p and n but no F.  The first
        # violation, and with it the first model run, is at t = 2,520 s
        spec = tmp_path / "unpredicted.agmspec"
        spec.write_text(Path(spec_path).read_text().replace(
            DISPATCH_INVARIANT, "G(p >= 50% && F <= 100)"))
        scenario = tmp_path / "scenario.json"
        short = json.loads(redapt.data_path("experiment2.json").read_text())
        short["duration_min"] = 45.0
        scenario.write_text(json.dumps(short))
        out = tmp_path / "o"
        run = run_process("run", "--spec", str(spec), "--scenario", str(scenario), "--out", str(out))
        assert run.returncode == 1
        goal = "Determine t_dispatch to make p > 50% and n < 350"
        assert run.stderr.startswith(f"error: the invariant of {goal!r} cannot be evaluated: ")
        assert "variable 'F' is not bound" in run.stderr and "Traceback" not in run.stderr
        assert run.stdout == "" and list(out.iterdir()) == []

    @pytest.mark.parametrize("limit", ["n_limit", "p_min"])
    def test_scenario_naming_a_goal_limit_exits_one(self, tmp_path, spec_path, limit):
        # the limits are the goal's invariant's, and a scenario has none
        scenario = tmp_path / "scenario.json"
        base = json.loads(redapt.data_path("experiment1.json").read_text())
        base[limit] = 350
        scenario.write_text(json.dumps(base))
        out = tmp_path / "o"
        run = run_process("run", "--spec", spec_path, "--scenario", str(scenario), "--out", str(out))
        assert run.returncode == 1
        assert run.stderr.startswith("error: ")
        assert f"unexpected keyword argument '{limit}'" in run.stderr
        assert "Traceback" not in run.stderr and not out.exists()

    def test_output_path_that_is_a_file_exits_one_without_traceback(self, tmp_path, spec_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        scenario = tmp_path / "scenario.json"
        short = json.loads(redapt.data_path("experiment1.json").read_text())
        short["duration_min"] = 2.0
        scenario.write_text(json.dumps(short))
        done = run_process("run", "--spec", spec_path, "--scenario", str(scenario),
                           "--out", str(taken))
        assert done.returncode == 1
        assert done.stderr.startswith("error: ")
        assert "Traceback" not in done.stderr
        assert taken.read_text() == ""

    def test_output_directory_is_made_before_the_run(self, tmp_path, spec_path, scenario_path,
                                                     monkeypatch):
        from redapt import cli

        def never(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "run_scenario", never)
        (tmp_path / "taken").write_text("")
        assert run_cli("run", "--spec", spec_path, "--scenario", scenario_path,
                       "--out", str(tmp_path / "taken" / "sub")) == 1

    @pytest.mark.parametrize("interval", [7.0, 0.1])
    def test_cycle_between_sample_instants_exits_one_without_artifacts(
        self, tmp_path, spec_path, interval, capsys
    ):
        # 60 s is no multiple of 7 s, and sample instants accumulate: 600
        # steps of 0.1 s add up to just over 60 s.  Either way the first
        # cycle has no row of its own.
        scenario = json.loads(redapt.data_path("experiment1.json").read_text())
        scenario.update(duration_min=10.0, sample_interval_s=interval)
        scenario_file = tmp_path / "scenario.json"
        scenario_file.write_text(json.dumps(scenario))
        out = tmp_path / "o"
        code = run_cli("run", "--spec", spec_path, "--scenario", str(scenario_file),
                       "--out", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the cycle at 60.0 s falls between sample instants"), err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("option", ["--spec", "--scenario", "--engine-config"])
    def test_non_utf8_input_exits_one_without_traceback(self, tmp_path, spec_path, scenario_path,
                                                         option):
        argv = {"--spec": spec_path, "--scenario": scenario_path, "--engine-config": None}
        argv[option] = str(tmp_path / "latin")
        (tmp_path / "latin").write_bytes(NOT_UTF8)
        done = run_process("run", *(f"{k}={v}" for k, v in argv.items() if v),
                           "--out", str(tmp_path / "o"))
        assert done.returncode == 1
        assert done.stderr.startswith("error: ")
        assert "not UTF-8" in done.stderr
        assert "Traceback" not in done.stderr
        assert not (tmp_path / "o").exists()

    def test_engine_config_is_honored(self, tmp_path, spec_path, scenario_path):
        engine_cfg = tmp_path / "engine.json"
        engine_cfg.write_text(json.dumps({"cycle_period_s": 120.0}))
        out = tmp_path / "o"
        run_cli("run", "--spec", spec_path, "--scenario", scenario_path,
                "--engine-config", str(engine_cfg), "--out", str(out))
        cycles = (out / "cycles.jsonl").read_text().splitlines()
        assert json.loads(cycles[0])["sim_time"] == 120.0

    def test_engine_config_keeps_the_crossing_settings_it_does_not_name(self, tmp_path, spec_path):
        engine_cfg = tmp_path / "engine.json"
        engine_cfg.write_text(json.dumps({"cycle_period_s": 120}))
        out = tmp_path / "o"
        assert run_cli("run", "--spec", spec_path,
                       "--scenario", str(redapt.data_path("nfr_lowlight.json")),
                       "--engine-config", str(engine_cfg), "--out", str(out)) == 0
        changes = [
            [(c["param"], c["value"]) for c in entry["changes"]]
            for line in (out / "cycles.jsonl").read_text().splitlines()
            for entry in json.loads(line)["reconfiguration"].values()
        ]
        assert changes and all(c == [("t_close", 1.5), ("t_open", 6.5)] for c in changes)

    def test_retiming_is_verified_against_the_goals_own_threshold(self, tmp_path, spec_path):
        # no gate timing within the search domains reaches 0.9 (the best is
        # 5/6), so a threshold keyed by the goal's name ends in a plan failure
        goal = "Keep safety efficiency above the desired level under low illuminance"
        engine_cfg = tmp_path / "engine.json"
        engine_cfg.write_text(json.dumps({"desired_utilities": {goal: 0.9}}))
        assert run_cli("run", "--spec", spec_path,
                       "--scenario", str(redapt.data_path("nfr_lowlight.json")),
                       "--engine-config", str(engine_cfg), "--out", str(tmp_path / "o")) == 3

    def test_dispatch_candidate_the_scenario_rejects_is_a_plan_failure(self, tmp_path, spec_path):
        # stepping down, the interval soon gets shorter than the gate's
        # closure, which the scenario does not admit; the first re-plan is at
        # t = 2,520 s
        scenario = tmp_path / "scenario.json"
        base = json.loads(redapt.data_path("experiment2.json").read_text())
        base["duration_min"] = 45.0
        scenario.write_text(json.dumps(base))
        engine_cfg = tmp_path / "engine.json"
        # the step mapping replaces the crossing's whole, so it names all three
        steps = {"t_dispatch": -1.0, "t_close": -0.5, "t_open": 0.5}
        engine_cfg.write_text(json.dumps({"param_step": steps}))
        done = run_process("run", "--spec", spec_path, "--scenario", str(scenario),
                           "--engine-config", str(engine_cfg), "--out", str(tmp_path / "o"))
        assert done.returncode == 3, done.stderr
        assert "Traceback" not in done.stderr
        assert json.loads(done.stdout)["plan_failures"] >= 1

    def test_plan_parameter_without_a_step_exits_one_before_the_run(self, tmp_path, spec_path):
        # the mapping replaces the crossing's whole, so t_close and t_open
        # are left without a step, which the planner would meet only in the
        # first dark cycle
        engine_cfg = tmp_path / "engine.json"
        engine_cfg.write_text(json.dumps({"param_step": {"t_dispatch": 2}}))
        done = run_process("run", "--spec", spec_path,
                           "--scenario", str(redapt.data_path("nfr_lowlight.json")),
                           "--engine-config", str(engine_cfg), "--out", str(tmp_path / "o"))
        assert done.returncode == 1, done.stderr
        assert done.stderr.startswith("error: ")
        assert "'t_close'" in done.stderr and "'t_open'" in done.stderr
        assert "'t_dispatch'" not in done.stderr
        assert "Traceback" not in done.stderr
        assert done.stdout == ""
        assert not (tmp_path / "o" / "cycles.jsonl").exists()

    def test_misspelt_desired_utility_exits_one_before_the_run(self, tmp_path, spec_path):
        # with the key ignored, no retiming would be judged against a threshold
        engine_cfg = tmp_path / "engine.json"
        engine_cfg.write_text(json.dumps({"desired_utilities": {"U_safty": 0.7}}))
        done = run_process("run", "--spec", spec_path,
                           "--scenario", str(redapt.data_path("nfr_lowlight.json")),
                           "--engine-config", str(engine_cfg), "--out", str(tmp_path / "o"))
        assert done.returncode == 1, done.stderr
        assert done.stderr == (
            "error: desired_utilities names 'U_safty', which is neither an affected goal "
            "nor its utility attribute\n"
        )
        assert done.stdout == ""
        assert not (tmp_path / "o").exists() or list((tmp_path / "o").iterdir()) == []

    @pytest.mark.parametrize(
        "override",
        [{"standby_per_slot": 1.5}, {"flow_sensor_count": 2.5}, {"lux_sensor_count": -3}],
    )
    def test_fractional_or_negative_sensor_count_exits_one(self, tmp_path, spec_path, override,
                                                           capsys):
        scenario = tmp_path / "scenario.json"
        base = json.loads(redapt.data_path("sensor_failure.json").read_text())
        scenario.write_text(json.dumps({**base, **override}))
        assert run_cli("run", "--spec", spec_path, "--scenario", str(scenario),
                       "--out", str(tmp_path / "o")) == 1
        (name,) = override
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} ") and "must be a non-negative integer" in err
        assert not (tmp_path / "o").exists()

    def test_scenario_too_large_to_allocate_exits_one(self, tmp_path, spec_path):
        # the flow window would be pre-filled with 10**13 expected arrivals; the
        # address-space cap turns a run that allocates them into a MemoryError
        scenario = tmp_path / "scenario.json"
        base = json.loads(redapt.data_path("sensor_failure.json").read_text())
        scenario.write_text(json.dumps({**base, "lambda_north": 1e12}))
        cap = 1 << 30

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=str(Path(redapt.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "redapt.cli", "run", "--spec", spec_path,
             "--scenario", str(scenario), "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env=env, preexec_fn=cap_address_space, timeout=120,
        )
        assert done.returncode == 1, done.stderr
        assert done.stderr.startswith("error: ") and "flow window" in done.stderr
        assert "Traceback" not in done.stderr

    def test_sample_interval_too_small_to_move_the_clock_exits_one(self, tmp_path, spec_path):
        # past about 1e-4 s, adding 1e-20 s leaves the clock where it is, so
        # a run with no bound on its sample instants never ends
        scenario = tmp_path / "scenario.json"
        base = json.loads(redapt.data_path("experiment1.json").read_text())
        scenario.write_text(json.dumps({**base, "sample_interval_s": 1e-20}))
        env = dict(os.environ, PYTHONPATH=str(Path(redapt.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "redapt.cli", "run", "--spec", spec_path,
             "--scenario", str(scenario), "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 1, done.stderr
        assert done.stderr.startswith("error: ") and "sample instants" in done.stderr
        assert "Traceback" not in done.stderr
        assert not (tmp_path / "o").exists()

    def test_scenario_expecting_too_many_vehicles_exits_one(self, tmp_path, spec_path):
        # about 3.3e10 vehicles, which would take days to run; the timeout
        # fails the test should the run start
        scenario = tmp_path / "scenario.json"
        base = json.loads(redapt.data_path("experiment1.json").read_text())
        scenario.write_text(json.dumps({**base, "duration_min": 1e9, "sample_interval_s": 1e6}))
        env = dict(os.environ, PYTHONPATH=str(Path(redapt.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "redapt.cli", "run", "--spec", spec_path,
             "--scenario", str(scenario), "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 1, done.stderr
        assert done.stderr.startswith("error: ") and "vehicles expected" in done.stderr
        assert "Traceback" not in done.stderr
        assert not (tmp_path / "o").exists()

    def test_bad_seed_exits_one_without_traceback(self, tmp_path, spec_path, scenario_path):
        done = run_process("run", "--spec", spec_path, "--scenario", scenario_path,
                           "--out", str(tmp_path / "o"), "--seed", "-1")
        assert done.returncode == 1
        assert done.stderr.startswith("error: seed -1 ")
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize(
        "where, doc",
        [
            ("scenario", {"seed": HUGE}),
            ("scenario", {"duration_min": HUGE}),
            ("seed", None),
            ("engine", {"cycle_period_s": HUGE}),
            ("engine", {"param_step": {"t_dispatch": HUGE}}),
        ],
    )
    def test_integer_too_large_for_a_float_exits_one_without_traceback(
        self, tmp_path, spec_path, where, doc
    ):
        # math.isfinite raises OverflowError on such an integer
        scenario = json.loads(redapt.data_path("experiment1.json").read_text())
        argv = ["--out", str(tmp_path / "o")]
        if where == "scenario":
            scenario.update(doc)
        elif where == "seed":
            argv += ["--seed", str(HUGE)]
        else:
            engine_cfg = tmp_path / "engine.json"
            engine_cfg.write_text(json.dumps(doc))
            argv += ["--engine-config", str(engine_cfg)]
        scenario_file = tmp_path / "scenario.json"
        scenario_file.write_text(json.dumps(scenario))
        done = run_process("run", "--spec", spec_path, "--scenario", str(scenario_file), *argv)
        assert done.returncode == 1, done.stderr
        assert done.stderr.startswith("error: ")
        assert "Traceback" not in done.stderr
        assert not (tmp_path / "o").exists()


class TestVerify:
    @pytest.fixture()
    def run_dir(self, tmp_path, spec_path, scenario_path):
        out = tmp_path / "artifacts"
        run_cli("run", "--spec", spec_path, "--scenario", scenario_path, "--out", str(out))
        return out

    def test_clean_trace_exits_zero(self, run_dir, spec_path, capsys):
        assert run_cli("verify", "--spec", spec_path, str(run_dir / "trace.csv")) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert any("invariant" in line for line in lines)
        assert not any(": viol" in line for line in lines)

    def test_violating_trace_exits_one(self, tmp_path, spec_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text(
            "time,E,n,gate,p_north,p_south,p,U_safety,U_pass\n"
            "0,100,10,open,1,1,1,1,1\n"
            "1,100,400,open,0.3,0.4,0.3,1,1\n"
        )
        assert run_cli("verify", "--spec", spec_path, str(trace)) == 1
        out = capsys.readouterr().out
        assert "Determine t_dispatch to make p > 50% and n < 350: invariant: viol" in out

    def test_empty_trace_exits_two(self, tmp_path, spec_path):
        trace = tmp_path / "trace.csv"
        trace.write_text("time,E,n\n")
        assert run_cli("verify", "--spec", spec_path, str(trace)) == 2

    def test_unevaluable_invariant_exits_two(self, tmp_path, capsys):
        # F is a variable the engine sees but trace.csv does not record
        spec = tmp_path / "flow.agmspec"
        spec.write_text(
            'goal "Flow bounded" {\n  attributes:\n    numeric F\n  invariant: G(F <= 100)\n}\n'
        )
        trace = tmp_path / "trace.csv"
        trace.write_text("time,n\n0,10\n1,12\n")
        assert run_cli("check", "--spec", str(spec)) == 0
        assert run_cli("verify", "--spec", str(spec), str(trace)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Flow bounded: ")
        assert "'F'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("cell", ["", "soon", "nan", "inf"])
    def test_bad_time_cell_exits_two(self, tmp_path, spec_path, cell, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text(f"time,n,p,U_safety,U_pass\n0,10,1,1,1\n{cell},11,1,1,1\n")
        assert run_cli("verify", "--spec", spec_path, str(trace)) == 2
        assert capsys.readouterr().err.startswith("error: trace row 2: time ")

    def test_duplicate_column_exits_two(self, tmp_path, spec_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("time,n,p,n,U_safety,U_pass\n0,10,1,10,1,1\n")
        assert run_cli("verify", "--spec", spec_path, str(trace)) == 2
        assert capsys.readouterr().err == "error: trace header names column 'n' twice\n"

    def test_non_utf8_trace_exits_two_without_traceback(self, tmp_path, spec_path):
        trace = tmp_path / "trace.csv"
        trace.write_bytes(b"time,n\n0," + NOT_UTF8 + b"\n")
        done = run_process("verify", "--spec", spec_path, str(trace))
        assert done.returncode == 2
        assert done.stderr.startswith("error: ")
        assert "not UTF-8" in done.stderr
        assert "Traceback" not in done.stderr

    def test_missing_trace_exits_two(self, tmp_path, spec_path):
        assert run_cli("verify", "--spec", spec_path, str(tmp_path / "nope.csv")) == 2

    def test_run_and_verify_round_trip(self, run_dir, spec_path):
        # any artifact written by run is consumable by verify without loss
        assert run_cli("verify", "--spec", spec_path, str(run_dir / "trace.csv")) == 0
