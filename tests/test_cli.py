import json

import pytest

import redapt
from redapt.cli import main


def run_cli(*argv):
    return main(list(argv))


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

    def test_parse_error_exits_one_with_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.agmspec"
        bad.write_text('goal "x" {\n  invariant: G(p >= )\n}\n')
        assert run_cli("check", "--spec", str(bad)) == 1
        assert ":2:" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path):
        assert run_cli("check", "--spec", str(tmp_path / "absent.agmspec")) == 2


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

    def test_engine_config_is_honored(self, tmp_path, spec_path, scenario_path):
        engine_cfg = tmp_path / "engine.json"
        engine_cfg.write_text(json.dumps({"cycle_period_s": 120.0}))
        out = tmp_path / "o"
        run_cli("run", "--spec", spec_path, "--scenario", scenario_path,
                "--engine-config", str(engine_cfg), "--out", str(out))
        cycles = (out / "cycles.jsonl").read_text().splitlines()
        assert json.loads(cycles[0])["sim_time"] == 120.0


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

    def test_missing_trace_exits_two(self, tmp_path, spec_path):
        assert run_cli("verify", "--spec", spec_path, str(tmp_path / "nope.csv")) == 2

    def test_run_and_verify_round_trip(self, run_dir, spec_path):
        # any artifact written by run is consumable by verify without loss
        assert run_cli("verify", "--spec", spec_path, str(run_dir / "trace.csv")) == 0
