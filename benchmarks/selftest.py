"""Self-test of the benchmark's output checkers.

    python3 benchmarks/selftest.py

Runs each workload's program once (the soak shortened to six hours), then
asks every checker to accept the real artifacts and to reject copies with
one deliberate fault each: a trace row with n off by one, a cycles.jsonl
missing a swap, a flipped verdict, and so on.  Prints one line per case
and exits 1 if any checker accepts a fault or rejects the real thing.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


COPIES = itertools.count()


def corrupted(out: Path, name: str, edit) -> Path:
    """A copy of ``out`` whose file ``name`` went through ``edit(text)``."""
    copy = out.parent / f"{out.name}-{next(COPIES)}"
    shutil.copytree(out, copy)
    path = copy / name
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    return copy


def edit_cycles(change):
    def edit(text: str) -> str:
        cycles = [json.loads(line) for line in text.splitlines() if line]
        change(cycles)
        return "".join(json.dumps(c) + "\n" for c in cycles)

    return edit


def edit_row(index: int, column: str, change):
    def edit(text: str) -> str:
        lines = text.splitlines()
        header = lines[0].split(",")
        cells = lines[index + 1].split(",")
        k = header.index(column)
        cells[k] = change(cells[k])
        lines[index + 1] = ",".join(cells)
        return "\n".join(lines) + "\n"

    return edit


def first_cycle(cycles: list[dict], goal: str, kind: str) -> dict:
    return next(c for c in cycles if c["reconfiguration"].get(goal, {}).get("kind") == kind)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "tests"))
    import checks
    import workloads
    from oracle_eval import reference_verdict
    from redapt import cli
    from redapt.speclang import Verdict, evaluate
    from run import model_vehicles

    workdir = HERE / "runs" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    goals = (workloads.MONITOR_GOAL, workloads.GATE_GOAL)
    outcomes: list[bool] = []

    def expect(name: str, check, reject: bool) -> None:
        """Runs ``check`` now and reports whether it rejected as it should."""
        try:
            check()
            outcome = "accepted"
        except checks.CheckError as exc:
            outcome = f"rejected ({exc})"
        ok = outcome.startswith("rejected") == reject
        outcomes.append(ok)
        print(f"{'ok ' if ok else 'BAD'} {name}: {outcome[:140]}", flush=True)

    # exp2-adapt
    exp2 = workloads.make("exp2-adapt", ROOT, workdir, 1)
    out = workdir / "exp2"
    run_cli(cli, ["run", "--spec", str(exp2.spec), "--scenario", str(exp2.scenario), "--out", str(out)])
    code, stdout = run_cli(cli, ["verify", "--spec", str(exp2.verify_spec), str(out / "trace.csv")])
    rows = checks.read_csv(out / "trace.csv")
    model_run = functools.partial(model_vehicles, exp2.scenario_doc)

    def exp2_check(o: Path, runner=model_run):
        return lambda: checks.check_exp2(o, exp2.scenario_doc, runner)

    def drop_dispatch(cycles):
        first_cycle(cycles, workloads.DISPATCH_GOAL, "parametric")["reconfiguration"].pop(workloads.DISPATCH_GOAL)

    def p_south_up(text):
        doc = json.loads(text)
        doc["p_south"] += 0.01
        return json.dumps(doc)

    for case in [
        ("exp2: real artifacts", exp2_check(out), False),
        ("exp2: trace.csv row with n off by one", exp2_check(corrupted(out, "trace.csv", edit_row(
            5000, "n", lambda n: str(int(n) + 1)))), True),
        ("exp2: metrics.json p_south off", exp2_check(corrupted(out, "metrics.json", p_south_up)), True),
        ("exp2: cycles.jsonl missing the dispatch step",
         exp2_check(corrupted(out, "cycles.jsonl", edit_cycles(drop_dispatch))), True),
        ("exp2: a model run at 5 that meets the goal", exp2_check(out, lambda t: model_run(6.0)), True),
        ("exp2: verify output as printed", lambda: checks.check_verify(stdout, code, exp2.invariants, rows), False),
        ("exp2: verify with a flipped verdict", lambda: checks.check_verify(
            stdout.replace(": invariant: viol", ": invariant: sat"), code, exp2.invariants, rows), True),
        ("exp2: verify exiting 0", lambda: checks.check_verify(stdout, 0, exp2.invariants, rows), True),
    ]:
        expect(*case)

    # soak-mixed, six hours of it
    doc = workloads.soak_scenario(3, hours=6)
    scenario = workdir / "soak.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    out = workdir / "soak"
    run_cli(cli, ["run", "--spec", str(exp2.spec), "--scenario", str(scenario), "--out", str(out)])

    def soak_check(o: Path):
        return lambda: checks.check_faults(o, doc, goals)

    def drop_swap(cycles):
        first_cycle(cycles, workloads.MONITOR_GOAL, "structural")["reconfiguration"].pop(workloads.MONITOR_GOAL)

    def foreign_instance(cycles):
        first_cycle(cycles, workloads.MONITOR_GOAL, "structural")["reconfiguration"][
            workloads.MONITOR_GOAL]["replacements"][0]["instance"] = "ir_99"

    def weak_retiming(cycles):
        changes = first_cycle(cycles, workloads.GATE_GOAL, "parametric")["reconfiguration"][
            workloads.GATE_GOAL]["changes"]
        for change in changes:
            change["value"] = {"t_close": 3.0, "t_open": 5.0}[change["param"]]

    def cycle_error(cycles):
        cycles[10]["errors"].append("plan failed for 'x': injected")

    def shared_instance(cycles):
        readings = cycles[-1]["readings"]
        readings[1]["sensor_id"] = readings[0]["sensor_id"]

    def healthy_reading_off(cycles):
        cycles[3]["readings"][-1]["value"] += 1.0

    for case in [
        ("soak: real artifacts", soak_check(out), False),
        ("soak: cycles.jsonl missing a swap", soak_check(corrupted(out, "cycles.jsonl", edit_cycles(drop_swap))), True),
        ("soak: replacement outside the slot's family",
         soak_check(corrupted(out, "cycles.jsonl", edit_cycles(foreign_instance))), True),
        ("soak: retiming that leaves U_safety below 0.7",
         soak_check(corrupted(out, "cycles.jsonl", edit_cycles(weak_retiming))), True),
        ("soak: a cycle error", soak_check(corrupted(out, "cycles.jsonl", edit_cycles(cycle_error))), True),
        ("soak: one instance active in two slots",
         soak_check(corrupted(out, "cycles.jsonl", edit_cycles(shared_instance))), True),
        ("soak: a healthy reading that trace.csv does not hold",
         soak_check(corrupted(out, "cycles.jsonl", edit_cycles(healthy_reading_off))), True),
    ]:
        expect(*case)

    # verify-nested
    nested = workloads.make("verify-nested", ROOT, workdir, 2)
    out = workdir / "nested"
    run_cli(cli, ["run", "--spec", str(nested.spec), "--scenario", str(nested.scenario), "--out", str(out)])
    code, stdout = run_cli(cli, ["verify", "--spec", str(nested.verify_spec), str(out / "trace.csv")])
    rows = checks.read_csv(out / "trace.csv")
    flipped = stdout.replace(": invariant: inconclusive", ": invariant: sat", 1)
    for case in [
        ("nested: verify output as printed", lambda: checks.check_verify(stdout, code, nested.invariants, rows), False),
        ("nested: verify with a flipped verdict",
         lambda: checks.check_verify(flipped, code, nested.invariants, rows), True),
        ("nested: recording run faults", lambda: checks.check_faults(out, nested.scenario_doc, goals), False),
    ]:
        expect(*case)

    # the corpus
    corpus = workloads.make_corpus(4, 40, 12)
    pairs = corpus.pairs()
    got = [evaluate(f, t, 0, None, corpus.domains) for f, t in pairs]
    swap = {Verdict.SAT: Verdict.VIOL, Verdict.VIOL: Verdict.SAT, Verdict.INCONCLUSIVE: Verdict.SAT}
    wrong = list(got)
    wrong[len(wrong) // 2] = swap[wrong[len(wrong) // 2]]
    for case in [
        ("corpus: verdicts as evaluated",
         lambda: checks.check_corpus(got, pairs, corpus.domains, reference_verdict), False),
        ("corpus: one flipped verdict",
         lambda: checks.check_corpus(wrong, pairs, corpus.domains, reference_verdict), True),
    ]:
        expect(*case)

    shutil.rmtree(workdir, ignore_errors=True)
    print(f"{sum(outcomes)} of {len(outcomes)} cases behave")
    return 0 if all(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
