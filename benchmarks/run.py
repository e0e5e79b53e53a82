"""Benchmark of `redapt check / run / verify` and the spec evaluator.

    python3 benchmarks/run.py --workload exp2-adapt --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``.  One process runs one workload: it makes the inputs from
``--seed``, then repeats whole rounds (check, run, verify, corpus
evaluation) for ``--seconds``, measuring set-up in a fresh interpreter
before each round.  It checks the first round's outputs against references
written apart from the program, and that every later round produced the
same bytes and verdicts.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer metrics, taken from
spans, with ``--trace 1``.  README.md in this directory says what each
metric means and why timings are scaled to a reference host speed.
"""

from __future__ import annotations

import os

# one thread: numpy's BLAS pool would otherwise start a thread per core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("REDAPT_LOG", None)

import argparse
import contextlib
import functools
import heapq
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from checks import hashes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_MIN = 7  # set-up is measured before every round, and at least this often

# what one fresh interpreter does before it could serve its first command
SETUP_CHILD = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from redapt.cli import main
from redapt.hrcs.simulator import ScenarioConfig
from redapt.speclang import check_wellformed, parse_document
for spec in sys.argv[2:-1]:
    if check_wellformed(parse_document(Path(spec).read_text(encoding="utf-8"))):
        sys.exit(spec + " is not well formed")
ScenarioConfig.from_json(Path(sys.argv[-1]).read_text(encoding="utf-8"))
print("ready", flush=True)
"""


# Timings are scaled to a reference host speed.  On a shared 2-vCPU virtual
# machine a pure-Python loop's speed was seen to move by a factor of up to
# 1.8 within minutes, and to stay slow for whole 30 s runs, which no
# statistic over one run can remove.  So every timed operation is bracketed by a fixed
# calibration kernel, and its time is multiplied by REFERENCE_KERNEL_S over
# the kernel's time around it.  The kernel is benchmark code, so a change
# to the program moves the scaled figures as much as the raw ones.
REFERENCE_KERNEL_S = 0.005
PROBE_EVERY = 48  # cycles between kernel probes inside `redapt run`


def kernel() -> float:
    """Seconds for a fixed job shaped like the program's work: integer
    arithmetic, a heap of event tuples, string-keyed dicts, small dicts."""
    started = perf_counter()
    total = 0
    for i in range(20000):
        total += i * i % 7
    heap, table, items = [], {}, []
    for i in range(2500):
        heapq.heappush(heap, ((i * 7919) % 10007, i, "event"))
        key = "k%d" % (i % 300)
        table[key] = table.get(key, 0) + i
        items.append({"time": float(i), "value": key, "n": total})
    while heap:
        heapq.heappop(heap)
    return perf_counter() - started


def calibrated(operation):
    """Runs ``operation()`` between two kernel measurements; returns its
    result and the factor that scales its time to the reference speed."""
    result, before, after = bracketed(operation)
    return result, REFERENCE_KERNEL_S / ((before + after) / 2)


def bracketed(operation):
    """``operation()``'s result, with the kernel's time just before and after."""
    before = statistics.median(kernel() for _ in range(3))
    result = operation()
    after = statistics.median(kernel() for _ in range(3))
    return result, before, after


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # nearest rank
    return ordered[int(rank) - 1]


def measure_setup(specs: list[Path], scenario: Path) -> float:
    """Seconds from starting a fresh interpreter to the point where it has
    imported the CLI, parsed and checked the specs, and loaded the scenario."""
    argv = [sys.executable, "-c", SETUP_CHILD, str(ROOT / "src"), *map(str, specs), str(scenario)]
    started = perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
        line = child.stdout.readline()
        ready = perf_counter()
        child.stdout.read()
        code = child.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up child ended with {code}: {line!r}")
    return ready - started


def scaled_setup(specs: list[Path], scenario: Path) -> float:
    seconds, factor = calibrated(lambda: measure_setup(specs, scenario))
    return seconds * factor


class Bench:
    def __init__(self, wl, workdir: Path, tracer, timer):
        from redapt import cli
        from redapt.speclang import evaluate
        from workloads import make_corpus

        self.wl = wl
        self.workdir = workdir
        self.cli = cli
        # taken before the tracer patches the call sites, so that the
        # benchmark's own evaluations are not counted as the program's
        self.evaluate = evaluate
        self.trace_from_csv = cli.trace_from_csv
        self.tracer = tracer
        self.timer = timer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rounds: list[dict] = []
        self.first: dict = {}
        self.corpus = make_corpus(wl.seed, wl.corpus_formulas, wl.corpus_traces)
        self.pairs = self.corpus.pairs()

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def command(self, argv: list[str], expect: tuple[int, ...]):
        """One CLI call; returns (seconds, exit code, stdout), or None when it
        raised or exited with a code that is no answer."""
        self.attempted += 1
        buf = io.StringIO()
        started = perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(argv)
        except Exception:  # a crashing command is a failed operation, not the end of the run
            traceback.print_exc()
            self.failed += 1
            return None
        elapsed = perf_counter() - started
        if code not in expect:
            print(f"redapt {argv[0]} exited {code}", file=sys.stderr)
            self.failed += 1
            return None
        return elapsed, code, buf.getvalue()

    def round(self, index: int) -> None:
        wl = self.wl
        out = self.workdir / f"round{index}"
        trace_csv = out / "trace.csv"
        record: dict = {"verify_s": [], "corpus_s": []}  # times scaled to the reference speed
        verified = []
        with self.span("bench.round"):
            with self.span("bench.check"):
                self.command(["check", "--spec", str(wl.checked_spec)], (0,))
            with self.span("bench.run"):
                done, before, after = bracketed(lambda: self.command(
                    ["run", "--spec", str(wl.spec), "--scenario", str(wl.scenario), "--out", str(out)], (0,)
                ))
            if done:
                self.scale_run(record, done[0], before, after)
            for _ in range(wl.repeats):
                with self.span("bench.verify"):
                    done, factor = calibrated(lambda: self.command(
                        ["verify", "--spec", str(wl.verify_spec), str(trace_csv)], (0, 1)
                    ))
                if done:
                    record["verify_s"].append(done[0] * factor)
                    verified.append(done[1:])
            for _ in range(wl.repeats):
                with self.span("bench.corpus"):
                    (verdicts, corpus_s), factor = calibrated(self.evaluate_corpus)
                record["corpus_s"].append(corpus_s * factor)
            if self.tracer:
                self.evaluate_halves(trace_csv)
        self.rounds.append(record)

        outcome = {"files": hashes(out) if out.is_dir() else {}, "verify": verified, "corpus": verdicts}
        if index == 0:
            self.first = outcome
        else:
            for key in outcome:
                if outcome[key] != self.first[key]:
                    self.problems.append(f"round {index}: {key} differs from round 0")
            shutil.rmtree(out, ignore_errors=True)

    def scale_run(self, record: dict, seconds: float, before: float, after: float) -> None:
        """Scales the run and its cycles.  In the untraced run the kernel
        also ran between cycles: its time comes off the run's, and each
        cycle takes the mean of the two kernel samples around its stretch."""
        cycles, probes = self.timer.take() if self.timer else ([], [])
        samples = [before] + [p for _, p in probes] + [after]
        run_factor = REFERENCE_KERNEL_S / statistics.median(samples)
        record["run_s"] = (seconds - sum(p for _, p in probes)) * run_factor
        record["run_factor"] = run_factor

        def cycle_factor(i: int) -> float:
            # probe j ran before cycle j * PROBE_EVERY; samples[j + 1] is probe j
            j = i // PROBE_EVERY
            return 2 * REFERENCE_KERNEL_S / (samples[j + 1] + samples[j + 2])

        record["cycles"] = [(s * cycle_factor(i), applied) for i, (s, applied) in enumerate(cycles)]

    def evaluate_corpus(self) -> tuple[list, float]:
        evaluate, domains = self.evaluate, self.corpus.domains
        verdicts = []
        started = perf_counter()
        for formula, trace in self.pairs:
            try:
                verdicts.append(evaluate(formula, trace, 0, None, domains))
            except Exception:  # counted and reported; the corpus goes on
                verdicts.append(None)
                self.failed += 1
        elapsed = perf_counter() - started
        self.attempted += len(self.pairs)
        return verdicts, elapsed

    def evaluate_halves(self, trace_csv: Path) -> None:
        """The verify spec's invariants over the first half of the trace and
        over all of it: the ratio of the two gives the order of growth."""
        from redapt.speclang import INVARIANT_KINDS, Trace, parse_document

        if not trace_csv.exists():
            return
        specs = parse_document(self.wl.verify_spec.read_text(encoding="utf-8"))
        formulas = [e.invariant for e in specs.entities if e.kind in INVARIANT_KINDS and e.invariant]
        full = self.trace_from_csv(trace_csv.read_text(encoding="utf-8"))
        half = Trace(full.states[: len(full.states) // 2])
        for name, trace in (("bench.nested_half", half), ("bench.nested_full", full)):
            with self.span(name):
                for formula in formulas:
                    self.evaluate(formula, trace, 0)

    def check(self) -> bool:
        """Checks the first round's outputs; later rounds were compared to it."""
        import checks
        from workloads import GATE_GOAL, MONITOR_GOAL

        sys.path.insert(0, str(ROOT / "tests"))
        from oracle_eval import reference_verdict

        wl, out = self.wl, self.workdir / "round0"
        try:
            rows = checks.read_csv(out / "trace.csv")
            checks.require(len(self.first["verify"]) == wl.repeats, "a verify call failed")
            code, stdout = self.first["verify"][0]
            checks.check_verify(stdout, code, wl.invariants, rows)
            checks.check_corpus(self.first["corpus"], self.pairs, self.corpus.domains, reference_verdict)
            if wl.expect_adaptation:
                checks.check_exp2(out, wl.scenario_doc, functools.partial(model_vehicles, wl.scenario_doc))
            if wl.faults_checked:
                checks.check_faults(out, wl.scenario_doc, (MONITOR_GOAL, GATE_GOAL))
        except (checks.CheckError, OSError, KeyError, IndexError, ValueError) as exc:
            self.problems.append(f"{type(exc).__name__}: {exc}")
        for problem in self.problems:
            print(f"check failed: {problem}", file=sys.stderr)
        return not self.problems


def model_vehicles(scenario_doc: dict, t_dispatch: float) -> list[dict]:
    """Vehicles of a model run: the scenario simulated without faults under
    the given dispatch interval, as the dispatch verifier models it."""
    from dataclasses import replace

    from redapt.hrcs.simulator import ScenarioConfig, simulate

    cfg = ScenarioConfig.from_dict(scenario_doc)
    trace = simulate(replace(cfg, t_dispatch_min=t_dispatch, sensor_faults=()))
    return [
        {"entry_time": v.entry_time, "exit_time": v.exit_time, "direction": v.direction}
        for v in trace.vehicles
    ]


def end_to_end(bench: Bench, setup: list[float], rows: int, peak_rss_mib: float) -> dict:
    """Medians over the run's rounds (and, for cycles, over every cycle of
    the run), all times scaled to the reference speed."""
    rounds = [r for r in bench.rounds if "run_s" in r]
    sim_min = bench.wl.scenario_doc["duration_min"]
    cycles = [s * 1e3 for r in rounds for s, _ in r["cycles"]]
    adapting = [s * 1e3 for r in rounds for s, applied in r["cycles"] if applied]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "run.sim_min_per_s": (statistics.median(sim_min / r["run_s"] for r in rounds), "sim-min/s"),
        "verify.rows_per_s": (statistics.median(rows / t for r in bench.rounds for t in r["verify_s"]), "rows/s"),
        "cycle_ms.p50": (statistics.median(cycles), "ms"),
        "cycle_ms.p95": (percentile(cycles, 95), "ms"),
        "adapt_ms.p50": (statistics.median(adapting), "ms"),
        "eval.pairs_per_s": (statistics.median(len(bench.pairs) / t for r in bench.rounds for t in r["corpus_s"]), "pairs/s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }


LAYER_TIMES = {
    # metric: (span name, "self" or "dur", per verify call or corpus pass)
    "spec.parse_ms": ("speclang.parse_document", "self", False),
    "spec.wellformed_ms": ("speclang.check_wellformed", "self", False),
    "eval.verify_ms": ("cli.evaluate", "dur", True),
    "verify.csv_read_ms": ("cli.trace_from_csv", "dur", True),
    "eval.nested_ms.half": ("bench.nested_half", "dur", False),
    "eval.nested_ms.full": ("bench.nested_full", "dur", False),
    "eval.corpus_ms": ("bench.corpus", "dur", True),
    "artifacts.write_ms": ("runner.write_artifacts", "self", False),
}
ENGINE_STAGES = {
    # metric: (span name, "self" or "dur"), per cycle
    "engine.monitor_ms": ("engine.monitor_step", "self"),
    "engine.diagnose_ms": ("engine.diagnose", "self"),
    "engine.plan_ms": ("engine.plan", "self"),
    "engine.execute_ms": ("engine.execute", "self"),
    "engine.eval_ms": ("engine.evaluate", "dur"),
    "engine.cycle_self_ms": ("engine.cycle", "self"),
}


def per_layer(bench: Bench, tracer, trace_csv_bytes: int) -> dict:
    """Per-round layer figures from the spans, times scaled by the round's
    run factor; medians over rounds, counts from the last round (they
    repeat exactly)."""
    from tracing import self_times

    spans = tracer.spans
    own = self_times(spans)
    starts = [i for i, s in enumerate(spans) if s[0] == "bench.round"] + [len(spans)]
    rounds: list[dict[str, float]] = []
    for lo, hi in zip(starts, starts[1:]):
        total: dict[tuple[str, str], float] = {}
        count: dict[str, int] = {}
        cycle_ms: list[float] = []
        model_ms: list[float] = []
        for i in range(lo, hi):
            name, start, end, parent = spans[i]
            count[name] = count.get(name, 0) + 1
            total[name, "self"] = total.get((name, "self"), 0.0) + own[i]
            total[name, "dur"] = total.get((name, "dur"), 0.0) + (end - start)
            if name == "sim.run_until" and spans[parent][0] != "runner.simulate":
                total["sim.live", "self"] = total.get(("sim.live", "self"), 0.0) + own[i]
            elif name == "engine.cycle":
                cycle_ms.append((end - start) * 1e3)
            elif name == "runner.simulate":
                # a model run is simulate plus the compute_metrics call after it
                scored = next(
                    (j for j in range(i + 1, hi)
                     if spans[j][3] == parent and spans[j][0] == "runner.compute_metrics"),
                    None,
                )
                extra = spans[scored][2] - spans[scored][1] if scored is not None else 0.0
                model_ms.append((end - start + extra) * 1e3)
        cycles = max(1, len(cycle_ms))
        tenth = max(1, len(cycle_ms) // 10)
        figures = {
            metric: total.get((span, kind), 0.0) * 1e3 / (bench.wl.repeats if per_call else 1)
            for metric, (span, kind, per_call) in LAYER_TIMES.items()
        }
        figures.update({
            metric: total.get((span, kind), 0.0) * 1e3 / cycles
            for metric, (span, kind) in ENGINE_STAGES.items()
        })
        figures.update({
            "sim.live_ms": total.get(("sim.live", "self"), 0.0) * 1e3,
            "runner.model_run_ms": statistics.median(model_ms) if model_ms else 0.0,
            "engine.cycle_ms.first_tenth": statistics.median(cycle_ms[:tenth]) if cycle_ms else 0.0,
            "engine.cycle_ms.last_tenth": statistics.median(cycle_ms[-tenth:]) if cycle_ms else 0.0,
        })
        factor = bench.rounds[len(rounds)].get("run_factor", 1.0)
        figures = {metric: value * factor for metric, value in figures.items()}
        figures["runner.model_runs"] = count.get("runner.simulate", 0)
        figures["plan.verifier_calls"] = count.get("engine.verify", 0)
        rounds.append(figures)

    metrics = {}
    for metric in rounds[0]:
        if metric in ("runner.model_runs", "plan.verifier_calls"):
            metrics[metric] = (rounds[-1][metric], "count")
        else:
            metrics[metric] = (statistics.median(r[metric] for r in rounds), "ms")
    run = tracer.runs[-1] if tracer.runs else {"rows": 0, "vehicles": 0, "trace_states": 0}
    metrics.update({
        "sim.rows": (run["rows"], "count"),
        "sim.vehicles": (run["vehicles"], "count"),
        "engine.trace_states": (run["trace_states"], "count"),
        "artifacts.trace_csv_bytes": (trace_csv_bytes, "bytes"),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # a fixed string-hash salt keeps dict layouts and set orders, and
        # with them the cost of the program's lookups, the same in every run
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])

    if not (ROOT / "src" / "redapt" / "cli.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    workdir = HERE / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        wl = workloads.make(args.workload, ROOT, workdir, args.seed)
    except KeyError:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.BUILDERS)}", file=sys.stderr)
        return 2

    tracer = tracing.Tracer() if args.trace else None
    timer = None if args.trace else tracing.CycleTimer(kernel, PROBE_EVERY)
    bench = Bench(wl, workdir, tracer, timer)
    specs = sorted({wl.spec, wl.checked_spec})
    setup: list[float] = []
    restore = (tracer or timer).install()
    started = perf_counter()
    index = 0
    while index == 0 or perf_counter() - started < args.seconds:
        # set-up samples are spread over the run, not bunched at its start,
        # so that a slow spell on a shared host moves few of them
        if not args.trace:
            setup.append(scaled_setup(specs, wl.scenario))
        bench.round(index)
        if index == 0:
            # The first round does every operation of the workload once.  Later
            # rounds only repeat them, yet the peak then rose by 0.1 to 4.3 MiB
            # from one run to the next, in steps of heap growth, so ru_maxrss
            # read at the end of the run measured the allocator, not the work.
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        index += 1
    restore()
    while not args.trace and len(setup) < SETUP_MIN:
        setup.append(scaled_setup(specs, wl.scenario))

    trace_csv = workdir / "round0" / "trace.csv"
    rows = len(trace_csv.read_text(encoding="utf-8").splitlines()) - 1 if trace_csv.exists() else 0
    if tracer:
        metrics = per_layer(bench, tracer, trace_csv.stat().st_size if rows else 0)
        tracer.dump(workdir / "spans.jsonl")
    else:
        metrics = end_to_end(bench, setup, rows, peak_rss_mib)
    correct = bench.check()
    shutil.rmtree(workdir / "round0", ignore_errors=True)

    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    detail = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "rounds": bench.rounds, "setup_s": setup, "trace_rows": rows, "result": result,
    }
    (workdir / "result.json").write_text(json.dumps(detail) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
