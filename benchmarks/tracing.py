"""Spans recorded from outside the program.

``Tracer.install`` replaces public functions at the module attributes
where the CLI, the runner and the engine look them up, with wrappers that
record a span: name, start, end and the index of the enclosing span.  Spans
stay in memory until ``dump`` writes them out.  The untraced run installs
only ``CycleTimer``, a clock read on each side of ``AdaptationEngine.cycle``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional


def applied(report) -> bool:
    """A cycle applies a reconfiguration when it changes a parameter or swaps
    a component (a plan that keeps the setting reports ``no_change``)."""
    return any(r["kind"] != "no_change" for r in report.reconfiguration.values())


class CycleTimer:
    """Times each ``AdaptationEngine.cycle`` call.  Before every ``every``-th
    cycle it also runs ``probe`` (a calibration kernel) and keeps its time,
    so that host speed is sampled during long runs, not only around them."""

    def __init__(self, probe: Callable[[], float], every: int):
        self.probe = probe
        self.every = every
        self.cycles: list[tuple[float, bool]] = []  # (seconds, applied) since the last take()
        self.probes: list[tuple[int, float]] = []  # (cycles before it, seconds)

    def take(self) -> tuple[list[tuple[float, bool]], list[tuple[int, float]]]:
        taken = list(self.cycles), list(self.probes)
        self.cycles.clear()
        self.probes.clear()
        return taken

    def install(self) -> Callable[[], None]:
        from redapt.engine import AdaptationEngine

        original = AdaptationEngine.cycle
        cycles, probes, probe, every = self.cycles, self.probes, self.probe, self.every

        def timed(engine, *args, **kwargs):
            if len(cycles) % every == 0:
                probes.append((len(cycles), probe()))
            started = perf_counter()
            report = original(engine, *args, **kwargs)
            cycles.append((perf_counter() - started, applied(report)))
            return report

        AdaptationEngine.cycle = timed
        return lambda: setattr(AdaptationEngine, "cycle", original)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent]
        self.stack: list[int] = []
        self.last_engine = None
        self.runs: list[dict] = []  # counts from each `redapt run`

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self) -> Callable[[], None]:
        from redapt import cli, engine
        from redapt.hrcs import runner, simulator

        originals: list[tuple[object, str, object]] = []

        def patch(owner, attr: str, name: str, after=None) -> None:
            fn = getattr(owner, attr)
            originals.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(name, fn, after))

        def keep_engine(args, _):
            self.last_engine = args[0]

        def keep_run(_, result):
            self.runs.append({
                "rows": len(result.trace.rows),
                "vehicles": len(result.trace.vehicles),
                "trace_states": len(self.last_engine.trace.states),
            })
            self.last_engine = None

        patch(cli, "parse_document", "speclang.parse_document")
        patch(cli, "check_wellformed", "speclang.check_wellformed")
        patch(cli, "evaluate", "cli.evaluate")
        patch(cli, "trace_from_csv", "cli.trace_from_csv")
        patch(cli, "run_scenario", "runner.run_scenario", keep_run)
        patch(cli, "write_artifacts", "runner.write_artifacts")
        patch(runner, "simulate", "runner.simulate")
        patch(runner, "compute_metrics", "runner.compute_metrics")
        patch(engine, "monitor_step", "engine.monitor_step")
        patch(engine, "diagnose", "engine.diagnose")
        patch(engine, "execute", "engine.execute")
        patch(engine, "evaluate", "engine.evaluate")
        patch(engine.AdaptationEngine, "cycle", "engine.cycle", keep_engine)
        patch(simulator.Simulator, "run_until", "sim.run_until")

        # plan's verifier argument becomes a span, so verifier calls and the
        # model runs inside them are counted where they happen
        plan = engine.plan
        originals.append((engine, "plan", plan))
        wrap = self.wrap

        def plan_with_counted_verifier(specs, goal, violation, params, pool, verifier, *rest, **kw):
            return plan(specs, goal, violation, params, pool, wrap("engine.verify", verifier), *rest, **kw)

        engine.plan = self.wrap("engine.plan", plan_with_counted_verifier)

        def restore() -> None:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

        return restore

    def dump(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as out:
            for name, start, end, parent in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _) in enumerate(spans)]
