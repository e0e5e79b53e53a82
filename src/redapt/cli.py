"""Command-line entry point: ``check``, ``run`` and ``verify``.

``check`` validates a specification file, ``run`` drives a scenario under
the MAPE engine and writes machine-readable artifacts, and ``verify``
re-evaluates the specification's invariants over a recorded trace.  Set
``REDAPT_LOG`` to a level name (debug, info, warning) for diagnostics on
standard error.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import replace
from itertools import repeat
from pathlib import Path
from typing import Collection, Optional

from .engine import EngineConfig, EngineError
from .hrcs.runner import PLANNING_SETTINGS, run_scenario, write_artifacts
from .hrcs.simulator import ScenarioConfig
from .speclang import (
    INVARIANT_KINDS,
    EvaluationError,
    ParseError,
    SpecLangError,
    Trace,
    Verdict,
    check_wellformed,
    evaluate,
    parse_document,
    variable_names,
)

log = logging.getLogger("redapt")

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_IO = 2
EXIT_PLAN_FAILED = 3

_BLOCK_ROWS = 1024  # trace rows split at a time; bounds the cell strings alive at once


def read_input(path: str) -> str:
    """A file's text; a file that is not UTF-8 raises ``OSError`` as an
    unreadable one does."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise OSError(f"{path!r} is not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def cmd_check(spec_path: str) -> int:
    try:
        text = read_input(spec_path)
    except OSError as exc:
        print(f"{spec_path}: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        doc = parse_document(text)
    except ParseError as exc:
        print(f"{spec_path}:{exc.line}:{exc.col}: parse-error: {exc.message}", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    diagnostics = check_wellformed(doc)
    for diag in diagnostics:
        print(diag.render(spec_path), file=sys.stderr)
    return EXIT_DIAGNOSTICS if diagnostics else EXIT_OK


def cmd_run(
    spec_path: str,
    scenario_path: str,
    engine_config_path: Optional[str],
    out_dir: str,
    seed: Optional[int],
) -> int:
    try:
        spec_text = read_input(spec_path)
        scenario_text = read_input(scenario_path)
        engine_text = read_input(engine_config_path) if engine_config_path else None
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    try:
        specs = parse_document(spec_text)
        diagnostics = check_wellformed(specs)
        if diagnostics:
            for diag in diagnostics:
                print(diag.render(spec_path), file=sys.stderr)
            return EXIT_DIAGNOSTICS
        scenario = ScenarioConfig.from_json(scenario_text)
        if seed is not None:
            scenario = replace(scenario, seed=seed)
            scenario.validate()
        engine_cfg = EngineConfig.from_dict(
            json.loads(engine_text) if engine_text else {}, PLANNING_SETTINGS
        )
    except (SpecLangError, ValueError, TypeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTICS

    try:
        Path(out_dir).mkdir(parents=True, exist_ok=True)  # fail before the run, not after
    except OSError as exc:
        print(f"error: cannot make output directory: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTICS

    log.info("running scenario %s for %.0f min", scenario_path, scenario.duration_min)
    try:
        result = run_scenario(specs, scenario, engine_cfg)
        files = write_artifacts(result, out_dir)
    except (EngineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    for name, path in files.items():
        log.info("wrote %s", path)
    print(result.metrics_json(), end="")
    return EXIT_PLAN_FAILED if result.plan_failed else EXIT_OK


def cmd_verify(spec_path: str, trace_path: str) -> int:
    try:
        spec_text = read_input(spec_path)
        trace_text = read_input(trace_path)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        specs = parse_document(spec_text)
        invariants = [
            e for e in specs.entities if e.kind in INVARIANT_KINDS and e.invariant is not None
        ]
        # evaluation reads no other column
        names = frozenset().union(*(variable_names(e.invariant) for e in invariants))
        trace = trace_from_csv(trace_text, names)
    except (SpecLangError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    violated = False
    for entity in invariants:
        try:
            verdict = evaluate(entity.invariant, trace, 0)
        except EvaluationError as exc:
            print(f"error: {entity.name}: {exc}", file=sys.stderr)
            return EXIT_IO
        print(f"{entity.name}: invariant: {verdict.value}")
        violated = violated or verdict is Verdict.VIOL
    return EXIT_DIAGNOSTICS if violated else EXIT_OK


def trace_from_csv(text: str, columns: Optional[Collection[str]] = None) -> Trace:
    """Rebuild an evaluable trace from an exported trace.csv, held by
    column as ``Trace.from_columns`` takes it: no state is built per row.

    Each column is typed once, as a whole.  A column whose every cell is a
    number becomes floats.  Any other column is typed cell by cell: an empty
    cell is ``None`` (a value the system failed to deliver), a number is a
    float and anything else stays text.  Every ``time`` cell must be a
    finite number.  ``columns`` names the columns to keep besides ``time``;
    ``None`` keeps them all.  Every row is checked against the header's
    width, kept columns or not.
    """
    lines = list(filter(str.strip, text.splitlines()))
    if len(lines) < 2:
        raise ValueError("trace file has no data rows")
    header = lines[0].split(",")
    if "time" not in header:
        raise ValueError("trace file has no time column")
    for name in header:
        if header.count(name) > 1:
            raise ValueError(f"trace header names column {name!r} twice")
    body = lines[1:]
    width = len(header)
    if set(map(str.count, body, repeat(","))) != {width - 1}:
        raise ValueError("trace row width does not match the header")
    kept = {name: i for i, name in enumerate(header) if columns is None or name in columns}
    kept["time"] = header.index("time")
    cells: dict[str, list[str]] = {name: [] for name in kept}
    # A block of rows is split into one flat list, so no list or tuple is
    # made per row: each object a row leaves alive brings the collector
    # round sooner.
    for start in range(0, len(body), _BLOCK_ROWS):
        flat = ",".join(body[start : start + _BLOCK_ROWS]).split(",")
        for name, i in kept.items():
            cells[name] += flat[i::width]
    times = _times(cells.pop("time"))
    return Trace.from_columns(times, {name: _typed(column) for name, column in cells.items()})


def _times(cells: list[str]) -> list[float]:
    times = _typed(cells)
    try:
        if all(map(math.isfinite, times)):
            return times
    except TypeError:  # an empty or text cell
        pass
    number, time = next(
        (number, time) for number, time in enumerate(times, 1)
        if not isinstance(time, float) or not math.isfinite(time)
    )
    problem = "is missing" if time is None else f"{time!r} is not a finite number"
    raise ValueError(f"trace row {number}: time {problem}")


def _typed(cells: list[str]) -> list:
    try:
        return list(map(float, cells))
    except ValueError:
        distinct = {cell: _cell_value(cell) for cell in set(cells)}
        return list(map(distinct.__getitem__, cells))


def _cell_value(cell: str) -> object:
    if cell == "":
        return None
    try:
        return float(cell)
    except ValueError:
        return cell


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="redapt",
        description="Requirements-driven adaptation: check specs, run adaptive "
        "scenarios, verify traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="parse and validate a specification file")
    check.add_argument("--spec", required=True, help="path to a .agmspec file")

    run = sub.add_parser("run", help="run a scenario under the MAPE engine")
    run.add_argument("--spec", required=True, help="path to a .agmspec file")
    run.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    run.add_argument("--engine-config", help="path to an engine configuration JSON file")
    run.add_argument("--out", required=True, help="output directory for artifacts")
    run.add_argument("--seed", type=int, help="override the scenario seed")

    verify = sub.add_parser("verify", help="evaluate invariants over a recorded trace")
    verify.add_argument("--spec", required=True, help="path to a .agmspec file")
    verify.add_argument("trace", help="path to a trace.csv produced by run")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    level = os.environ.get("REDAPT_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), stream=sys.stderr)
    args = build_parser().parse_args(argv)
    if args.command == "check":
        return cmd_check(args.spec)
    if args.command == "run":
        return cmd_run(args.spec, args.scenario, args.engine_config, args.out, args.seed)
    return cmd_verify(args.spec, args.trace)


if __name__ == "__main__":
    sys.exit(main())
