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
import os
import sys
from pathlib import Path
from typing import Optional

from .engine import EngineConfig
from .hrcs.runner import run_scenario, write_artifacts
from .hrcs.simulator import ScenarioConfig
from .speclang import (
    INVARIANT_KINDS,
    EvaluationError,
    ParseError,
    SpecLangError,
    State,
    Trace,
    Verdict,
    check_wellformed,
    evaluate,
    parse_document,
)

log = logging.getLogger("redapt")

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_IO = 2
EXIT_PLAN_FAILED = 3


def cmd_check(spec_path: str) -> int:
    try:
        text = Path(spec_path).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"{spec_path}: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        doc = parse_document(text)
    except ParseError as exc:
        print(f"{spec_path}:{exc.line}:{exc.col}: parse-error: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    except SpecLangError as exc:
        print(f"{spec_path}:0:0: parse-error: {exc}", file=sys.stderr)
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
        spec_text = Path(spec_path).read_text(encoding="utf-8")
        scenario_text = Path(scenario_path).read_text(encoding="utf-8")
        engine_text = (
            Path(engine_config_path).read_text(encoding="utf-8")
            if engine_config_path
            else None
        )
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
        engine_cfg = (
            EngineConfig.from_dict(json.loads(engine_text)) if engine_text else EngineConfig()
        )
    except (SpecLangError, ValueError, TypeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTICS

    log.info("running scenario %s for %.0f min", scenario_path, scenario.duration_min)
    result = run_scenario(specs, scenario, engine_cfg, seed=seed)
    files = write_artifacts(result, out_dir)
    for name, path in files.items():
        log.info("wrote %s", path)
    print(result.metrics_json(), end="")
    return EXIT_PLAN_FAILED if result.plan_failed else EXIT_OK


def cmd_verify(spec_path: str, trace_path: str) -> int:
    try:
        spec_text = Path(spec_path).read_text(encoding="utf-8")
        trace_text = Path(trace_path).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        specs = parse_document(spec_text)
        trace = trace_from_csv(trace_text)
    except (SpecLangError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    violated = False
    for entity in specs.entities:
        if entity.kind not in INVARIANT_KINDS or entity.invariant is None:
            continue
        try:
            verdict = evaluate(entity.invariant, trace, 0)
        except EvaluationError as exc:
            print(f"error: {entity.name}: {exc}", file=sys.stderr)
            return EXIT_IO
        print(f"{entity.name}: invariant: {verdict.value}")
        violated = violated or verdict is Verdict.VIOL
    return EXIT_DIAGNOSTICS if violated else EXIT_OK


def trace_from_csv(text: str) -> Trace:
    """Rebuild an evaluable trace from an exported trace.csv."""
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) < 2:
        raise ValueError("trace file has no data rows")
    header = lines[0].split(",")
    if "time" not in header:
        raise ValueError("trace file has no time column")
    states = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError("trace row width does not match the header")
        values: dict[str, object] = {}
        for name, cell in zip(header, cells):
            if cell == "":
                values[name] = None
            else:
                try:
                    values[name] = float(cell)
                except ValueError:
                    values[name] = cell
        states.append(State(time=float(values.pop("time")), values=values))
    return Trace(tuple(states))


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
