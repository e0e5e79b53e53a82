"""Highway-rail crossing scenario: utilities, simulator and runner.

The goal-model fixture is imported from ``redapt.hrcs.fixture``, so that
importing the package leaves ``redapt.goalmodel`` unloaded."""

from .runner import RunResult, build_pool, run_scenario, write_artifacts
from .simulator import (
    DIRECTIONS,
    FLOW_CLASS,
    LUX_CLASS,
    Metrics,
    NORTH,
    RowView,
    SOUTH,
    RunCounts,
    ScenarioConfig,
    SensorFault,
    SimTrace,
    Simulator,
    UnknownSensorError,
    VehicleRecord,
    compute_metrics,
    simulate,
    VehicleView,
    trace_to_csv,
    vehicles_to_json,
    write_trace_csv,
    write_vehicles_json,
)
from .utilities import DARK_LUX_BOUND, DomainError, Utilities, eval_utilities

__all__ = [
    "DARK_LUX_BOUND", "DIRECTIONS", "DomainError", "FLOW_CLASS", "LUX_CLASS",
    "Metrics", "NORTH", "RowView", "RunCounts", "RunResult", "SOUTH", "ScenarioConfig",
    "SensorFault", "SimTrace", "Simulator", "UnknownSensorError", "Utilities",
    "VehicleRecord", "VehicleView", "build_pool", "compute_metrics",
    "eval_utilities", "run_scenario", "simulate",
    "trace_to_csv", "vehicles_to_json", "write_artifacts", "write_trace_csv",
    "write_vehicles_json",
]
