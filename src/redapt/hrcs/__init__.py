"""Highway-rail crossing scenario: utilities, simulator, fixture and runner."""

from .fixture import derive_goal_model, initial_model
from .runner import RunResult, build_pool, run_scenario, write_artifacts
from .simulator import (
    DIRECTIONS,
    FLOW_CLASS,
    LUX_CLASS,
    Metrics,
    NORTH,
    SOUTH,
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
    "Metrics", "NORTH", "RunResult", "SOUTH", "ScenarioConfig",
    "SensorFault", "SimTrace", "Simulator", "UnknownSensorError", "Utilities",
    "VehicleRecord", "VehicleView", "build_pool", "compute_metrics", "derive_goal_model",
    "eval_utilities", "initial_model", "run_scenario", "simulate",
    "trace_to_csv", "vehicles_to_json", "write_artifacts", "write_trace_csv",
    "write_vehicles_json",
]
