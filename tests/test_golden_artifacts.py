"""Pinned artifact hashes: a change to the simulator, the runner or the
writers that moves a single byte of a bundled run shows up here.

``sensor_noise.json`` covers the order of the noise draws, which decides
what a noisy sensor records in ``trace.csv`` and ``cycles.jsonl``; the
engine and the trace see the same reading, one draw per sensor and instant.

The experiment-2 trace is also pinned with its ``F`` and ``U_E`` columns
dropped, which pins every other cell on its own.

The engine's cycle reports and the trace are pinned as well on the
benchmark's 48-hour soak scenario at three seeds: hourly sensor failures and
noise, swaps and dark episodes, 2,880 cycles each.  The scenario comes from
``benchmarks/workloads.py``, loaded from its file and left unchanged.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

import redapt
from redapt.hrcs import ScenarioConfig, run_scenario, trace_to_csv, write_artifacts

GOLDEN = {
    "experiment2": {
        "cycles.jsonl": "970d5a9ea97089f496c2b2bc1b2b7dedb9aab0c476bb47a4b9e3925e1b4cea57",
        "trace.csv": "a9abac69be9a170f3ec318e5481b11ce3efa37e0ddfc252447f07d13033d5461",
        "vehicles.json": "ee1b91028caa458312d5797096dc6be7c659d4659dae905a9109c956a71436a0",
        "metrics.json": "f243b41d6d1879f8a93782e0e1e5ab0a02539a022f42fd013bc52956ed66e972",
    },
    "sensor_noise": {
        "cycles.jsonl": "139716213e2868c9427260c97738e629b165f581d03c582eda52dcc66732443f",
        "trace.csv": "7c1147e0e7ef731aedac3325772c62f58d5b1550d66da805df60091e29928d55",
        "vehicles.json": "4d9b1458443128132772eb7143f397d7210fe35dec27e7ac1ab45f2f76fcd309",
        "metrics.json": "3af825ab31ef0e169e51f0617b89fd5690b517806adbabc12c4b3705e5f4a02e",
    },
}


SOAK = {
    1: {
        "cycles.jsonl": "2acfb0bb19518720ae2eeef6af09e7cd71aecb921bcd5c940865c891a6b3c8b0",
        "trace.csv": "422bbb2ca2a7eb7e50ec1ffff880e96451a62e3e4edf1b16b486b5ce115905ce",
    },
    3: {
        "cycles.jsonl": "9fe5bc41a781d789256d1a0049f6c963b46603666bd9713620609262770d9341",
        "trace.csv": "a3c7df06b5816d3fc4275447ec7378788ebe1c022d2fb6786c0d03d1ccc93743",
    },
    1701: {
        "cycles.jsonl": "9c2b7a0bf68e626f2dd71e35d5fb2932266646e12fbece045f58cb3a40cea522",
        "trace.csv": "0fe4183098fb1773cf38b85cd928bb3e8f512ccf3c849d9517186c5d5c6d9994",
    },
}

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def load_workloads():
    """``benchmarks/workloads.py``, which imports its sibling ``checks``;
    ``sys.modules`` is left as it was."""
    saved = {name: sys.modules.get(name) for name in ("checks", "workloads")}
    try:
        for name in saved:
            spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{name}.py")
            module = sys.modules[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
    finally:
        for name, before in saved.items():
            if before is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = before
    return module


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bundled_run_artifacts_keep_their_hashes(name, bundled_spec, tmp_path):
    scenario = ScenarioConfig.from_json(redapt.data_path(f"{name}.json").read_text())
    paths = write_artifacts(run_scenario(bundled_spec, scenario), tmp_path)
    digests = {
        file: hashlib.sha256((tmp_path / file).read_bytes()).hexdigest() for file in paths
    }
    assert digests == GOLDEN[name]


def test_experiment2_trace_without_new_columns_keeps_its_bytes(bundled_spec, experiment2):
    text = trace_to_csv(run_scenario(bundled_spec, experiment2).trace)
    header = text.split("\n", 1)[0].split(",")
    dropped = {header.index("F"), header.index("U_E")}
    old_layout = "".join(
        ",".join(cell for i, cell in enumerate(line.split(",")) if i not in dropped) + "\n"
        for line in text.splitlines()
    )
    assert hashlib.sha256(old_layout.encode()).hexdigest() == (
        "ee0239bf0483573c18d48c4f761d4c3118cbb2e74e3c5a1fbcc124ac26c43ba9"
    )


@pytest.fixture(scope="module", params=sorted(SOAK))
def soak(request, bundled_spec, tmp_path_factory):
    """A soak run's seed and the sha256 of each artifact it wrote."""
    seed = request.param
    scenario = ScenarioConfig.from_dict(load_workloads().soak_scenario(seed, 48))
    out = tmp_path_factory.mktemp(f"soak-{seed}")
    paths = write_artifacts(run_scenario(bundled_spec, scenario), out)
    return seed, {file: hashlib.sha256((out / file).read_bytes()).hexdigest() for file in paths}


def test_soak_cycle_reports_keep_their_hashes(soak):
    seed, digests = soak
    assert digests["cycles.jsonl"] == SOAK[seed]["cycles.jsonl"]


def test_soak_trace_keeps_its_hash(soak):
    seed, digests = soak
    assert digests["trace.csv"] == SOAK[seed]["trace.csv"]
