"""Pinned artifact hashes: a change to the simulator, the runner or the
writers that moves a single byte of a bundled run shows up here.

``sensor_noise.json`` covers the order of the noise draws, which decides
what a noisy sensor records in ``trace.csv`` and ``cycles.jsonl``.  A change
that gives the engine and the trace the same noisy reading will change its
hashes on purpose; update them together with that change.
"""

import hashlib

import pytest

import redapt
from redapt.hrcs import ScenarioConfig, run_scenario, write_artifacts

GOLDEN = {
    "experiment2": {
        "cycles.jsonl": "970d5a9ea97089f496c2b2bc1b2b7dedb9aab0c476bb47a4b9e3925e1b4cea57",
        "trace.csv": "ee0239bf0483573c18d48c4f761d4c3118cbb2e74e3c5a1fbcc124ac26c43ba9",
        "vehicles.json": "ee1b91028caa458312d5797096dc6be7c659d4659dae905a9109c956a71436a0",
        "metrics.json": "f243b41d6d1879f8a93782e0e1e5ab0a02539a022f42fd013bc52956ed66e972",
    },
    "sensor_noise": {
        "cycles.jsonl": "3c05d341a857a2216bc1b9089ff8567a6fcd2c60b860550f85146856a5fcf5a5",
        "trace.csv": "2996f08782c1e982cc7776de7d17f6a52e2ebf9d6fe4c5be695781d2c2d04daf",
        "vehicles.json": "4d9b1458443128132772eb7143f397d7210fe35dec27e7ac1ab45f2f76fcd309",
        "metrics.json": "3af825ab31ef0e169e51f0617b89fd5690b517806adbabc12c4b3705e5f4a02e",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bundled_run_artifacts_keep_their_hashes(name, bundled_spec, tmp_path):
    scenario = ScenarioConfig.from_json(redapt.data_path(f"{name}.json").read_text())
    paths = write_artifacts(run_scenario(bundled_spec, scenario), tmp_path)
    digests = {
        file: hashlib.sha256((tmp_path / file).read_bytes()).hexdigest() for file in paths
    }
    assert digests == GOLDEN[name]
