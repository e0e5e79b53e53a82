"""``write_artifacts`` streams each artifact to its file.

It never holds a whole artifact as one string, so the memory it takes stays
a line and the file's own buffer however long the run; and it renames each
file into place only once whole, so a write that fails partway leaves no
artifact cut short.
"""

import errno
import json
import os
import tracemalloc

import redapt
from redapt.cli import main
from redapt.hrcs import run_scenario, runner, write_artifacts, write_vehicles_json


def test_writing_takes_well_under_the_bytes_written(bundled_spec, experiment1, tmp_path):
    result = run_scenario(bundled_spec, experiment1)  # 240 min
    tracemalloc.start()
    try:
        paths = write_artifacts(result, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    written = sum(os.path.getsize(path) for path in paths.values())
    assert written > 2_000_000
    assert peak < written / 2


class FullAfter:
    """A text file that takes ``writes`` writes, then fails as a full disk does."""

    def __init__(self, file, writes):
        self.file = file
        self.writes = writes

    def write(self, text):
        if not self.writes:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.writes -= 1
        return self.file.write(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)


def test_a_failed_write_leaves_no_partial_artifact(tmp_path, spec_path, monkeypatch, capsys):
    def full_after_first_record(trace, out):
        write_vehicles_json(trace, FullAfter(out, 2))  # the opening line, one record

    monkeypatch.setattr(runner, "write_vehicles_json", full_after_first_record)
    scenario = json.loads(redapt.data_path("experiment1.json").read_text())
    scenario["duration_min"] = 10.0
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario))
    out = tmp_path / "out"

    code = main(["run", "--spec", spec_path, "--scenario", str(scenario_path), "--out", str(out)])

    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "No space left on device" in err
    assert "Traceback" not in err
    assert sorted(path.name for path in out.iterdir()) == ["cycles.jsonl", "trace.csv"]
