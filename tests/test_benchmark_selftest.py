"""The benchmark's output checkers accept real artifacts and reject faults.

``benchmarks/selftest.py`` runs each workload's program once (the soak cut
to six hours) and asks every checker to accept the real artifacts and to
reject copies with one deliberate fault each.  A checker that rejects what
the program now writes fails here, before a benchmark run does.  The script
writes only under the git-ignored ``benchmarks/runs/selftest``.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, "benchmarks/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "20 of 20 cases behave" in done.stdout.splitlines()
