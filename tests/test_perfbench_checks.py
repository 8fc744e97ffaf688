"""The benchmark's own result checks pass on the current library.

Every op of ``perfbench/run.py`` is checked against a reference, and a failed
check counts against the run.  A tiny run of each workload here shows such a
failure, for instance a changed byte of command-line output that the ``cli``
workload parses, before a timed benchmark run does.  ``perfbench/`` is run,
never edited; the child writes no bytecode there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_tiny_run_passes_every_check(workload):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--tiny",
         "--seconds", "0.5", "--seed", "3"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
    assert result["failed"] == 0, result
