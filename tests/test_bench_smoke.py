"""Each benchmark workload runs end to end, traced, at minimal size.

The tracer patches engine entry points by name (batches, sgd_step,
save_checkpoint, profile, the op tables, ...), so a rename in the engine
shows up here as a failed or incorrect run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
