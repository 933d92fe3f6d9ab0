"""Smoke check of the benchmark itself: every workload runs at minimal size
and prints every metric that BENCHMARK.json names, with its unit.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace, *extra):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    proc = _run(ROOT, workload, trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        assert f"{m['name']} {got['value']!r} {m['unit']}" in lines, m["name"]


def test_fails_without_engine_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
