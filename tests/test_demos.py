"""Every demo script runs to completion as a user would run it.

Demo 04 also checks that evaluating the final checkpoint reproduces the
final val row of its runlog exactly, and prints the result.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / "src"),
                                 os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    if demo.stem == "04_training_loop":
        assert "matches log: True" in proc.stdout, proc.stdout
