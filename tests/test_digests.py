"""tools/digests.py: five 64-hex digests, the same on every run."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_digests_repeat(tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    outs = [subprocess.run([sys.executable, str(ROOT / "tools" / "digests.py")],
                           cwd=tmp_path, env=env, capture_output=True,
                           text=True, timeout=600, check=True).stdout
            for _ in range(2)]
    lines = [line.split() for line in outs[0].splitlines()]
    assert [name for name, _ in lines] == [
        "mnist_bias", "mnist_bias_attached", "cifar10_ce_prefetch",
        "mnist_focal", "profile"]
    assert all(re.fullmatch(r"[0-9a-f]{64}", digest) for _, digest in lines)
    assert outs[1] == outs[0]
