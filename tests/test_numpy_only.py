"""The engine runs with scipy unimportable: training with augmentation
(inline and prefetched), evaluation, profiling and the CLI."""

import subprocess
import sys

RUN_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy or its submodules fails
from pathlib import Path

from biasloss import cli, data, diagnostics, train

out = Path(sys.argv[1])
for kind, prefetch in (("mnist", False), ("cifar10", True)):
    cfg = train.TrainConfig(dataset=kind, epochs=1, batch_size=16, seed=1,
                            width_multiplier=0.25, prefetch=prefetch)
    assert cfg.augment
    ds = data.make_synthetic(kind, 40, seed=0)
    log, model = train.train_run(cfg, out / kind, ds, ds)
    loss, top1 = train.evaluate(out / kind / "final.ckpt", ds, cfg)
    assert 0.0 <= top1 <= 1.0
    assert diagnostics.profile(model, ds, batch_size=16).rows
flags = ["--epochs", "1", "--batch_size", "16", "--width_multiplier", "0.25",
         "--data_dir", str(out / "fx" / "synthetic-mnist")]
assert cli.main(["--quiet", "fixtures", "--out", str(out / "fx"),
                 "--synthetic_mnist", "40"]) == 0
assert cli.main(["--quiet", "train", "--out", str(out / "cli"), *flags]) == 0
assert cli.main(["--quiet", "eval", "--ckpt", str(out / "cli" / "final.ckpt"),
                 *flags]) == 0
print("ok")
"""


def test_engine_runs_without_scipy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", RUN_WITHOUT_SCIPY, str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"
