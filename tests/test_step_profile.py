"""tools/step_profile.py: a one-step table at batch 8 books every op kind
of the train step, ends with the retained graph's MB and leaves the
dispatch tables as it found them."""

import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from biasloss import autodiff as ad, layers

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import step_profile  # noqa: E402


def test_one_step_table():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "step_profile.py"), "--batch",
         "8", "--steps", "1", "--warmup", "0"],
        capture_output=True, text=True, timeout=120, check=True)
    lines = proc.stdout.splitlines()
    kinds = {line.split()[0] for line in lines[1:-4]}
    assert {"conv2d.dw", "conv2d.im2col",
            "conv2d.1x1+bn.train.relu", "conv2d.1x1+bn.train.hswish",
            "bn.train.relu+conv2d.1x1", "bn.train.hswish+conv2d.1x1",
            "batchnorm.train.deferred", "batchnorm.train.relu",
            "batchnorm.train.hswish", "batchnorm.train.none",
            "adaptive_avg_pool"} <= kinds
    assert "8x1x28x28" in proc.stdout  # the stem's input
    fwd, bwd = map(float, lines[-4].split()[-2:])
    assert lines[-4].startswith("all ops") and fwd > 0 and bwd > 0
    assert lines[-3].startswith("step wall ms")
    assembly = re.fullmatch(r"batch assembly ms (\S+) \(mean of 1 steps\)",
                            lines[-2])
    assert assembly and float(assembly[1]) > 0
    # a batch-8 train graph keeps 4.7 MB; it kept 5.4 MB while each
    # depthwise BN kept its output and the stem its im2col columns, and
    # 7.5 MB when every BN kept its conv's output in train mode
    retained = re.fullmatch(r"retained train graph MB (\S+)", lines[-1])
    assert retained and 4.0 < float(retained[1]) < 5.0


def test_cifar_geometry():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "step_profile.py"), "--batch",
         "4", "--steps", "1", "--warmup", "0", "--dataset", "cifar10"],
        capture_output=True, text=True, timeout=120, check=True)
    assert "4x3x32x32" in proc.stdout  # the stem's input
    # a batch-4 CIFAR train graph keeps 3.2 MB (3.8 MB while the
    # depthwise BNs kept their outputs and the stem its columns)
    retained = re.fullmatch(r"retained train graph MB (\S+)",
                            proc.stdout.splitlines()[-1])
    assert retained and 2.8 < float(retained[1]) < 3.6


def test_timer_books_calls_and_restores_tables():
    forward, backward = dict(ad._FORWARD), dict(ad._BACKWARD)
    totals = step_profile.collections.defaultdict(lambda: [0.0, 0])
    x = ad.parameter(np.ones((2, 3), np.float32))
    with step_profile.dispatch_timer(ad, totals):
        y = ad.mean(x * 2.0)
        ad.forward(y)
        ad.backward(y)
    assert ad._FORWARD == forward and ad._BACKWARD == backward
    assert totals[("mul", "2x3", "fwd")][1] == 1
    assert totals[("mul", "2x3", "bwd")][1] == 1
    assert totals[("mean", "2x3", "bwd")][1] == 1


def test_op_kinds():
    model = layers.SkipblockNetMicro(
        layers.MicroNetSpec(width_multiplier=0.25), seed=0)
    out = model.build(ad.leaf(np.zeros((2, 1, 8, 8), np.float32)))
    kinds = {step_profile.op_kind(n) for n in ad.topo_order(out.logits)
             if n.op != "leaf"}
    assert {"conv2d.dw", "conv2d.1x1", "conv2d.im2col",
            "conv2d.1x1+bn.train.relu", "conv2d.1x1+bn.train.hswish",
            "bn.train.relu+conv2d.1x1", "bn.train.hswish+conv2d.1x1",
            "batchnorm.train.deferred", "batchnorm.train.relu",
            "batchnorm.train.hswish", "batchnorm.train.none"} <= kinds
    with model.evaluating():
        assert "batchnorm.eval.relu" in {
            step_profile.op_kind(n) for n in ad.topo_order(out.logits)}
