#!/usr/bin/env python3
"""Forward and backward milliseconds of a train step, per op kind and shape.

    python tools/step_profile.py [CHECKOUT] [--batch 128] [--steps 24]
                                 [--warmup 2] [--seed 3]
                                 [--dataset mnist|cifar10]

Imports the engine from CHECKOUT/src (default: the checkout this script
sits in) and runs train steps of the bias-loss recipe on synthetic data
of --dataset's geometry (1x28x28 or 3x32x32, with that dataset's
augmentation), as train_run's loop does: augmented batch, forward and
loss on the one train graph, refilled each step, backward, SGD. The first
--warmup steps are not counted.

Each op's forward and backward are timed at dispatch, by wrapping the
entries of autodiff._FORWARD and _BACKWARD, and booked to the op's kind
and input shape. Convs are split into depthwise (conv2d.dw), 1x1
(conv2d.1x1) and im2col (conv2d.im2col) kinds, batch norms by mode and
activation (batchnorm.train.relu, ...). A widening 1x1 conv that applies
its train-mode BN itself is booked as conv2d.1x1+bn.train.<act>, and a
1x1 conv that applies its input's train-mode BN before its GEMMs as
bn.train.<act>+conv2d.1x1, so that the BN work they do is not read as
conv time; the BN node that defers to such a conv, which takes the batch
statistics and runs the BN backward's second sweep, is
batchnorm.train.deferred. The table gives each row's
calls, forward ms and backward ms per step, largest first, then the
totals over all ops, the mean wall ms of a step and the mean ms of
assembling a step's batch (rotation and normalization, inline), which the
step's wall time does not include. The last line gives the MB (10^6
bytes) that one retaining train forward at --batch keeps, measured with
tracemalloc on a fresh graph: the activations and contexts a backward
reads.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np


def op_kind(node):
    """The op's name, with convs split by kind and batch norms by mode and
    activation."""
    if node.op == "conv2d":
        if node.attrs["groups"] > 1:
            return "conv2d.dw"
        kh, kw = node.inputs[1].value.shape[2:]
        if kh != 1 or kw != 1:
            return "conv2d.im2col"
        from biasloss import layers
        # older checkouts have no folded_bn or prologue_bn
        bn = getattr(layers, "folded_bn", lambda conv: None)(node)
        if bn is not None and bn.training:
            return f"conv2d.1x1+bn.train.{bn.act or 'none'}"
        bn = getattr(layers, "prologue_bn", lambda conv: None)(node)
        if bn is not None:
            return f"bn.train.{bn.act or 'none'}+conv2d.1x1"
        return "conv2d.1x1"
    if node.op == "batchnorm":
        mode = "train" if node.attrs["layer"].training else "eval"
        if mode == "train" and node.attrs.get("defer"):
            return "batchnorm.train.deferred"
        return f"batchnorm.{mode}.{node.attrs['act'] or 'none'}"
    return node.op


@contextlib.contextmanager
def dispatch_timer(ad, totals):
    """Wraps every registered op's forward and backward so that each call
    adds its wall seconds and a count to totals[(kind, shape, phase)]."""
    def wrap(fn, phase):
        def timed(node, arg):
            t0 = time.perf_counter()
            try:
                return fn(node, arg)
            finally:
                shape = "x".join(map(str, node.inputs[0].value.shape))
                entry = totals[(op_kind(node), shape, phase)]
                entry[0] += time.perf_counter() - t0
                entry[1] += 1
        return timed

    saved = {}
    for table, phase in ((ad._FORWARD, "fwd"), (ad._BACKWARD, "bwd")):
        saved[phase] = dict(table)
        table.update({op: wrap(fn, phase) for op, fn in table.items()})
    try:
        yield
    finally:
        for table, phase in ((ad._FORWARD, "fwd"), (ad._BACKWARD, "bwd")):
            table.update(saved[phase])


def profile(batch, steps, warmup, seed, dataset="mnist"):
    """(totals, step seconds, assembly seconds): dispatch totals over the
    counted steps, and the wall seconds of each counted step and of
    assembling its batch."""
    from biasloss import autodiff as ad, data, layers, train
    cfg = train.TrainConfig(dataset=dataset, loss="bias", batch_size=batch,
                            seed=seed, prefetch=False)
    ds = data.make_synthetic(dataset, batch * (warmup + steps), seed=seed)
    model = layers.SkipblockNetMicro(cfg.model_spec(), seed=cfg.seed)
    params, state = model.parameters(), {}
    # one graph refilled each step, as train_run keeps it
    graph = model.build(ad.leaf(ds.images[:1], name="input"))
    totals = collections.defaultdict(lambda: [0.0, 0])
    walls, assembly = [], []
    stream = data.batches(ds, batch, seed=seed,
                          augment_spec=data.default_augment(dataset))
    for i in range(warmup + steps):
        counted = i >= warmup
        t0 = time.perf_counter()
        b = next(stream)
        if counted:
            assembly.append(time.perf_counter() - t0)
        with (dispatch_timer(ad, totals) if counted
              else contextlib.nullcontext()):
            t0 = time.perf_counter()
            graph.input.set(np.ascontiguousarray(b.images))
            loss = train._batch_loss(cfg, graph.logits, graph.feature_map,
                                     b.labels, train._epoch_stats(),
                                     f"step {i}")
            train.sgd_step(params, ad.backward(loss), state,
                           train.lr_at(0, cfg), cfg.momentum,
                           cfg.weight_decay)
            if counted:
                walls.append(time.perf_counter() - t0)
    return totals, walls, assembly


def retained_mb(batch, seed, dataset="mnist"):
    """MB that one retaining train forward keeps: the bytes tracemalloc
    traces after a train-mode forward and loss of a fresh graph on a
    batch of batch images, less those before it."""
    from biasloss import autodiff as ad, data, layers, train
    cfg = train.TrainConfig(dataset=dataset, loss="bias", batch_size=batch,
                            seed=seed, prefetch=False)
    ds = data.make_synthetic(dataset, batch, seed=seed)
    model = layers.SkipblockNetMicro(cfg.model_spec(), seed=cfg.seed)
    graph = model.build(ad.leaf(np.ascontiguousarray(ds.images),
                                name="input"))
    tracemalloc.start()
    try:
        train._batch_loss(cfg, graph.logits, graph.feature_map, ds.labels,
                          train._epoch_stats(), "retained")
        return tracemalloc.get_traced_memory()[0] / 1e6
    finally:
        tracemalloc.stop()


def table(totals, walls, assembly, retained):
    """The printed report: one row per (kind, shape), then totals and the
    retained graph's MB."""
    n = len(walls)
    rows = collections.defaultdict(lambda: [0, 0.0, 0.0])  # calls, fwd, bwd
    for (kind, shape, phase), (seconds, calls) in totals.items():
        row = rows[(kind, shape)]
        if phase == "fwd":
            row[0] += calls
            row[1] += seconds * 1e3 / n
        else:
            row[2] += seconds * 1e3 / n
    lines = [f"{'op':<26} {'input shape':<16} {'calls':>5} {'fwd ms':>8} "
             f"{'bwd ms':>8}"]
    for (kind, shape), (calls, fwd, bwd) in sorted(
            rows.items(), key=lambda kv: -(kv[1][1] + kv[1][2])):
        lines.append(f"{kind:<26} {shape:<16} {calls / n:>5g} {fwd:>8.2f} "
                     f"{bwd:>8.2f}")
    fwd = sum(r[1] for r in rows.values())
    bwd = sum(r[2] for r in rows.values())
    lines.append(f"{'all ops':<26} {'':<16} {'':>5} {fwd:>8.2f} {bwd:>8.2f}")
    lines.append(f"step wall ms {sum(walls) * 1e3 / n:.2f} (mean of {n} "
                 f"steps)")
    lines.append(f"batch assembly ms {sum(assembly) * 1e3 / n:.2f} (mean of "
                 f"{n} steps)")
    lines.append(f"retained train graph MB {retained:.1f}")
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", nargs="?",
                    default=Path(__file__).resolve().parent.parent,
                    type=Path, help="source checkout to import src/ from")
    ap.add_argument("--batch", type=int, default=128)
    ap.add_argument("--steps", type=int, default=24,
                    help="steps counted in the table")
    ap.add_argument("--warmup", type=int, default=2,
                    help="steps run first and not counted")
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--dataset", choices=("mnist", "cifar10"),
                    default="mnist", help="geometry and augmentation")
    args = ap.parse_args(argv)
    if args.batch < 1 or args.steps < 1 or args.warmup < 0:
        ap.error("--batch and --steps must be >= 1, --warmup >= 0")
    src = args.checkout.resolve() / "src"
    if not (src / "biasloss" / "__init__.py").is_file():
        sys.exit(f"step_profile: no engine source under {src}")
    sys.path.insert(0, str(src))  # profile() imports the engine from here
    print(table(*profile(args.batch, args.steps, args.warmup, args.seed,
                         args.dataset),
                retained_mb(args.batch, args.seed, args.dataset)))


if __name__ == "__main__":
    main()
