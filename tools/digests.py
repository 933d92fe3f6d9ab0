#!/usr/bin/env python3
"""Digests of a checkout's training, evaluation and profiling outputs.

    python tools/digests.py [CHECKOUT]

Imports the engine from CHECKOUT/src (default: the checkout this script
sits in) and makes four 2-epoch runs on synthetic data:

    mnist_bias           MNIST, bias loss, prefetch off
    mnist_bias_attached  MNIST, bias loss, detach_weight=false
    cifar10_ce_prefetch  CIFAR-10, cross-entropy, prefetch on
    mnist_focal          MNIST, focal loss

For each run it prints one ``name sha256`` line. The digest covers the
runlog without its wall_seconds column, best.ckpt, final.ckpt and the
(loss, top1) of ``train.evaluate`` on final.ckpt. A last ``profile`` line
digests the CSV of ``diagnostics.profile`` on the mnist_bias final.ckpt.
Two checkouts whose outputs are byte-identical print identical lines, so
comparing the output of two checkouts checks a refactor's byte-identity.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

N_TRAIN, N_VAL, BATCH, EPOCHS = 128, 64, 32, 2

RUNS = {
    "mnist_bias": dict(dataset="mnist", loss="bias", prefetch=False),
    "mnist_bias_attached": dict(dataset="mnist", loss="bias",
                                detach_weight=False),
    "cifar10_ce_prefetch": dict(dataset="cifar10", loss="ce", prefetch=True),
    "mnist_focal": dict(dataset="mnist", loss="focal"),
}


def runlog_without_wall(path):
    """The runlog's lines with the wall_seconds column removed."""
    rows = [line.split(",") for line in path.read_text().splitlines()]
    col = rows[0].index("wall_seconds")
    return "\n".join(",".join(r[:col] + r[col + 1:]) for r in rows) + "\n"


def run_digest(name, options, out_dir):
    from biasloss import data, train
    cfg = train.TrainConfig(epochs=EPOCHS, batch_size=BATCH, seed=0,
                            **options)
    train_ds = data.make_synthetic(cfg.dataset, N_TRAIN, seed=0)
    val_ds = data.make_synthetic(cfg.dataset, N_VAL, seed=0, split="test")
    run_dir = out_dir / name
    train.train_run(cfg, run_dir, train_ds=train_ds, val_ds=val_ds)
    loss, top1 = train.evaluate(run_dir / "final.ckpt", val_ds, cfg)
    h = hashlib.sha256()
    h.update(runlog_without_wall(run_dir / "runlog.csv").encode())
    for ckpt in ("best.ckpt", "final.ckpt"):
        h.update((run_dir / ckpt).read_bytes())
    h.update(repr((loss, top1)).encode())
    return h.hexdigest()


def profile_digest(out_dir):
    from biasloss import data, diagnostics, train
    cfg = train.TrainConfig(epochs=EPOCHS, batch_size=BATCH, seed=0,
                            **RUNS["mnist_bias"])
    model = train.model_from_checkpoint(
        out_dir / "mnist_bias" / "final.ckpt", cfg)
    ds = data.make_synthetic("mnist", N_VAL, seed=0, split="test")
    prof = diagnostics.profile(model, ds, loss_id="bias")
    return hashlib.sha256(prof.to_csv().encode()).hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", nargs="?",
                    default=Path(__file__).resolve().parent.parent,
                    type=Path, help="source checkout to import src/ from")
    args = ap.parse_args(argv)
    src = args.checkout.resolve() / "src"
    if not (src / "biasloss" / "__init__.py").is_file():
        sys.exit(f"digests: no engine source under {src}")
    sys.path.insert(0, str(src))  # the functions above import from here
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        for name, options in RUNS.items():
            print(name, run_digest(name, options, out_dir), flush=True)
        print("profile", profile_digest(out_dir), flush=True)


if __name__ == "__main__":
    main()
