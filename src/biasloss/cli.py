"""Command-line surface: train, eval, profile, sweep, curve, fixtures.

The config flags of train, eval, profile and sweep are built from
TrainConfig's fields (name, type and help text), so they mirror the
config-file keys one-to-one; precedence is CLI flag over config file over
built-in default. All outputs land under --out. Exit codes: 0 success,
2 usage/config problems and unreadable paths, 3 a non-finite loss or
profiled variance.
"""

from __future__ import annotations

import argparse
import contextvars
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import data as datamod
from . import diagnostics, train as trainmod
from .train import ConfigError, CheckpointError, NonFiniteLossError, TrainConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

def _add_config_flags(p):
    p.add_argument("--config", help="key=value config file")
    for f in fields(TrainConfig):
        # bools and the schedule reach build_config as text and are
        # parsed there, like config-file values
        p.add_argument(f"--{f.name}",
                       type=f.type if f.type in (int, float) else str,
                       default=None, help=f.metadata["help"])


def _gather_config(args, **fixed):
    overrides = {f.name: getattr(args, f.name) for f in fields(TrainConfig)}
    return trainmod.build_config(args.config, overrides | fixed)


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_train(args):
    cfg = _gather_config(args)
    out = Path(args.out)

    def progress(row):
        if not args.quiet:
            print(f"epoch {row.epoch}: val loss {row.loss:.4f} "
                  f"top1 {row.top1:.4f} lr {row.lr:g}")

    trainmod.train_run(cfg, out_dir=out, progress=progress)
    if not args.quiet:
        # best.ckpt is written only when an epoch ran
        written = [str(out / name) for name in
                   ("runlog.csv", "best.ckpt", "final.ckpt")
                   if (out / name).exists()]
        print(f"wrote {', '.join(written)}")
    return EXIT_OK


def cmd_eval(args):
    cfg = _gather_config(args)
    ds = trainmod.load_split(cfg, args.split)
    loss, top1 = trainmod.evaluate(args.ckpt, ds, cfg)
    print(f"loss={loss!r} top1={top1!r}")
    return EXIT_OK


def cmd_profile(args):
    cfg = _gather_config(args)
    ds = trainmod.load_split(cfg, args.split)
    model = trainmod.model_from_checkpoint(args.ckpt, cfg)
    layers = args.layers.split(",") if args.layers else None
    norm = datamod.default_augment(cfg.dataset).normalize
    prof = diagnostics.profile(model, ds, layers, batch_size=cfg.batch_size,
                               normalize=norm, loss_id=cfg.loss)
    out = _out_dir(args) / "profile.csv"
    out.write_text(prof.to_csv())
    if not args.quiet:
        sys.stdout.write(prof.to_csv())
    return EXIT_OK


def _parse_grid(text, what):
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"bad {what} list: {text!r}") from None
    if not values:
        raise ConfigError(f"{what} list must be non-empty")
    if not all(0.0 <= v < np.inf for v in values):
        raise ConfigError(f"{what} values must be >= 0 and finite, got "
                          f"{text!r}")
    return values


def cmd_sweep(args):
    alphas = _parse_grid(args.alphas, "alpha")
    betas = _parse_grid(args.betas, "beta")
    cfg = _gather_config(args)
    if cfg.epochs < 1:
        # each cell reports its last val row, which needs an epoch
        raise ConfigError(f"sweep needs epochs >= 1, got {cfg.epochs}")
    if args.jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {args.jobs}")
    out = _out_dir(args)
    train_ds = trainmod.load_split(cfg, "train")
    val_ds = trainmod.load_split(cfg, "test")

    def run_cell(ab):
        a, b = ab
        cell_cfg = _gather_config(args, loss="bias", alpha=a, beta=b)
        cell_dir = out / f"a{a:g}_b{b:g}"
        try:
            log, _ = trainmod.train_run(cell_cfg, out_dir=cell_dir,
                                        train_ds=train_ds, val_ds=val_ds)
            row = log.last("val")
            return (a, b, row.top1, row.loss, "ok")
        except NonFiniteLossError:
            # a one-word status: the error message holds commas
            return (a, b, float("nan"), float("nan"), "nonfinite")

    cells = [(a, b) for a in alphas for b in betas]
    with ThreadPoolExecutor(args.jobs) as ex:
        # each cell runs in a copy of the caller's context, so the caller's
        # np.errstate reaches it
        futures = [ex.submit(contextvars.copy_context().run, run_cell, ab)
                   for ab in cells]
        results = [f.result() for f in futures]
    lines = ["alpha,beta,final_top1,final_loss,status"]
    for a, b, top1, loss, status in results:
        lines.append(f"{a!r},{b!r},{top1!r},{loss!r},{status}")
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    if not args.quiet:
        print("\n".join(lines))
    return EXIT_OK


def cmd_curve(args):
    alphas = _parse_grid(args.alpha, "alpha")
    betas = _parse_grid(args.beta, "beta")
    if args.samples < 1:
        raise ConfigError(f"samples must be >= 1, got {args.samples}")
    for name in ("clamp_lo", "clamp_hi"):
        value = getattr(args, name)
        if not np.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
    if args.clamp_lo > args.clamp_hi:
        raise ConfigError(f"clamp_lo {args.clamp_lo} exceeds clamp_hi "
                          f"{args.clamp_hi}")
    rows = diagnostics.bias_curve(alphas, betas, samples=args.samples,
                                  clamp_lo=args.clamp_lo,
                                  clamp_hi=args.clamp_hi)
    out = _out_dir(args) / "curve.csv"
    out.write_text(diagnostics.curve_csv(rows))
    if not args.quiet:
        print(f"wrote {out} ({len(rows)} rows)")
    return EXIT_OK


def cmd_fixtures(args):
    for name in ("synthetic_mnist", "synthetic_cifar", "seed"):
        if getattr(args, name) < 0:
            raise ConfigError(f"{name} must be >= 0, got "
                              f"{getattr(args, name)}")
    if 0 < args.synthetic_cifar < 5:
        # each of the five data_batch files needs an image
        raise ConfigError(f"synthetic_cifar must be 0 or >= 5, got "
                          f"{args.synthetic_cifar}")
    out = _out_dir(args)
    # handcrafted format fixtures: a 2-image 2x2 IDX pair and a 1-record
    # CIFAR batch with known contents
    imgs = np.array([[[[0, 64], [128, 255]]],
                     [[[255, 1], [2, 3]]]], dtype=np.uint8)
    datamod.write_idx_images(out / "fixture-images-idx3-ubyte", imgs)
    datamod.write_idx_labels(out / "fixture-labels-idx1-ubyte",
                             np.array([3, 7], dtype=np.uint8))
    cimg = np.arange(3 * 32 * 32, dtype=np.uint8).reshape(1, 3, 32, 32) % 251
    datamod.write_cifar10(out / "fixture-cifar.bin", cimg, np.array([7]))
    msg = [f"wrote format fixtures under {out}"]
    if args.synthetic_mnist:
        datamod.write_synthetic_mnist(out / "synthetic-mnist",
                                      args.synthetic_mnist,
                                      max(args.synthetic_mnist // 2, 16),
                                      seed=args.seed)
        msg.append(f"synthetic MNIST-format dataset: {out / 'synthetic-mnist'}")
    if args.synthetic_cifar:
        datamod.write_synthetic_cifar10(out / "synthetic-cifar10",
                                        args.synthetic_cifar,
                                        max(args.synthetic_cifar // 2, 16),
                                        seed=args.seed)
        msg.append(f"synthetic CIFAR-format dataset: {out / 'synthetic-cifar10'}")
    if not args.quiet:
        print("\n".join(msg))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="biasloss",
        description="Train compact CNNs with a variance-weighted loss, "
                    "profile per-layer activation variance, and emit "
                    "weight-curve data.")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress output")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("train", help="run one training job")
    _add_config_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    _add_config_flags(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--split", default="test", choices=["train", "test"])
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("profile", help="per-layer activation variance")
    _add_config_flags(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--layers", help="comma-separated probe names "
                                    "(default: all)")
    p.add_argument("--split", default="test", choices=["train", "test"])
    p.add_argument("--out", default=".")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("sweep", help="grid of short runs over alpha x beta")
    _add_config_flags(p)
    p.add_argument("--alphas", default="0.1,0.3,0.5")
    p.add_argument("--betas", default="0.1,0.3,0.5")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("curve", help="emit weight-function curve data")
    p.add_argument("--alpha", default="0.3", help="comma-separated values")
    p.add_argument("--beta", default="0.3", help="comma-separated values")
    p.add_argument("--samples", type=int, default=101)
    p.add_argument("--clamp_lo", type=float, default=0.5)
    p.add_argument("--clamp_hi", type=float, default=1.5)
    p.add_argument("--out", default=".")
    p.set_defaults(fn=cmd_curve)

    p = sub.add_parser("fixtures", help="write format fixtures and optional "
                                        "synthetic datasets")
    p.add_argument("--out", required=True)
    p.add_argument("--synthetic_mnist", type=int, default=0,
                   help="also write an IDX-format synthetic dataset of N "
                        "training images")
    p.add_argument("--synthetic_cifar", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_fixtures)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 0 for --help, 2 for usage errors
        return int(e.code or 0)
    try:
        # numpy's warnings off: the engine's own checks report a non-finite
        # result as one exit-3 line, which a warning would precede
        with np.errstate(all="ignore"):
            return args.fn(args)
    except (ConfigError, CheckpointError, datamod.FormatError, OSError,
            diagnostics.ProbeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonFiniteLossError, diagnostics.NonFiniteVarianceError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
