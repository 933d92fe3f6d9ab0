"""Deterministic training harness: SGD with momentum, step-decay schedule,
per-epoch metrics including variance/weight statistics, and checkpointing.

A run is reproducible bit-for-bit given (config, seed): shuffling and
augmentation are counter-keyed, dropout draws follow the fixed forward
order, and the only nondeterministic RunLog column is wall_seconds.

TrainConfig's fields are the one config schema: each is a config-file key
and a CLI flag, with its type, help text and hash identity on the field.
"""

import hashlib
import os
import struct
import time
from dataclasses import dataclass, field, fields
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import data as datamod
from .layers import GraphCache, MicroNetSpec, SkipblockNetMicro
from .losses import (BiasLossConfig, LossBatch, bias_loss, cross_entropy,
                     focal_loss, variance_record)

CHECKPOINT_MAGIC = b"BLCK"
CHECKPOINT_VERSION = 1


class ConfigError(ValueError):
    """Raised for unparseable or inconsistent training configuration."""


class CheckpointError(ValueError):
    """Raised when a checkpoint file is malformed or mismatched."""


class NonFiniteLossError(ArithmeticError):
    """Raised when training produces a non-finite loss; carries the
    offending batch's variance record for diagnosis."""

    def __init__(self, message, record=None):
        super().__init__(message)
        self.record = record


def _opt(default, help, identity=True):
    """A config field with the help text of its CLI flag; identity=False
    keeps an execution detail out of config_hash."""
    return field(default=default,
                 metadata={"help": help, "identity": identity})


# (field, rule, test) for TrainConfig's numeric fields; the comparisons
# also reject NaN, and an unset limit (None) passes
_RANGES = (
    ("batch_size", ">= 1", lambda v: v >= 1),
    ("epochs", ">= 0", lambda v: v >= 0),
    ("seed", ">= 0", lambda v: v >= 0),
    ("train_limit", ">= 1", lambda v: v is None or v >= 1),
    ("val_limit", ">= 1", lambda v: v is None or v >= 1),
    ("width_multiplier", "> 0", lambda v: v > 0.0),
    ("dropout", "in [0, 1)", lambda v: 0.0 <= v < 1.0),
    ("alpha", "finite and >= 0", lambda v: 0.0 <= v < np.inf),
    ("beta", "finite and >= 0", lambda v: 0.0 <= v < np.inf),
    ("gamma", "finite and >= 0", lambda v: 0.0 <= v < np.inf),
    ("lr0", "finite and > 0", lambda v: 0.0 < v < np.inf),
    ("momentum", "in [0, 1)", lambda v: 0.0 <= v < 1.0),
    ("weight_decay", "finite and >= 0", lambda v: 0.0 <= v < np.inf),
    ("clamp_lo", "finite", np.isfinite),
    ("clamp_hi", "finite", np.isfinite),
)


@dataclass
class TrainConfig:
    loss: str = _opt("ce", "loss function: ce | focal | bias")
    alpha: float = _opt(0.3, "exponential weight slope")
    beta: float = _opt(0.3, "weight offset (minimum raw weight is 1 - beta)")
    clamp_lo: float = _opt(0.5, "lower clamp for per-sample weights")
    clamp_hi: float = _opt(1.5, "upper clamp for per-sample weights")
    detach_weight: bool = _opt(
        True, "true/false: treat weights as constants in backprop")
    gamma: float = _opt(2.0, "focal modulation exponent")
    epochs: int = _opt(5, "training epochs")
    batch_size: int = _opt(128, "minibatch size")
    lr0: float = _opt(0.1, "initial learning rate")
    momentum: float = _opt(0.9, "SGD momentum")
    weight_decay: float = _opt(5e-4, "L2 weight decay (BN parameters exempt)")
    # ((epoch, multiplier), ...); None derives the reference recipe
    schedule: tuple = _opt(None, "decay points, e.g. 60:0.2,120:0.2,160:0.2")
    seed: int = _opt(0, "global seed")
    dataset: str = _opt("mnist", "mnist | cifar10")
    data_dir: str = _opt(None, "dataset root (default: DATA_DIR env var)",
                         identity=False)
    width_multiplier: float = _opt(1.0, "uniform channel scaling")
    dropout: float = _opt(0.2, "dropout rate before the classifier")
    augment: bool = _opt(True, "true/false: random flip/rotation")
    prefetch: bool = _opt(False, "true/false: background batch prefetch",
                          identity=False)
    train_limit: int = _opt(None, "use only the first N training samples")
    val_limit: int = _opt(None, "use only the first N validation samples")

    def __post_init__(self):
        if self.loss not in ("ce", "focal", "bias"):
            raise ConfigError(f"unknown loss {self.loss!r}")
        if self.dataset not in ("mnist", "cifar10"):
            raise ConfigError(f"unknown dataset {self.dataset!r}")
        for name, rule, ok in _RANGES:
            if not ok(getattr(self, name)):
                raise ConfigError(f"{name} must be {rule}, got "
                                  f"{getattr(self, name)}")
        if self.clamp_lo > self.clamp_hi:
            raise ConfigError(f"clamp_lo {self.clamp_lo} exceeds clamp_hi "
                              f"{self.clamp_hi}")
        if self.schedule is None:
            # the reference recipe decays x0.2 at 30/60/80% of the run
            self.schedule = tuple(
                (e, 0.2) for e in sorted({max(1, int(self.epochs * f + 0.5))
                                          for f in (0.3, 0.6, 0.8)})
                if e < self.epochs)
        else:
            self.schedule = tuple((int(e), float(m)) for e, m in self.schedule)
            es = [e for e, _ in self.schedule]
            if es != sorted(set(es)):
                raise ConfigError("schedule epochs must be strictly increasing")
            if not all(e >= 0 and 0.0 < m < np.inf for e, m in self.schedule):
                raise ConfigError(f"schedule needs epochs >= 0 and finite "
                                  f"multipliers > 0, got {self.schedule}")

    def bias_config(self):
        return BiasLossConfig(self.alpha, self.beta, self.clamp_lo,
                              self.clamp_hi, detach_weight=self.detach_weight)

    def model_spec(self):
        in_ch = 3 if self.dataset == "cifar10" else 1
        return MicroNetSpec(in_channels=in_ch, num_classes=10,
                            width_multiplier=self.width_multiplier,
                            dropout=self.dropout)

    def canonical(self):
        return ";".join(f"{f.name}={getattr(self, f.name)!r}"
                        for f in fields(self) if f.metadata["identity"])

    def config_hash(self):
        return hashlib.sha256(self.canonical().encode()).digest()[:16]


def _parse_bool(value):
    v = value.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(value)


def _parse_schedule(value):
    value = value.strip()
    if not value:
        return ()
    out = []
    for part in value.split(","):
        e, m = part.split(":")
        out.append((int(e), float(m)))
    return tuple(out)


# the text parser of each config key, picked by its field's annotation
# (a class, since this module does not postpone annotations)
_PARSERS = {f.name: {bool: _parse_bool, int: int, float: float,
                     str: str.strip, tuple: _parse_schedule}[f.type]
            for f in fields(TrainConfig)}


def _parse_value(key, value):
    if key not in _PARSERS:
        raise ConfigError(f"unknown config key {key!r}")
    try:
        return _PARSERS[key](value)
    except ValueError:
        raise ConfigError(f"{key}: cannot parse value {value!r}") from None


def parse_config_file(path):
    """Line-oriented UTF-8 key=value file, each key once -> overrides."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text ({e.reason})") from None
    overrides, seen = {}, {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, value = (t.strip() for t in line.split("=", 1))
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line "
                              f"{seen[key]}")
        seen[key] = lineno
        overrides[key] = _parse_value(key, value)
    return overrides


def build_config(file_path=None, overrides=None):
    """Precedence: explicit overrides > config file > defaults."""
    merged = {}
    if file_path:
        merged.update(parse_config_file(file_path))
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        merged[key] = (_parse_value(key, value) if isinstance(value, str)
                       else value)
    try:
        return TrainConfig(**merged)
    except TypeError as e:
        raise ConfigError(str(e)) from None


# ---------------------------------------------------------------------------
# optimizer

def sgd_step(params, grads, state, lr, momentum, weight_decay):
    """buf <- momentum*buf + grad + wd*theta ; theta <- theta - lr*buf.

    params is a list of ParamInfo; weight decay skips entries flagged
    weight_decay=False (the BN affine parameters).
    """
    for p in params:
        g = grads[p.node]
        theta = p.node.value
        if g.shape != theta.shape:
            raise ValueError(f"{p.name}: grad shape {g.shape} != {theta.shape}")
        if weight_decay and p.weight_decay:
            g = g + theta * theta.dtype.type(weight_decay)
        buf = state.get(p.name)
        if buf is None:
            buf = np.zeros_like(theta)
            state[p.name] = buf
        buf *= theta.dtype.type(momentum)
        buf += g
        theta -= theta.dtype.type(lr) * buf
    return state


def lr_at(epoch, cfg: TrainConfig):
    """lr0 times the product of multipliers whose epoch <= current."""
    lr = cfg.lr0
    for e, m in cfg.schedule:
        if epoch >= e:
            lr *= m
    return lr


# ---------------------------------------------------------------------------
# run log

@dataclass
class RunRow:
    epoch: int
    split: str
    loss: float
    top1: float
    lr: float
    mean_raw_variance: float
    mean_scaled_variance: float
    mean_weight: float
    frac_clamped_lo: float
    frac_clamped_hi: float
    wall_seconds: float

    def csv(self):
        return ",".join(self.split if f.name == "split"
                        else repr(getattr(self, f.name)) for f in fields(self))


RUNLOG_HEADER = ",".join(f.name for f in fields(RunRow))


@dataclass
class RunLog:
    rows: list = field(default_factory=list)

    def to_csv(self):
        return "\n".join([RUNLOG_HEADER] + [r.csv() for r in self.rows]) + "\n"

    def write(self, path):
        Path(path).write_text(self.to_csv())

    def last(self, split):
        for row in reversed(self.rows):
            if row.split == split:
                return row
        return None


# ---------------------------------------------------------------------------
# checkpoints

def _state_entries(model):
    for p in model.parameters():
        yield p.name, p.node.value
    for name, buf in model.buffers():
        yield name, buf


_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8"), "u8": np.dtype("u1")}
_DTYPE_NAMES = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64",
                np.dtype(np.uint8): "u8"}


def save_checkpoint(path, model, cfg_hash=b""):
    """Binary layout: magic 'BLCK', u32 version, u64 manifest length,
    UTF-8 manifest (per line: name, shape dims, dtype, byte offset, all
    space-separated), then the little-endian value blob."""
    entries = list(_state_entries(model))
    if cfg_hash:
        entries.append(("__config_hash__",
                        np.frombuffer(cfg_hash, dtype=np.uint8).copy()))
    lines = []
    blobs = []
    offset = 0
    for name, arr in entries:
        dt = _DTYPE_NAMES[np.dtype(arr.dtype)]
        raw = np.ascontiguousarray(arr, dtype=_DTYPES[dt]).tobytes()
        dims = " ".join(str(d) for d in arr.shape)
        lines.append(f"{name} {dims} {dt} {offset}")
        blobs.append(raw)
        offset += len(raw)
    manifest = ("\n".join(lines) + "\n").encode("utf-8")
    # written beside the target and renamed over it, so a failed or
    # interrupted write leaves the previous file whole
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<I", CHECKPOINT_VERSION))
            f.write(struct.pack("<Q", len(manifest)))
            f.write(manifest)
            for raw in blobs:
                f.write(raw)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path):
    """Returns (state dict name -> array, config hash bytes or b'').

    A file that does not follow save_checkpoint's layout raises
    CheckpointError.
    """
    raw = Path(path).read_bytes()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) < 16:
        raise CheckpointError(f"{path}: truncated header")
    (version,) = struct.unpack("<I", raw[4:8])
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    (mlen,) = struct.unpack("<Q", raw[8:16])
    try:
        manifest = raw[16:16 + mlen].decode("utf-8")
    except UnicodeDecodeError:
        raise CheckpointError(f"{path}: manifest is not UTF-8") from None
    blob = raw[16 + mlen:]
    state = {}
    for line in manifest.splitlines():
        tokens = line.split(" ")
        if len(tokens) < 3:
            raise CheckpointError(f"{path}: malformed manifest line {line!r}")
        name = tokens[0]
        dt = _DTYPES.get(tokens[-2])
        if dt is None:
            raise CheckpointError(f"{path}: unknown dtype {tokens[-2]!r}")
        try:
            offset = int(tokens[-1])
            shape = tuple(int(t) for t in tokens[1:-2])
        except ValueError:
            raise CheckpointError(
                f"{path}: malformed manifest line {line!r}") from None
        if offset < 0 or any(d < 0 for d in shape):
            raise CheckpointError(
                f"{path}: negative offset or dimension in {line!r}")
        count = int(np.prod(shape)) if shape else 1
        end = offset + count * dt.itemsize
        if end > len(blob):
            raise CheckpointError(f"{path}: entry {name} overruns blob")
        state[name] = np.frombuffer(
            blob[offset:end], dtype=dt).reshape(shape).copy()
    cfg_hash = state.pop("__config_hash__", np.empty(0, np.uint8)).tobytes()
    return state, cfg_hash


# ---------------------------------------------------------------------------
# the training loop

def _epoch_stats():
    return {"n": 0, "loss": 0.0, "correct": 0, "raw": 0.0, "scaled": 0.0,
            "weight": 0.0, "clamp_lo": 0.0, "clamp_hi": 0.0}


def _row(epoch, split, stats, lr, wall):
    n = stats["n"]
    return RunRow(epoch, split, stats["loss"] / n, stats["correct"] / n, lr,
                  stats["raw"] / n, stats["scaled"] / n, stats["weight"] / n,
                  stats["clamp_lo"] / n, stats["clamp_hi"] / n, wall)


def _batch_loss(cfg, logits, feature_map, labels, stats, where):
    """The loss node of one batch, accumulated into stats.

    A non-finite loss raises NonFiniteLossError naming where; its one-line
    message gives the range of the batch's variances and weights, and the
    whole variance record rides on the exception. Unweighted losses log
    the variance columns with unit applied weights.
    """
    batch = LossBatch(logits, labels, feature_map)
    if cfg.loss == "bias":
        loss, record = bias_loss(batch, cfg.bias_config())
    else:
        loss = (focal_loss(batch, cfg.gamma) if cfg.loss == "focal"
                else cross_entropy(batch))
        record = variance_record(feature_map.value)
    lval = loss.item()
    if not np.isfinite(lval):
        raise NonFiniteLossError(
            f"non-finite loss {lval} at {where}; variance in "
            f"[{record.raw.min():.4g}, {record.raw.max():.4g}], weight in "
            f"[{record.weight.min():.4g}, {record.weight.max():.4g}]", record)
    n = len(labels)
    stats["n"] += n
    stats["loss"] += lval * n
    stats["correct"] += int((np.argmax(logits.value, axis=1) == labels).sum())
    stats["raw"] += float(record.raw.sum())
    stats["scaled"] += float(record.scaled.sum())
    stats["weight"] += float(record.weight.sum())
    stats["clamp_lo"] += int(record.clamped_lo.sum())
    stats["clamp_hi"] += int(record.clamped_hi.sum())
    return loss


def _eval_epoch(model, dataset, cfg, where="eval"):
    """Loss and accuracy stats over dataset in eval mode, on the sample
    walk of a GraphCache of its own; the loss is built on constants of
    each batch's joined logits and feature map, so it holds no model
    node."""
    spec = datamod.normalize_only(datamod.default_augment(cfg.dataset))
    cache = GraphCache(model)
    stats = _epoch_stats()
    with model.evaluating():
        for i, b in enumerate(datamod.batches(
                dataset, cfg.batch_size, shuffle=False, augment_spec=spec,
                prefetch=cfg.prefetch)):
            logits, fmap = cache.walk(b.images,
                                      attrgetter("logits", "feature_map"))
            _batch_loss(cfg, ad.constant(logits), ad.constant(fmap),
                        b.labels, stats, f"{where} batch {i}")
    return stats


def load_split(cfg: TrainConfig, split):
    """One split of cfg.dataset, read from cfg.data_dir or, when that is
    unset, from the DATA_DIR environment variable."""
    root = cfg.data_dir or os.environ.get("DATA_DIR")
    if not root:
        raise ConfigError("no dataset root: pass --data_dir or set DATA_DIR")
    if not Path(root).exists():
        raise ConfigError(f"dataset root {root} does not exist")
    ds = datamod.load_dataset(cfg.dataset, root, split)
    if not len(ds):
        raise ConfigError(f"{cfg.dataset} {split} split under {root} is empty")
    return ds.take(cfg.train_limit if split == "train" else cfg.val_limit)


def train_run(cfg: TrainConfig, out_dir=None, train_ds=None, val_ds=None,
              progress=None):
    """Run the full training recipe; returns (RunLog, model).

    Datasets may be passed directly (tests) or loaded from cfg.data_dir.
    With out_dir set, writes runlog.csv, best.ckpt and final.ckpt there.
    """
    if train_ds is None or val_ds is None:
        train_ds = load_split(cfg, "train")
        val_ds = load_split(cfg, "test")
    train_ds = datamod.require_samples(train_ds.take(cfg.train_limit))
    val_ds = datamod.require_samples(val_ds.take(cfg.val_limit))
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)

    model = SkipblockNetMicro(cfg.model_spec(), seed=cfg.seed)
    params = model.parameters()
    cache = GraphCache(model)
    aug = datamod.default_augment(cfg.dataset)
    if not cfg.augment:
        aug = datamod.normalize_only(aug)
    opt_state = {}
    log = RunLog()
    best = None

    for epoch in range(cfg.epochs):
        lr = lr_at(epoch, cfg)
        stats = _epoch_stats()
        t0 = time.perf_counter()
        for step, b in enumerate(datamod.batches(
                train_ds, cfg.batch_size, seed=cfg.seed, epoch=epoch,
                augment_spec=aug, prefetch=cfg.prefetch)):
            out = cache.get(b.images)
            loss = _batch_loss(cfg, out.logits, out.feature_map, b.labels,
                               stats, f"train epoch {epoch} step {step}")
            sgd_step(params, ad.backward(loss), opt_state, lr, cfg.momentum,
                     cfg.weight_decay)
        log.rows.append(_row(epoch, "train", stats, lr,
                             time.perf_counter() - t0))

        t0 = time.perf_counter()
        vstats = _eval_epoch(model, val_ds, cfg, f"val epoch {epoch}")
        vrow = _row(epoch, "val", vstats, lr, time.perf_counter() - t0)
        log.rows.append(vrow)
        if progress:
            progress(vrow)
        if out_dir is not None and (best is None or vrow.top1 > best):
            best = vrow.top1
            save_checkpoint(out_dir / "best.ckpt", model, cfg.config_hash())

    if out_dir is not None:
        log.write(out_dir / "runlog.csv")
        save_checkpoint(out_dir / "final.ckpt", model, cfg.config_hash())
    return log, model


def model_from_checkpoint(checkpoint_path, cfg: TrainConfig):
    """The model cfg describes, with parameters and BN statistics from a
    checkpoint. Raises CheckpointError when the file does not fit it."""
    state, _ = load_checkpoint(checkpoint_path)
    model = SkipblockNetMicro(cfg.model_spec(), seed=cfg.seed)
    try:
        model.load_state(state)
    except (KeyError, ad.ShapeError) as e:
        raise CheckpointError(f"checkpoint does not fit model: {e}") from None
    return model


def evaluate(checkpoint_path, dataset, cfg: TrainConfig):
    """Eval-mode pass over a dataset with weights from a checkpoint.

    Returns (loss, top1). No augmentation, no dropout.
    """
    datamod.require_samples(dataset)
    model = model_from_checkpoint(checkpoint_path, cfg)
    stats = _eval_epoch(model, dataset, cfg, f"{dataset.split} split")
    return stats["loss"] / stats["n"], stats["correct"] / stats["n"]
