"""Acceptance suite: one test per release criterion, at pinned tolerances.

Criteria 8-10 train on the real MNIST / CIFAR-10 binary files and skip,
with an explanation, when those files are not present under DATA_DIR (this
sandbox has no way to download them). Everything else runs hermetically;
criterion 11 drives the real CLI end to end on a synthetic dataset
materialized in genuine IDX files.
"""

import math
import time
import warnings

import numpy as np
import pytest

from biasloss import autodiff as ad
from biasloss import cli, data, diagnostics, losses, train
from biasloss.layers import MicroNetSpec, SkipblockNetMicro
from biasloss.losses import BiasLossConfig
from conftest import require_dataset
from fdcheck import assert_grads_close


def rand_batch(rng, n=8, k=10, c=4, h=5, w=5, degenerate=False):
    logits = rng.normal(size=(n, k))
    fm = (np.ones((n, c, h, w)) if degenerate
          else rng.normal(size=(n, c, h, w)))
    labels = rng.integers(0, k, size=n)
    return logits, labels, fm


def test_c01_loss_formula_fidelity():
    """bias loss with alpha=beta=0 collapses to cross-entropy, <=1e-12."""
    rng = np.random.default_rng(0)
    cfg = BiasLossConfig(alpha=0.0, beta=0.0)
    t0 = time.perf_counter()
    for _ in range(100):
        logits, labels, fm = rand_batch(rng)
        b, _ = losses.bias_loss(logits, labels, fm, cfg)
        c = losses.cross_entropy(logits, labels)
        assert abs(b.item() - c.item()) <= 1e-12 * max(1.0, abs(c.item()))
    assert time.perf_counter() - t0 < 1.0


def test_c02_gradient_correctness():
    """backward vs central differences (f64, eps=1e-4) <= 1e-4 relative on
    a 3-block micro model with a skip block, over 5 seeds, < 2 min."""
    spec = MicroNetSpec(
        in_channels=2, num_classes=3, stem_channels=4,
        stages=((8, 4, 1, "relu"), (8, 8, 2, "hswish"), (12, 8, 1, "hswish")),
        skip_insertions=((0, 3),), head_channels=8, dropout=0.0)
    t0 = time.perf_counter()
    for seed in range(5):
        model = SkipblockNetMicro(spec, seed=seed, dtype=np.float64)
        rng = np.random.default_rng(100 + seed)
        x = ad.leaf(rng.normal(size=(3, 2, 12, 12)))
        out = model.build(x)
        labels = rng.integers(0, 3, size=3)
        loss, _ = losses.bias_loss(out.logits, labels, out.feature_map)
        worst, _ = assert_grads_close(
            loss, [p.node for p in model.parameters()], eps=1e-4, rtol=1e-4)
        assert worst <= 1e-4
    assert time.perf_counter() - t0 < 120.0


def test_c03_per_sample_decomposition():
    """batch loss equals the mean of independently computed z_i * CE_i,
    <=1e-12, including degenerate constant-feature batches."""
    rng = np.random.default_rng(1)
    cfg = BiasLossConfig()
    for trial in range(100):
        logits, labels, fm = rand_batch(rng, degenerate=(trial % 5 == 4))
        loss, _ = losses.bias_loss(logits, labels, fm, cfg)
        flat = fm.reshape(len(labels), -1)
        n = flat.shape[1]
        per = []
        for i in range(len(labels)):
            mu = flat[i].sum() / n
            raw_i = ((flat[i] - mu) ** 2).sum() / (n - 1)
            per.append(raw_i)
        raw = np.array(per)
        lo, hi = raw.min(), raw.max()
        scaled = (np.full_like(raw, 1.0) if hi - lo < 1e-12
                  else (raw - lo) / (hi - lo))
        z = np.clip(np.exp(cfg.alpha * scaled) - cfg.beta,
                    cfg.clamp_lo, cfg.clamp_hi)
        total = 0.0
        for i in range(len(labels)):
            row = logits[i]
            e = np.exp(row - row.max())
            ce_i = -math.log(e[labels[i]] / e.sum())
            total += z[i] * ce_i
        expect = total / len(labels)
        assert abs(loss.item() - expect) <= 1e-12 * max(1.0, abs(expect))


def test_c04_bias_function_anchors():
    """z_raw(0) = 1 - beta exactly; z_raw(1; 0.3, 0.3) = exp(0.3) - 0.3
    within 1e-12; clamped weights always in [0.5, 1.5]."""
    for beta in (0.0, 0.3, 0.7):
        raw = np.exp(0.3 * 0.0) - beta
        assert raw == 1.0 - beta
    got = math.exp(0.3 * 1.0) - 0.3
    assert abs(got - (math.exp(0.3) - 0.3)) <= 1e-12
    for alpha in np.linspace(0, 4, 9):
        for beta in np.linspace(0, 1, 5):
            cfg = BiasLossConfig(alpha=float(alpha), beta=float(beta))
            z = losses.bias_weight(np.linspace(0, 1, 101), cfg)
            assert (z >= 0.5).all() and (z <= 1.5).all()


def test_c05_scaling_invariants():
    """non-degenerate batches: scaled variance hits 0 at the argmin and 1
    at the argmax, and every value lies in [0, 1]."""
    rng = np.random.default_rng(2)
    for _ in range(200):
        raw = rng.uniform(0, 10, size=rng.integers(2, 33))
        scaled, lo, hi = losses.minmax_scale(raw)
        if hi - lo < 1e-12:
            continue
        assert scaled[np.argmin(raw)] == 0.0
        assert scaled[np.argmax(raw)] == 1.0
        assert (scaled >= 0.0).all() and (scaled <= 1.0).all()


def test_c06_variance_oracle():
    """batch variances match a naive per-row two-pass oracle <= 1e-10
    relative on random tensors up to [8, 16, 8, 8]."""
    rng = np.random.default_rng(3)
    shapes = [(2, 1, 2, 2), (4, 3, 5, 5), (8, 16, 8, 8), (1, 2, 8, 8),
              (8, 16, 1, 2)]
    for shape in shapes:
        fm = rng.normal(size=shape) * rng.uniform(0.1, 10)
        got = losses.batch_variances(fm)
        flat = fm.reshape(shape[0], -1)
        for i in range(shape[0]):
            mu = 0.0
            for v in flat[i]:
                mu += float(v)
            mu /= flat.shape[1]
            acc = 0.0
            for v in flat[i]:
                acc += (float(v) - mu) ** 2
            expect = acc / (flat.shape[1] - 1)
            assert abs(got[i] - expect) <= 1e-10 * max(1.0, abs(expect))


def test_c07_focal_baseline():
    """gamma=0 equals CE <= 1e-12; the p=0.5, gamma=2 single-sample value
    equals 0.25 * ln 2 within 1e-9."""
    rng = np.random.default_rng(4)
    for _ in range(50):
        logits = rng.normal(size=(6, 5)) * 2
        labels = rng.integers(0, 5, size=6)
        f = losses.focal_loss(logits, labels, gamma=0.0)
        c = losses.cross_entropy(logits, labels)
        assert abs(f.item() - c.item()) <= 1e-12 * max(1.0, abs(c.item()))
    single = losses.focal_loss(np.array([[0.0, 0.0]]), np.array([0]),
                               gamma=2.0)
    assert abs(single.item() - 0.25 * math.log(2)) <= 1e-9


# --------------------------------------------------------------------------
# real-data criteria


@pytest.fixture(scope="session")
def mnist_runs(tmp_path_factory):
    root = require_dataset("mnist")
    out = tmp_path_factory.mktemp("mnist_runs")
    results = {}
    for loss in ("ce", "bias"):
        cfg = train.TrainConfig(loss=loss, epochs=5, batch_size=128,
                                seed=0, dataset="mnist", data_dir=str(root))
        t0 = time.perf_counter()
        log, model = train.train_run(cfg, out_dir=out / loss)
        results[loss] = {"log": log, "model": model, "cfg": cfg,
                         "seconds": time.perf_counter() - t0,
                         "dir": out / loss}
    return results


def test_c08_mnist_desk_scale(mnist_runs):
    """CE reaches >= 97% test top1 in <= 5 epochs within 30 min; the bias
    run lands within +-0.5% of the CE run's top1."""
    ce = mnist_runs["ce"]
    bias = mnist_runs["bias"]
    assert ce["seconds"] <= 1800 and bias["seconds"] <= 1800
    ce_top1 = max(r.top1 for r in ce["log"].rows if r.split == "val")
    bias_top1 = max(r.top1 for r in bias["log"].rows if r.split == "val")
    assert ce_top1 >= 0.97
    assert abs(ce_top1 - bias_top1) <= 0.005


def test_c09_cifar_subset(tmp_path):
    """both losses reach >= 45% test top1 in 15 epochs on a 4096-sample
    subset, within 60 min, with no non-finite aborts and
    frac_clamped_hi < 0.5 throughout."""
    root = require_dataset("cifar10")
    for loss in ("ce", "bias"):
        cfg = train.TrainConfig(loss=loss, epochs=15, batch_size=128,
                                seed=0, dataset="cifar10",
                                data_dir=str(root), train_limit=4096)
        t0 = time.perf_counter()
        log, _ = train.train_run(cfg, out_dir=tmp_path / loss)
        assert time.perf_counter() - t0 <= 3600
        top1 = max(r.top1 for r in log.rows if r.split == "val")
        assert top1 >= 0.45, f"{loss}: top1 {top1}"
        assert all(r.frac_clamped_hi < 0.5 for r in log.rows)


def test_c10_depth_variance_pattern(mnist_runs):
    """within-model depth decay is a hard assertion; the bias-vs-CE
    last-layer direction is logged as a warning on single-seed noise."""
    norm = data.default_augment("mnist").normalize
    root = require_dataset("mnist")
    val = data.load_mnist(root, "test")
    profs = {}
    for loss in ("ce", "bias"):
        model = mnist_runs[loss]["model"]
        profs[loss] = diagnostics.profile(model, val, ["stem", "head"],
                                          normalize=norm, loss_id=loss)
        verdict, ratio = diagnostics.depth_trend(profs[loss], "stem", "head")
        assert verdict, (f"{loss}: last-layer avg variance did not decay "
                         f"(ratio {ratio})")
    ce_last = profs["ce"].row("head")[1]
    bias_last = profs["bias"].row("head")[1]
    if bias_last < ce_last:
        warnings.warn(
            f"bias-loss model's last-layer avg variance {bias_last:.4f} fell "
            f"below the CE model's {ce_last:.4f}; single-seed direction "
            f"check failed (soft)", stacklevel=1)


# --------------------------------------------------------------------------
# pipeline criteria (hermetic)


def _strip_wall(text):
    return "\n".join(",".join(line.split(",")[:-1])
                     for line in text.splitlines())


def test_c11_cli_determinism(tmp_path):
    """two identical `train` invocations produce byte-identical checkpoints
    and runlogs (modulo the wall-clock column), with prefetch on and off."""
    droot = tmp_path / "dataset"
    data.write_synthetic_mnist(droot, n_train=256, n_test=64, seed=0)
    base = ["--quiet", "train", "--data_dir", str(droot), "--epochs", "2",
            "--batch_size", "64", "--lr0", "0.05", "--seed", "7",
            "--loss", "bias", "--augment", "true", "--dropout", "0.2"]
    logs = {}
    ckpts = {}
    for prefetch in ("false", "true"):
        pair = []
        for attempt in range(2):
            out = tmp_path / f"run_{prefetch}_{attempt}"
            code = cli.main(base + ["--prefetch", prefetch,
                                    "--out", str(out)])
            assert code == 0
            pair.append(out)
        a, b = pair
        ra = (a / "runlog.csv").read_text()
        rb = (b / "runlog.csv").read_text()
        assert _strip_wall(ra) == _strip_wall(rb)
        for name in ("best.ckpt", "final.ckpt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        logs[prefetch] = _strip_wall(ra)
        ckpts[prefetch] = (a / "final.ckpt").read_bytes()
    assert logs["false"] == logs["true"]
    assert ckpts["false"] == ckpts["true"]


def test_c12_format_round_trips(tmp_path):
    """IDX, CIFAR-10 and checkpoint files re-serialize byte-identically."""
    import struct
    idx_imgs = struct.pack(">IIII", 0x00000803, 2, 3, 3) + bytes(range(18))
    p = tmp_path / "imgs"
    p.write_bytes(idx_imgs)
    data.write_idx_images(tmp_path / "imgs2", data.read_idx(p))
    assert (tmp_path / "imgs2").read_bytes() == idx_imgs

    idx_labels = struct.pack(">II", 0x00000801, 4) + bytes([0, 3, 9, 1])
    p = tmp_path / "labels"
    p.write_bytes(idx_labels)
    data.write_idx_labels(tmp_path / "labels2", data.read_idx(p))
    assert (tmp_path / "labels2").read_bytes() == idx_labels

    rec = bytes([5]) + bytes((i * 3 + 1) % 256 for i in range(3072))
    p = tmp_path / "cifar.bin"
    p.write_bytes(rec * 3)
    imgs, labels = data.read_cifar10(p)
    data.write_cifar10(tmp_path / "cifar2.bin", imgs, labels)
    assert (tmp_path / "cifar2.bin").read_bytes() == rec * 3

    model = SkipblockNetMicro(MicroNetSpec(), seed=5)
    train.save_checkpoint(tmp_path / "m.ckpt", model, b"hash0123hash0123")
    state, h = train.load_checkpoint(tmp_path / "m.ckpt")
    m2 = SkipblockNetMicro(MicroNetSpec(), seed=6)
    m2.load_state(state)
    train.save_checkpoint(tmp_path / "m2.ckpt", m2, h)
    assert ((tmp_path / "m.ckpt").read_bytes()
            == (tmp_path / "m2.ckpt").read_bytes())
