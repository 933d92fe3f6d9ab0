import dataclasses
import struct
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from biasloss import _kernels as K
from biasloss import autodiff as ad
from biasloss import data, diagnostics, losses, train
from biasloss.layers import (GraphCache, MicroNetSpec, ParamInfo,
                             SkipblockNetMicro)
from biasloss.train import (CheckpointError, ConfigError, RUNLOG_HEADER,
                            TrainConfig, load_checkpoint, lr_at,
                            save_checkpoint, sgd_step, train_run)


def strip_wall(csv_text):
    """Drop the wall_seconds column (the one nondeterministic field)."""
    return "\n".join(",".join(line.split(",")[:-1])
                     for line in csv_text.splitlines())


def tiny_cfg(**kw):
    base = dict(loss="ce", epochs=2, batch_size=16, lr0=0.05, seed=0,
                dataset="mnist", augment=False, dropout=0.0)
    base.update(kw)
    return TrainConfig(**base)


def checkpoint_bytes(manifest, blob=b"\0" * 8):
    return (train.CHECKPOINT_MAGIC
            + struct.pack("<IQ", train.CHECKPOINT_VERSION, len(manifest))
            + manifest + blob)


# files that follow save_checkpoint's layout only in part
MALFORMED_CHECKPOINTS = {
    "short_header": train.CHECKPOINT_MAGIC + b"\1\0\0\0\0\0",
    "offset_not_integer": checkpoint_bytes(b"w 2 f32 zero\n"),
    "dimension_not_integer": checkpoint_bytes(b"w 2.5 f32 0\n"),
    "manifest_not_utf8": checkpoint_bytes(b"w\xff 2 f32 0\n"),
    "negative_dimension": checkpoint_bytes(b"w -1 f32 0\n", b"\0" * 4),
    "negative_offset": checkpoint_bytes(b"w 1 f32 -4\n"),
}


def write_empty_test_split(root):
    """An MNIST-format dataset under root with 16 train and 0 test samples."""
    data.write_synthetic_mnist(root, n_train=16, n_test=16)
    data.write_idx_images(Path(root) / "t10k-images-idx3-ubyte",
                          np.zeros((0, 1, 28, 28), np.uint8))
    data.write_idx_labels(Path(root) / "t10k-labels-idx1-ubyte",
                          np.zeros(0, np.uint8))


def write_nan_checkpoint(path):
    """A checkpoint of the default model with one NaN classifier entry."""
    model = SkipblockNetMicro(TrainConfig().model_spec(), seed=0)
    model.parameters()[-1].node.value[0] = np.nan
    save_checkpoint(path, model)


def retaining_stats(model, dataset, cfg):
    """_eval_epoch's stats from retaining passes over whole batches, the
    loss built on the graph's nodes."""
    model.eval()
    cache, stats = GraphCache(model), train._epoch_stats()
    spec = data.normalize_only(data.default_augment(cfg.dataset))
    for b in data.batches(dataset, cfg.batch_size, shuffle=False,
                          augment_spec=spec):
        out = cache.get(b.images)
        loss, record = train._compute_loss(cfg, cfg.bias_config(), out,
                                           b.labels)
        train._accumulate(stats, len(b.labels), loss.item(),
                          out.logits.value, b.labels, record)
    return stats


# (loss, detach_weight) of every loss path the val pass can take
EVAL_LOSSES = (("bias", True), ("bias", False), ("ce", True),
               ("focal", True))


@pytest.fixture(scope="module")
def tiny_sets():
    return (data.make_synthetic("mnist", 96, seed=0),
            data.make_synthetic("mnist", 48, seed=0, split="test"))


class TestSgdStep:
    def param(self, value, decay=True):
        node = ad.parameter(np.array(value))
        return ParamInfo("p", node, weight_decay=decay)

    def test_plain_gradient_descent(self):
        p = self.param([1.0, 2.0])
        g = {p.node: np.array([0.5, -0.5])}
        sgd_step([p], g, {}, lr=0.1, momentum=0.0, weight_decay=0.0)
        np.testing.assert_allclose(p.node.value, [0.95, 2.05])

    def test_momentum_hand_recursion(self):
        # constant grad g, lr 1, momentum 0.9: steps move by g then 1.9 g
        p = self.param([0.0])
        g = {p.node: np.array([1.0])}
        state = {}
        sgd_step([p], g, state, lr=1.0, momentum=0.9, weight_decay=0.0)
        np.testing.assert_allclose(p.node.value, [-1.0])
        sgd_step([p], g, state, lr=1.0, momentum=0.9, weight_decay=0.0)
        np.testing.assert_allclose(p.node.value, [-2.9])

    def test_decay_only(self):
        p = self.param([2.0])
        g = {p.node: np.array([0.0])}
        sgd_step([p], g, {}, lr=1.0, momentum=0.0, weight_decay=0.1)
        np.testing.assert_allclose(p.node.value, [1.8])  # 0.9 * theta

    def test_bn_params_skip_decay(self):
        p = self.param([2.0], decay=False)
        g = {p.node: np.array([0.0])}
        sgd_step([p], g, {}, lr=1.0, momentum=0.0, weight_decay=0.1)
        np.testing.assert_allclose(p.node.value, [2.0])

    def test_shape_mismatch(self):
        p = self.param([1.0, 2.0])
        g = {p.node: np.zeros(3)}
        with pytest.raises(ValueError):
            sgd_step([p], g, {}, 0.1, 0.0, 0.0)


class TestSchedule:
    def test_reference_recipe_values(self):
        cfg = TrainConfig(epochs=200)
        assert cfg.schedule == ((60, 0.2), (120, 0.2), (160, 0.2))
        assert lr_at(0, cfg) == pytest.approx(0.1)
        assert lr_at(59, cfg) == pytest.approx(0.1)
        assert lr_at(60, cfg) == pytest.approx(0.02)
        assert lr_at(160, cfg) == pytest.approx(0.0008)

    def test_empty_schedule_constant(self):
        cfg = TrainConfig(epochs=10, schedule=(), lr0=0.3)
        assert lr_at(9, cfg) == 0.3

    def test_short_run_rescaling(self):
        cfg = TrainConfig(epochs=10)
        assert cfg.schedule == ((3, 0.2), (6, 0.2), (8, 0.2))

    def test_non_increasing_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(schedule=((5, 0.2), (5, 0.2)))


class TestConfig:
    def test_file_and_override_precedence(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# comment\nloss=bias\nalpha=0.4\nepochs=7\n\n"
                     "prefetch=true\n")
        cfg = train.build_config(p, {"alpha": "0.6"})
        assert cfg.loss == "bias"
        assert cfg.alpha == 0.6       # override beats file
        assert cfg.epochs == 7
        assert cfg.prefetch is True

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("nonsense=1\n")
        with pytest.raises(ConfigError):
            train.build_config(p)

    def test_schedule_key(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("schedule=3:0.5,6:0.1\n")
        cfg = train.build_config(p)
        assert cfg.schedule == ((3, 0.5), (6, 0.1))

    def test_repeated_key_names_both_lines(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("loss=bias\n# comment\nalpha=0.4\n loss = ce\n")
        with pytest.raises(ConfigError,
                           match=r"c.cfg:4: key 'loss' repeats line 1"):
            train.parse_config_file(p)

    def test_non_utf8_file(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_bytes(b"loss=bias\n# caf\xe9\n")
        with pytest.raises(ConfigError, match="c.cfg: not UTF-8"):
            train.parse_config_file(p)

    def test_bad_loss(self):
        with pytest.raises(ConfigError):
            TrainConfig(loss="mse")

    @pytest.mark.parametrize("field,value", [
        ("batch_size", 0), ("batch_size", -4), ("epochs", -1),
        ("dropout", -0.1), ("dropout", 1.0), ("dropout", 1.5),
        ("dropout", float("nan")), ("clamp_lo", 1.6), ("clamp_hi", 0.4),
        ("alpha", -1.0), ("beta", -0.1), ("alpha", float("nan")),
        ("dataset", "foo"), ("train_limit", 0), ("train_limit", -60),
        ("val_limit", 0), ("width_multiplier", 0.0),
        ("width_multiplier", -1.0), ("width_multiplier", float("nan")),
        ("gamma", -1.0), ("gamma", float("nan")),
        ("lr0", float("nan")), ("lr0", 0.0), ("lr0", -0.1),
        ("lr0", float("inf")), ("momentum", -5.0), ("momentum", 1.0),
        ("momentum", float("nan")), ("weight_decay", -1.0),
        ("weight_decay", float("inf")), ("weight_decay", float("nan")),
        ("clamp_lo", float("nan")), ("clamp_lo", -float("inf")),
        ("clamp_hi", float("nan")), ("clamp_hi", float("inf")),
        ("schedule", ((1, -1.0),)), ("schedule", ((1, 0.0),)),
        ("schedule", ((1, float("nan")),)), ("schedule", ((1, float("inf")),)),
        ("schedule", ((-1, 0.2),)),
    ])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value})

    def test_range_edges_accepted(self):
        # lr0 1e10 is the CLI's numerical-failure fixture
        cfg = TrainConfig(batch_size=1, epochs=0, dropout=0.0,
                          clamp_lo=1.0, clamp_hi=1.0, alpha=0.0, beta=0.0,
                          gamma=0.0, train_limit=1, val_limit=1,
                          width_multiplier=1e-3, momentum=0.0,
                          weight_decay=0.0, lr0=1e10)
        assert cfg.schedule == ()
        assert TrainConfig(schedule=((0, 1e-3),)).schedule == ((0, 1e-3),)

    def test_hash_stable_and_sensitive(self):
        a = TrainConfig(seed=1)
        b = TrainConfig(seed=1)
        c = TrainConfig(seed=2)
        assert a.config_hash() == b.config_hash() != c.config_hash()
        # a valid non-default value for every field
        changed = dict(
            loss="bias", alpha=0.5, beta=0.1, clamp_lo=0.4, clamp_hi=1.6,
            detach_weight=False, gamma=1.0, epochs=3, batch_size=64,
            lr0=0.05, momentum=0.8, weight_decay=1e-4, schedule=((1, 0.5),),
            seed=2, dataset="cifar10", data_dir="/elsewhere",
            width_multiplier=0.5, dropout=0.1, augment=False, prefetch=True,
            train_limit=10, val_limit=10)
        assert set(changed) == {f.name for f in dataclasses.fields(a)}
        base = TrainConfig().config_hash()
        for name, value in changed.items():
            same = TrainConfig(**{name: value}).config_hash() == base
            assert same == (name in ("data_dir", "prefetch")), name


# the hash every checkpoint of a shipped config carries
SHIPPED_CONFIG_HASHES = {
    "cifar10_subset": "2e31850fac04f025a5a7df1afe008cd1",
    "mnist_bias": "b23d11fc70d81160716b3fed4a123dcf",
    "mnist_ce_baseline": "3722a085b220e22daee56855da291bf8",
}


class TestShippedConfigs:
    CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

    def test_every_shipped_config_is_pinned(self):
        assert ({p.stem for p in self.CONFIG_DIR.glob("*.cfg")}
                == set(SHIPPED_CONFIG_HASHES))

    @pytest.mark.parametrize("name", sorted(SHIPPED_CONFIG_HASHES))
    def test_keys_are_fields_and_hash_pinned(self, name):
        path = self.CONFIG_DIR / f"{name}.cfg"
        keys = set(train.parse_config_file(path))
        assert keys <= {f.name for f in dataclasses.fields(TrainConfig)}
        cfg = train.build_config(path)
        assert cfg.config_hash().hex() == SHIPPED_CONFIG_HASHES[name]


class TestCheckpoint:
    def test_roundtrip_bits(self, tmp_path):
        model = SkipblockNetMicro(MicroNetSpec(), seed=3)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, model, b"0123456789abcdef")
        state, h = load_checkpoint(p1)
        assert h == b"0123456789abcdef"
        model2 = SkipblockNetMicro(MicroNetSpec(), seed=99)
        model2.load_state(state)
        save_checkpoint(p2, model2, h)
        assert p1.read_bytes() == p2.read_bytes()

    def test_values_restored(self, tmp_path):
        model = SkipblockNetMicro(MicroNetSpec(), seed=3)
        save_checkpoint(tmp_path / "m.ckpt", model)
        state, _ = load_checkpoint(tmp_path / "m.ckpt")
        for p in model.parameters():
            np.testing.assert_array_equal(state[p.name], p.node.value)

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        p = tmp_path / "best.ckpt"
        save_checkpoint(p, SkipblockNetMicro(MicroNetSpec(), seed=3))
        before = p.read_bytes()

        class DiskFull:
            """A file whose third write fails, after the header is out."""

            def __init__(self, f):
                self.f, self.writes = f, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, b):
                self.writes += 1
                if self.writes == 3:
                    raise OSError(28, "No space left on device")
                return self.f.write(b)

        monkeypatch.setattr(train, "open",
                            lambda path, mode: DiskFull(open(path, mode)),
                            raising=False)
        with pytest.raises(OSError):
            save_checkpoint(p, SkipblockNetMicro(MicroNetSpec(), seed=4))
        assert p.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["best.ckpt"]

    def test_corrupted_magic(self, tmp_path):
        model = SkipblockNetMicro(MicroNetSpec(), seed=0)
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, model)
        raw = bytearray(p.read_bytes())
        raw[:4] = b"NOPE"
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            load_checkpoint(p)

    @pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
    def test_malformed_file_is_checkpoint_error(self, tmp_path, case):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(MALFORMED_CHECKPOINTS[case])
        with pytest.raises(CheckpointError):
            load_checkpoint(p)

    def test_shape_mismatch_is_checkpoint_error(self, tmp_path, tiny_sets):
        model = SkipblockNetMicro(MicroNetSpec(width_multiplier=0.5), seed=0)
        p = tmp_path / "half.ckpt"
        save_checkpoint(p, model)
        _, val = tiny_sets
        with pytest.raises(CheckpointError):
            train.evaluate(p, val, tiny_cfg())  # full-width model expected

    def test_missing_key_is_checkpoint_error(self, tmp_path, tiny_sets):
        model = SkipblockNetMicro(MicroNetSpec(skip_insertions=()), seed=0)
        p = tmp_path / "noskip.ckpt"
        save_checkpoint(p, model)
        _, val = tiny_sets
        with pytest.raises(CheckpointError, match="skip0_5"):
            train.evaluate(p, val, tiny_cfg())


BIAS_RUN_CFG = tiny_cfg(loss="bias", detach_weight=False, augment=True,
                        dropout=0.2, batch_size=20)


def run_files(out_dir):
    """A run's runlog without wall_seconds and both checkpoints."""
    return (strip_wall((out_dir / "runlog.csv").read_text()),
            (out_dir / "best.ckpt").read_bytes(),
            (out_dir / "final.ckpt").read_bytes())


@pytest.fixture(scope="module")
def serial_bias_run(tmp_path_factory, tiny_sets):
    """run_files of a BIAS_RUN_CFG run on tiny_sets with a ragged val set,
    its kernels walked without a pool."""
    tr, va = tiny_sets
    out = tmp_path_factory.mktemp("serial")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(K, "_HELPERS", 0)
        mp.setattr(K, "_POOL", None)
        train_run(BIAS_RUN_CFG, out_dir=out, train_ds=tr, val_ds=va.take(41))
    return run_files(out)


class TestTrainRun:
    def test_loss_decreases_within_first_epoch(self):
        # manual step loop over a 64-sample slice for per-batch granularity
        ds = data.make_synthetic("mnist", 64, seed=1)
        cfg = tiny_cfg(batch_size=16, lr0=0.1)
        model = SkipblockNetMicro(cfg.model_spec(), seed=0)
        model.train()
        cache = GraphCache(model)
        state = {}
        batch_losses = []
        for b in data.batches(ds, 16, seed=0, epoch=0):
            out = cache.get(b.images)
            loss = losses.cross_entropy(losses.LossBatch(out.logits, b.labels))
            batch_losses.append(loss.item())
            grads = ad.backward(loss)
            sgd_step(model.parameters(), grads, state, 0.1, 0.9, 0.0)
        # replay the first batch after the epoch of updates
        first = next(iter(data.batches(ds, 16, seed=0, epoch=0)))
        out = cache.get(first.images)
        model.eval()
        end_loss = losses.cross_entropy(
            losses.LossBatch(out.logits, first.labels)).item()
        assert end_loss < batch_losses[0]

    def test_runlog_header_and_row_format(self):
        # the column order is the RunRow field order; split is written raw
        # and every other field as its repr
        assert RUNLOG_HEADER == (
            "epoch,split,loss,top1,lr,mean_raw_variance,"
            "mean_scaled_variance,mean_weight,frac_clamped_lo,"
            "frac_clamped_hi,wall_seconds")
        row = train.RunRow(3, "val", 0.1, 0.5, 0.020000000000000004,
                           2.0, 0.25, 1.0, 0.0, 1 / 3, 12.5)
        assert row.csv() == ("3,val,0.1,0.5,0.020000000000000004,2.0,0.25,"
                             "1.0,0.0,0.3333333333333333,12.5")

    def test_runlog_shape_and_header(self, tmp_path, tiny_sets):
        tr, va = tiny_sets
        log, _ = train_run(tiny_cfg(), out_dir=tmp_path, train_ds=tr,
                           val_ds=va)
        text = (tmp_path / "runlog.csv").read_text()
        assert text.splitlines()[0] == RUNLOG_HEADER
        splits = [r.split(",")[1] for r in text.splitlines()[1:]]
        assert splits == ["train", "val"] * 2
        assert (tmp_path / "best.ckpt").exists()
        assert (tmp_path / "final.ckpt").exists()

    def test_bias_zero_zero_matches_ce_bitwise(self, tiny_sets):
        tr, va = tiny_sets
        log_ce, _ = train_run(tiny_cfg(loss="ce", dropout=0.2), train_ds=tr,
                              val_ds=va)
        log_b, _ = train_run(tiny_cfg(loss="bias", alpha=0.0, beta=0.0,
                                      dropout=0.2), train_ds=tr, val_ds=va)
        assert strip_wall(log_ce.to_csv()) == strip_wall(log_b.to_csv())

    def test_clamp_fractions_with_attached_weights(self, tiny_sets):
        # one step on 32 images: both train rows come from the same forward.
        # Attached weights are the graph's float32 values, and 0.9 and 1.1
        # are not float32 numbers; such a run used to log 0.0 for both.
        tr, va = tiny_sets
        rows = []
        for detach in (True, False):
            cfg = tiny_cfg(loss="bias", alpha=2.0, clamp_lo=0.9, clamp_hi=1.1,
                           detach_weight=detach, epochs=1, batch_size=32)
            log, _ = train_run(cfg, train_ds=tr.take(32), val_ds=va)
            row = log.last("train")
            rows.append((row.frac_clamped_lo, row.frac_clamped_hi))
        assert rows[0] == rows[1]
        assert rows[0][0] > 0 and rows[0][1] > 0

    @pytest.mark.parametrize("loss", ["ce", "focal"])
    def test_unweighted_losses_clamp_nothing(self, tiny_sets, loss):
        # their unit weights equal clamp_lo = 1.0 yet no clamp made them so
        tr, va = tiny_sets
        log, _ = train_run(tiny_cfg(loss=loss, clamp_lo=1.0, epochs=1),
                           train_ds=tr, val_ds=va)
        for row in log.rows:
            assert row.mean_weight == 1.0
            assert (row.frac_clamped_lo, row.frac_clamped_hi) == (0.0, 0.0)

    def test_determinism_across_runs_and_prefetch(self, tmp_path, tiny_sets):
        tr, va = tiny_sets
        logs = []
        ckpts = []
        for i, prefetch in enumerate([False, False, True]):
            out = tmp_path / f"run{i}"
            cfg = tiny_cfg(loss="bias", augment=True, dropout=0.2,
                           prefetch=prefetch)
            log, _ = train_run(cfg, out_dir=out, train_ds=tr, val_ds=va)
            logs.append(strip_wall(log.to_csv()))
            ckpts.append((out / "final.ckpt").read_bytes())
        assert logs[0] == logs[1] == logs[2]
        assert ckpts[0] == ckpts[1] == ckpts[2]

    def test_evaluate_matches_final_val_row(self, tmp_path, tiny_sets):
        tr, va = tiny_sets
        cfg = tiny_cfg(loss="bias")
        log, _ = train_run(cfg, out_dir=tmp_path, train_ds=tr, val_ds=va)
        loss, top1 = train.evaluate(tmp_path / "final.ckpt", va, cfg)
        last = log.last("val")
        assert loss == last.loss and top1 == last.top1

    @pytest.mark.parametrize("loss,detach", [
        ("bias", False), ("ce", True), ("focal", True)])
    def test_evaluate_matches_val_row_for_every_loss(self, tmp_path,
                                                     tiny_sets, loss, detach):
        # the final model through a checkpoint round trip reads the same
        tr, va = tiny_sets
        cfg = tiny_cfg(loss=loss, detach_weight=detach, epochs=1)
        log, _ = train_run(cfg, out_dir=tmp_path, train_ds=tr, val_ds=va)
        loss, top1 = train.evaluate(tmp_path / "final.ckpt", va, cfg)
        last = log.last("val")
        assert loss == last.loss and top1 == last.top1

    @pytest.mark.parametrize("n", [48, 41], ids=["ragged", "last_batch_of_1"])
    def test_evaluate_matches_a_retaining_pass(self, tmp_path, kernel_helpers,
                                               n):
        # _eval_epoch runs each slice of a batch on its own graph; its
        # stats are those of one retaining pass over each whole batch, for
        # every loss, and evaluate reads them from a checkpoint
        model = SkipblockNetMicro(tiny_cfg().model_spec(), seed=3)
        save_checkpoint(tmp_path / "m.ckpt", model)
        va = data.make_synthetic("mnist", n, seed=4, split="test")
        spec = data.normalize_only(data.default_augment("mnist"))
        for loss, detach in EVAL_LOSSES:
            cfg = tiny_cfg(loss=loss, detach_weight=detach, batch_size=20)
            model.train()
            stats = train._eval_epoch(model, va, cfg, cfg.bias_config(),
                                      spec)
            assert model.training
            assert stats == retaining_stats(model, va, cfg)
            assert train.evaluate(tmp_path / "m.ckpt", va, cfg) == (
                stats["loss"] / n, stats["correct"] / n)

    @pytest.mark.parametrize("n", [48, 41], ids=["ragged", "last_batch_of_1"])
    def test_val_row_matches_a_retaining_pass(self, tiny_sets, kernel_helpers,
                                              n):
        # the val row of a one-epoch run is a retaining pass's over the
        # final model, for every loss
        tr, _ = tiny_sets
        va = data.make_synthetic("mnist", n, seed=4, split="test")
        for loss, detach in EVAL_LOSSES:
            cfg = tiny_cfg(loss=loss, detach_weight=detach, epochs=1,
                           batch_size=20)
            log, model = train_run(cfg, train_ds=tr.take(20), val_ds=va)
            row = log.last("val")
            want = train._row(0, "val", retaining_stats(model, va, cfg),
                              row.lr, row.wall_seconds)
            assert row == want

    def test_train_run_across_kernel_helpers(self, tmp_path, tiny_sets,
                                             kernel_helpers,
                                             serial_bias_run):
        # the val pass cuts each batch into 1, 2 or 4 slices and the steps
        # walk their blocks on 0, 1 or 3 helpers; the files are the bytes
        # of a run without a pool
        tr, va = tiny_sets
        train_run(BIAS_RUN_CFG, out_dir=tmp_path, train_ds=tr,
                  val_ds=va.take(41))
        assert run_files(tmp_path) == serial_bias_run

    def test_concurrent_callers_match_serial(self, tmp_path, monkeypatch):
        """evaluate and profile called from four threads at once on a
        one-helper pool all finish, with the results of serial calls."""
        cfg = tiny_cfg()
        save_checkpoint(tmp_path / "m.ckpt",
                        SkipblockNetMicro(cfg.model_spec(), seed=5))
        va = data.make_synthetic("mnist", 40, seed=6, split="test")

        def call():
            model = train.model_from_checkpoint(tmp_path / "m.ckpt", cfg)
            return (train.evaluate(tmp_path / "m.ckpt", va, cfg),
                    diagnostics.profile(model, va, batch_size=16).rows)

        with ThreadPoolExecutor(1) as pool:
            monkeypatch.setattr(K, "_HELPERS", 1)
            monkeypatch.setattr(K, "_POOL", pool)
            expected = call()
            results = []

            def caller():
                results.extend(call() == expected for _ in range(2))

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=caller) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [True] * 8

    def test_random_init_chance_level(self, tmp_path):
        # ~10% top-1 from an untrained model on balanced 10-class data
        cfg = tiny_cfg()
        model = SkipblockNetMicro(cfg.model_spec(), seed=11)
        save_checkpoint(tmp_path / "init.ckpt", model)
        va = data.make_synthetic("mnist", 1000, seed=2, split="test")
        _, top1 = train.evaluate(tmp_path / "init.ckpt", va, cfg)
        assert 0.05 <= top1 <= 0.15

    def test_nonfinite_loss_aborts_with_record(self, tiny_sets):
        tr, va = tiny_sets
        cfg = tiny_cfg(loss="bias", lr0=1e9, epochs=1)
        with np.errstate(all="ignore"):
            with pytest.raises(train.NonFiniteLossError) as ei:
                train_run(cfg, train_ds=tr, val_ds=va)
        assert ei.value.record is not None

    def test_nonfinite_loss_message_is_one_line(self, tiny_sets):
        # the record's per-sample arrays stay on the exception, out of
        # the message
        tr, va = tiny_sets
        images = va.images.copy()
        images[:, 0, 0, 0] = np.nan
        nan_va = data.Dataset(images, va.labels, va.name, va.split)
        with pytest.raises(train.NonFiniteLossError) as ei:
            train_run(tiny_cfg(epochs=1, batch_size=48), train_ds=tr,
                      val_ds=nan_va)
        msg = str(ei.value)
        assert "\n" not in msg
        assert msg == ("non-finite loss nan at val epoch 0 batch 0; "
                       "variance in [nan, nan], weight in [1, 1]")
        assert len(ei.value.record.raw) == 48

    @pytest.mark.parametrize("prefetch", [False, True])
    def test_normalize_channel_mismatch_is_format_error(self, tiny_sets,
                                                        prefetch):
        # CIFAR-10 normalization has 3 channels; the images have 1
        tr, va = tiny_sets
        with pytest.raises(data.FormatError, match="channels"):
            train_run(tiny_cfg(dataset="cifar10", prefetch=prefetch),
                      train_ds=tr, val_ds=va)

    def test_eval_epoch_error_restores_train_mode(self, tiny_sets):
        _, va = tiny_sets
        cfg = tiny_cfg()
        model = SkipblockNetMicro(cfg.model_spec(), seed=0)
        # two-channel normalization on one-channel images
        spec = data.AugmentSpec(hflip=False, rotate_deg=(0.0, 0.0),
                                normalize=((0.1, 0.2), (0.3, 0.4)))
        with pytest.raises(data.FormatError):
            train._eval_epoch(model, va, cfg, cfg.bias_config(), spec)
        assert all(m.training for m in model.modules())

    def test_nan_parameter_fails_evaluate(self, tmp_path, tiny_sets):
        _, va = tiny_sets
        write_nan_checkpoint(tmp_path / "nan.ckpt")
        with pytest.raises(train.NonFiniteLossError,
                           match="at test split batch 0;"):
            train.evaluate(tmp_path / "nan.ckpt", va, tiny_cfg())

    def test_nonfinite_val_loss_aborts(self, tiny_sets):
        tr, va = tiny_sets
        images = va.images.copy()
        images[-1, 0, 0, 0] = np.nan  # in the last of three val batches
        nan_va = data.Dataset(images, va.labels, va.name, va.split)
        with pytest.raises(train.NonFiniteLossError,
                           match="at val epoch 0 batch 2;"):
            train_run(tiny_cfg(), train_ds=tr, val_ds=nan_va)

    def test_empty_split_config_error(self, tmp_path):
        write_empty_test_split(tmp_path)
        cfg = tiny_cfg(data_dir=str(tmp_path))
        assert len(train.load_split(cfg, "train")) == 16
        with pytest.raises(ConfigError, match="mnist test split .* is empty"):
            train.load_split(cfg, "test")

    def test_empty_dataset_rejected_by_evaluate(self, tmp_path, tiny_sets):
        _, va = tiny_sets
        save_checkpoint(tmp_path / "m.ckpt",
                        SkipblockNetMicro(tiny_cfg().model_spec(), seed=0))
        with pytest.raises(data.EmptyDatasetError,
                           match="^synthetic-mnist test dataset has no "
                                 "samples$"):
            train.evaluate(tmp_path / "m.ckpt", va.take(0), tiny_cfg())

    @pytest.mark.parametrize("empty", ["train", "test"])
    def test_empty_dataset_rejected_by_train_run(self, tiny_sets, empty):
        tr, va = tiny_sets
        sets = {"train": tr, "test": va}
        sets[empty] = sets[empty].take(0)
        with pytest.raises(data.EmptyDatasetError,
                           match=f"^synthetic-mnist {empty} dataset has no "
                                 "samples$"):
            train_run(tiny_cfg(), train_ds=sets["train"],
                      val_ds=sets["test"])

    def test_missing_dataset_config_error(self, monkeypatch):
        monkeypatch.delenv("DATA_DIR", raising=False)
        with pytest.raises(ConfigError):
            train_run(tiny_cfg(data_dir=None))

    def test_absent_dataset_root_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            train_run(tiny_cfg(data_dir=str(tmp_path / "absent")))

    def test_mean_weight_within_clamp(self, tiny_sets):
        tr, va = tiny_sets
        log, _ = train_run(tiny_cfg(loss="bias"), train_ds=tr, val_ds=va)
        for row in log.rows:
            assert 0.5 <= row.mean_weight <= 1.5
            assert 0.0 <= row.frac_clamped_lo <= 1.0
            assert 0.0 <= row.frac_clamped_hi <= 1.0
