import math

import numpy as np
import pytest

from biasloss import data, diagnostics
from biasloss.diagnostics import (LayerProbe, ProbeError, VarianceProfile,
                                  bias_curve, curve_csv, depth_trend, profile)
from biasloss.layers import BatchNorm2d, MicroNetSpec, SkipblockNetMicro


@pytest.fixture()
def model():
    return SkipblockNetMicro(MicroNetSpec(), seed=0)


@pytest.fixture()
def dataset():
    return data.make_synthetic("mnist", 48, seed=0, split="test")


class TestLayerProbe:
    def test_hand_aggregation(self):
        p = LayerProbe("x")
        p.update([1.0, 2.0, 3.0])
        assert (p.avg, p.max, p.min) == (2.0, 3.0, 1.0)

    def test_split_merge_rule(self):
        rng = np.random.default_rng(0)
        all_vals = rng.random(50)
        whole = LayerProbe("x")
        whole.update(all_vals)
        a, b = LayerProbe("x"), LayerProbe("x")
        a.update(all_vals[:20])
        b.update(all_vals[20:])
        merged = a.merge(b)
        assert abs(merged.avg - whole.avg) <= 1e-10
        assert merged.max == whole.max and merged.min == whole.min

    def test_merge_name_mismatch(self):
        with pytest.raises(ProbeError):
            LayerProbe("x").merge(LayerProbe("y"))

    def test_ordering_invariant(self):
        p = LayerProbe("x")
        p.update([3.0, 1.0, 2.0])
        assert p.max >= p.avg >= p.min


class TestProfile:
    def test_constant_layer_reports_zero(self, model, dataset):
        # zeroing the head conv makes its activation constant per sample
        model.head.conv.weight.value = np.zeros_like(
            model.head.conv.weight.value)
        model.eval()
        prof = profile(model, dataset, ["head"])
        name, avg, mx, mn = prof.row("head")
        assert (avg, mx, mn) == (0.0, 0.0, 0.0)

    def test_rows_follow_depth_order(self, model, dataset):
        prof = profile(model, dataset, ["head", "stem", "block3"])
        assert [r[0] for r in prof.rows] == ["stem", "block3", "head"]

    def test_unknown_layer(self, model, dataset):
        with pytest.raises(ProbeError):
            profile(model, dataset, ["stem", "nope"])

    def test_split_merge_consistency(self, model, dataset):
        whole = profile(model, dataset)
        half1 = profile(model, dataset.take(20))
        rest = data.Dataset(dataset.images[20:], dataset.labels[20:],
                            dataset.name, dataset.split)
        half2 = profile(model, rest)
        for (n1, a1, x1, m1), (_, a2, x2, m2), (_, aw, xw, mw) in zip(
                half1.rows, half2.rows, whole.rows):
            merged_avg = (a1 * 20 + a2 * (len(dataset) - 20)) / len(dataset)
            assert abs(merged_avg - aw) <= 1e-10
            assert max(x1, x2) == xw and min(m1, m2) == mw

    def test_order_insensitive_over_samples(self, model, dataset):
        prof = profile(model, dataset)
        perm = np.random.default_rng(1).permutation(len(dataset))
        shuffled = data.Dataset(dataset.images[perm], dataset.labels[perm],
                                dataset.name, dataset.split)
        prof2 = profile(model, shuffled)
        for (n1, a1, x1, m1), (n2, a2, x2, m2) in zip(prof.rows, prof2.rows):
            assert abs(a1 - a2) <= 1e-10
            assert x1 == x2 and m1 == m2

    def test_batch_size_does_not_matter(self, model, dataset):
        p1 = profile(model, dataset, ["stem", "head"], batch_size=7)
        p2 = profile(model, dataset, ["stem", "head"], batch_size=48)
        for r1, r2 in zip(p1.rows, p2.rows):
            assert abs(r1[1] - r2[1]) <= 1e-6

    def test_csv_header(self, model, dataset):
        prof = profile(model, dataset, ["stem"])
        assert prof.to_csv().splitlines()[0] == "layer,avg,max,min"

    @pytest.mark.parametrize("training", [True, False])
    def test_error_restores_mode(self, model, dataset, training):
        if not training:
            model.eval()
        # two-channel normalization on one-channel images
        with pytest.raises(data.FormatError):
            profile(model, dataset, normalize=((0.1, 0.2), (0.3, 0.4)))
        bns = [m for m in model.modules() if isinstance(m, BatchNorm2d)]
        assert len(bns) == 20
        assert all(m.training == training for m in model.modules())


class TestDepthTrend:
    def prof(self, early_avg, last_avg):
        return VarianceProfile(rows=[("early", early_avg, early_avg + 1,
                                      early_avg - 1),
                                     ("last", last_avg, last_avg + 1,
                                      max(last_avg - 1, 0.0))])

    def test_reported_skipblock_values(self):
        # published depth pattern: 5th-layer avg 1.7 decays to 0.09
        verdict, ratio = depth_trend(self.prof(1.7, 0.09), "early", "last")
        assert verdict and ratio == pytest.approx(18.9, abs=0.1)

    def test_reported_mobile_baseline_values(self):
        verdict, ratio = depth_trend(self.prof(1.7, 0.05), "early", "last")
        assert verdict and ratio == pytest.approx(34.0, abs=0.1)

    def test_equal_averages(self):
        verdict, ratio = depth_trend(self.prof(0.5, 0.5), "early", "last")
        assert not verdict and ratio == 1.0

    def test_missing_layer(self):
        with pytest.raises(ProbeError):
            depth_trend(self.prof(1.0, 0.5), "early", "missing")


class TestBiasCurve:
    def test_anchor_row(self):
        rows = bias_curve([0.3], [0.3], samples=11)
        a, b, v, zr, zc = rows[0]
        assert (v, zr) == (0.0, pytest.approx(0.7, abs=1e-15))

    def test_monotone_raw(self):
        rows = bias_curve([0.7], [0.2], samples=51)
        zr = [r[3] for r in rows]
        assert all(b > a for a, b in zip(zr, zr[1:]))

    def test_clamp_applied(self):
        rows = bias_curve([1.0], [0.3], samples=2)
        _, _, v, zr, zc = rows[-1]
        assert v == 1.0
        assert zr == pytest.approx(math.e - 0.3, rel=1e-12)
        assert zc == 1.5

    def test_bounds_and_minimum_for_all_pairs(self):
        rows = bias_curve([0.0, 0.3, 1.0, 2.0], [0.0, 0.3, 0.7], samples=21)
        for a, b, v, zr, zc in rows:
            assert 0.5 <= zc <= 1.5
            if v == 0.0:
                assert zr == pytest.approx(1.0 - b, abs=1e-15)

    def test_csv_header(self):
        text = curve_csv(bias_curve([0.3], [0.3], samples=3))
        assert text.splitlines()[0] == "alpha,beta,v,z_raw,z_clamped"


class TestTrainedModelTrend:
    def test_depth_decay_after_synthetic_training(self):
        # qualitative check on the profiling pipeline: after a short train
        # run the head's average variance sits below the stem's
        from biasloss.train import TrainConfig, train_run
        tr = data.make_synthetic("mnist", 128, seed=4)
        va = data.make_synthetic("mnist", 64, seed=4, split="test")
        cfg = TrainConfig(loss="ce", epochs=2, batch_size=32, lr0=0.05,
                          seed=0, dataset="mnist", augment=False, dropout=0.0)
        _, model = train_run(cfg, train_ds=tr, val_ds=va)
        prof = profile(model, va, ["stem", "head"])
        verdict, ratio = depth_trend(prof, "stem", "head")
        assert verdict and ratio > 1.0
