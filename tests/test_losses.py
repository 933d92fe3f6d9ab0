import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from biasloss import _kernels
from biasloss import autodiff as ad
from biasloss import losses
from biasloss.losses import (BiasLossConfig, batch_variances, bias_loss,
                             bias_weight, cross_entropy, focal_loss,
                             minmax_scale)
from fdcheck import assert_grads_close


def naive_softmax_ce(logits, labels):
    """Independent oracle: plain softmax then log, f64."""
    logits = np.asarray(logits, dtype=np.float64)
    total = 0.0
    for i, row in enumerate(logits):
        e = np.exp(row - row.max())
        p = e / e.sum()
        total += -math.log(p[labels[i]])
    return total / len(labels)


def two_pass_variance(row):
    """Independent oracle: explicit two-pass unbiased variance."""
    mu = 0.0
    for v in row:
        mu += float(v)
    mu /= len(row)
    acc = 0.0
    for v in row:
        acc += (float(v) - mu) ** 2
    return acc / (len(row) - 1)


class TestBatchVariances:
    def test_constant_maps(self):
        fm = np.ones((2, 1, 2, 2))
        np.testing.assert_array_equal(batch_variances(fm), [0.0, 0.0])

    def test_per_row_hand_oracle(self):
        fm = np.array([[[[0.0, 2.0], [0.0, 2.0]]],
                       [[[1.0, 1.0], [1.0, 1.0]]]])
        np.testing.assert_allclose(batch_variances(fm), [4.0 / 3.0, 0.0],
                                   rtol=1e-15)

    def test_single_scalar_error(self):
        with pytest.raises(ValueError, match="at least 2"):
            batch_variances(np.ones((2, 1, 1, 1)))

    @given(hnp.arrays(np.float64, st.tuples(
        st.integers(1, 6), st.integers(1, 4), st.integers(1, 4),
        st.integers(2, 4)), elements=st.floats(-50, 50)))
    @settings(max_examples=60, deadline=None)
    def test_matches_loop_oracle(self, fm):
        got = batch_variances(fm)
        for i in range(fm.shape[0]):
            expect = two_pass_variance(fm[i].ravel())
            assert abs(got[i] - expect) <= 1e-12 * max(1.0, abs(expect))

    @pytest.mark.parametrize("helpers", [0, 1])
    @pytest.mark.parametrize("n", [1, 19, 128, 257])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocks_match_whole_batch_var(self, dtype, n, helpers,
                                          monkeypatch):
        """Walked in blocks on 0 or 1 helper threads, the variances are
        the bytes of np.var over the whole batch, NaN and Inf rows too."""
        rng = np.random.default_rng(n)
        fm = rng.normal(3.0, 2.0, size=(n, 8, 14, 14)).astype(dtype)
        fm[n // 2, 3, 4, 5] = np.nan
        fm[n - 1, 0, 0, 0] = np.inf
        flat = fm.reshape(n, -1)
        rows_per_block = _kernels._block_len(flat)
        if n >= 128:  # several blocks, the last one ragged
            assert 1 < n / rows_per_block and n % rows_per_block
        with ThreadPoolExecutor(1) as pool, np.errstate(invalid="ignore"):
            monkeypatch.setattr(_kernels, "_HELPERS", helpers)
            monkeypatch.setattr(_kernels, "_POOL", pool if helpers else None)
            got = batch_variances(fm)
            want = np.var(flat, axis=1, ddof=1)
        assert got.dtype == want.dtype == dtype and got.shape == (n,)
        assert got.tobytes() == want.tobytes()
        assert np.isnan(got[n // 2]) and np.isnan(got[n - 1])


class TestMinmaxScale:
    def test_direct_evaluation(self):
        scaled, lo, hi = minmax_scale([2.0, 4.0, 6.0])
        np.testing.assert_array_equal(scaled, [0.0, 0.5, 1.0])
        assert (lo, hi) == (2.0, 6.0)

    def test_degenerate_batch_policy(self):
        scaled, _, _ = minmax_scale([3.0, 3.0, 3.0])
        np.testing.assert_array_equal(scaled, [1.0, 1.0, 1.0])

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=32))
    @settings(max_examples=100, deadline=None)
    def test_endpoints_and_range(self, raw):
        raw = np.asarray(raw)
        scaled, lo, hi = minmax_scale(raw)
        assert (scaled >= 0).all() and (scaled <= 1).all()
        if hi - lo >= losses.DEGENERATE_SPREAD:
            assert scaled[np.argmin(raw)] == 0.0
            assert scaled[np.argmax(raw)] == 1.0


class TestBiasWeight:
    @pytest.mark.parametrize("beta", [0.0, 0.3, 0.7])
    def test_minimum_is_one_minus_beta(self, beta):
        cfg = BiasLossConfig(alpha=0.3, beta=beta, clamp_lo=0.0, clamp_hi=9.0)
        assert bias_weight(0.0, cfg) == 1.0 - beta

    def test_scalar_evaluation(self):
        got = bias_weight(1.0, BiasLossConfig(alpha=0.3, beta=0.3))
        assert got == pytest.approx(math.exp(0.3) - 0.3, abs=1e-12)

    def test_clamped_high(self):
        got = bias_weight(1.0, BiasLossConfig(alpha=1.0, beta=0.3))
        assert math.exp(1.0) - 0.3 == pytest.approx(2.41828, abs=1e-5)
        assert got == 1.5

    @given(st.floats(0, 1), st.floats(0, 3), st.floats(0, 1))
    @settings(max_examples=100, deadline=None)
    def test_always_within_clamp(self, v, alpha, beta):
        got = bias_weight(v, BiasLossConfig(alpha=alpha, beta=beta))
        assert 0.5 <= got <= 1.5

    @given(st.floats(0.01, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_strictly_increasing_preclamp(self, alpha):
        vs = np.linspace(0, 1, 37)
        raw = np.exp(alpha * vs) - 0.3
        assert (np.diff(raw) > 0).all()

    def test_high_low_ratio_nondecreasing_in_alpha(self):
        # the max-variance sample's relative weight grows with alpha
        betas = 0.3
        ratios = []
        for alpha in np.linspace(0.0, 2.0, 21):
            z0 = math.exp(0.0) - betas
            z1 = math.exp(alpha) - betas
            ratios.append(z1 / z0)
        assert all(b >= a - 1e-15 for a, b in zip(ratios, ratios[1:]))


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = np.zeros((4, 10))
        loss = cross_entropy(logits, np.array([0, 3, 5, 9]))
        assert loss.item() == pytest.approx(math.log(10), rel=1e-12)

    def test_stability_no_overflow(self):
        logits = np.array([[1000.0, 0.0]])
        loss = cross_entropy(logits, np.array([0]))
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            logits = rng.normal(size=(8, 6)) * 3
            labels = rng.integers(0, 6, size=8)
            got = cross_entropy(logits, labels).item()
            expect = naive_softmax_ce(logits, labels)
            assert abs(got - expect) <= 1e-8 * max(1.0, abs(expect))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((2, 3)), np.array([0, 3]))

    @pytest.mark.parametrize("loss", [cross_entropy, focal_loss,
                                      lambda x, y: bias_loss(
                                          x, y, np.ones((2, 1, 2, 2)))])
    def test_labels_must_be_1d(self, loss):
        with pytest.raises(ValueError, match="1-d"):
            loss(np.zeros((2, 3)), np.array([[0], [1]]))


class TestBiasLoss:
    def rand_batch(self, rng, n=6, k=5, degenerate=False):
        logits = rng.normal(size=(n, k)).astype(np.float64)
        if degenerate:
            fm = np.ones((n, 2, 3, 3), dtype=np.float64)
        else:
            fm = rng.normal(size=(n, 2, 3, 3)).astype(np.float64)
        labels = rng.integers(0, k, size=n)
        return logits, labels, fm

    def test_alpha_beta_zero_equals_ce(self):
        rng = np.random.default_rng(1)
        logits, labels, fm = self.rand_batch(rng)
        loss, record = bias_loss(logits, labels, fm,
                                 BiasLossConfig(alpha=0.0, beta=0.0))
        ce = cross_entropy(logits, labels)
        assert loss.item() == ce.item()
        assert (record.weight == 1.0).all()

    def test_per_sample_decomposition_oracle(self):
        # weights 0.7 and exp(0.3)-0.3 applied to per-sample CE of 1 and 2:
        # loss must equal mean(z_i * ce_i) computed by hand
        z = np.array([0.7, math.exp(0.3) - 0.3])
        ce = np.array([1.0, 2.0])
        expect = (z[0] * ce[0] + z[1] * ce[1]) / 2.0
        # construct a batch realizing those values: two samples whose
        # scaled variances are 0 and 1, with logits giving CE 1 and 2
        fm = np.zeros((2, 1, 2, 2))
        fm[1] = [[0.0, 2.0], [0.0, 2.0]]  # variance 4/3 vs 0
        logits = np.array([[0.0, math.log(math.e - 1.0)],
                           [0.0, math.log(math.e ** 2 - 1.0)]])
        labels = np.array([0, 0])  # CE_i = log(1 + exp(l2 - l1)) = 1, 2
        loss, record = bias_loss(logits, labels, fm,
                                 BiasLossConfig(alpha=0.3, beta=0.3))
        np.testing.assert_allclose(record.weight, z, rtol=1e-12)
        assert loss.item() == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(1.399859, abs=1e-6)

    @pytest.mark.parametrize("degenerate", [False, True])
    def test_decomposition_random_batches(self, degenerate):
        rng = np.random.default_rng(7)
        for _ in range(25):
            logits, labels, fm = self.rand_batch(rng, degenerate=degenerate)
            cfg = BiasLossConfig()
            loss, record = bias_loss(logits, labels, fm, cfg)
            # independent per-sample recomputation
            flat = fm.reshape(len(labels), -1)
            raw = np.array([two_pass_variance(r) for r in flat])
            lo, hi = raw.min(), raw.max()
            if hi - lo < 1e-12:
                scaled = np.full_like(raw, 1.0)
            else:
                scaled = (raw - lo) / (hi - lo)
            z = np.clip(np.exp(0.3 * scaled) - 0.3, 0.5, 1.5)
            per_ce = np.array([naive_softmax_ce(logits[i:i + 1],
                                                labels[i:i + 1])
                               for i in range(len(labels))])
            expect = float(np.mean(z * per_ce))
            assert abs(loss.item() - expect) <= 1e-12 * max(1.0, expect)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        logits, labels, fm = self.rand_batch(rng, n=8)
        loss, record = bias_loss(logits, labels, fm)
        perm = rng.permutation(8)
        loss_p, record_p = bias_loss(logits[perm], labels[perm], fm[perm])
        np.testing.assert_allclose(record_p.weight, record.weight[perm],
                                   rtol=1e-15)
        assert abs(loss.item() - loss_p.item()) <= 1e-12

    def test_detached_weights_block_feature_gradient(self):
        rng = np.random.default_rng(4)
        fm = ad.parameter(rng.normal(size=(4, 2, 3, 3)))
        logits = ad.constant(rng.normal(size=(4, 5)))  # held fixed
        labels = rng.integers(0, 5, size=4)
        loss, _ = bias_loss(logits, labels, fm, BiasLossConfig())
        grads = ad.backward(loss)
        np.testing.assert_array_equal(grads[fm], 0.0)

    def test_differentiable_weights_reach_feature(self):
        rng = np.random.default_rng(5)
        fm = ad.parameter(rng.normal(size=(4, 2, 3, 3)))
        logits = ad.constant(rng.normal(size=(4, 5)))
        labels = rng.integers(0, 5, size=4)
        cfg = BiasLossConfig(detach_weight=False)
        loss, _ = bias_loss(logits, labels, fm, cfg)
        grads = ad.backward(loss)
        assert np.abs(grads[fm]).max() > 0

    def test_differentiable_weights_match_fd(self):
        # gradient flows through variance and the exponential; the batch
        # min/max stay frozen, which re-forwarding the same graph preserves
        rng = np.random.default_rng(6)
        fm = ad.parameter(rng.normal(size=(3, 2, 2, 2)))
        logits = ad.constant(rng.normal(size=(3, 4)))
        labels = rng.integers(0, 4, size=3)
        cfg = BiasLossConfig(detach_weight=False)
        loss, _ = bias_loss(logits, labels, fm, cfg)
        assert_grads_close(loss, [fm], eps=1e-5, rtol=1e-4)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_detach_changes_only_the_gradient(self, dtype):
        # one weight computation: the loss value and the record are the
        # same bytes whether or not the weights take a gradient
        rng = np.random.default_rng(9)
        fm = (rng.normal(size=(32, 8, 5, 5))
              * rng.uniform(0.5, 2.0, size=(32, 1, 1, 1))).astype(dtype)
        logits = rng.normal(size=(32, 10)).astype(dtype)
        labels = rng.integers(0, 10, size=32)
        runs = [bias_loss(logits, labels, ad.parameter(fm),
                          BiasLossConfig(detach_weight=detach))
                for detach in (True, False)]
        (loss_d, rec_d), (loss_a, rec_a) = runs
        assert loss_a.value.dtype == loss_d.value.dtype == dtype
        assert loss_a.value.tobytes() == loss_d.value.tobytes()
        assert (rec_a.batch_min, rec_a.batch_max) == (rec_d.batch_min,
                                                      rec_d.batch_max)
        for name in ("raw", "scaled", "weight", "clamped_lo", "clamped_hi"):
            a, d = getattr(rec_a, name), getattr(rec_d, name)
            assert a.dtype == d.dtype and np.array_equal(a, d), name

    @pytest.mark.parametrize("detach", [True, False])
    def test_one_variance_pass_per_loss(self, monkeypatch, detach):
        # the attached weight's first forward reuses the record's
        # variances; a re-forward after the input changed in place takes
        # its own, as a finite-difference check needs
        calls = []
        orig = losses.batch_variances
        monkeypatch.setattr(losses, "batch_variances",
                            lambda fm: calls.append(fm) or orig(fm))
        rng = np.random.default_rng(11)
        fm = ad.parameter(rng.normal(size=(6, 2, 3, 3)))
        loss, record = bias_loss(rng.normal(size=(6, 4)),
                                 rng.integers(0, 4, size=6), fm,
                                 BiasLossConfig(detach_weight=detach))
        assert len(calls) == 1
        if detach:
            return
        (w,) = [n for n in ad.topo_order(loss) if n.op == "bias_weight"]
        np.testing.assert_array_equal(w.value, record.weight)
        fm.value[0] *= 3.0
        ad.forward(loss)
        assert len(calls) == 2
        scaled = losses.scale_between(orig(fm.value), record.batch_min,
                                      record.batch_max)
        np.testing.assert_array_equal(w.value, bias_weight(scaled))
        assert not np.array_equal(w.value, record.weight)

    @staticmethod
    def attached_grad_oracle(logits, labels, fm, cfg):
        """dL/d(feature map) of the attached loss in f64, by hand: only the
        weights depend on the map, through the unbiased variances with the
        batch min and max frozen."""
        x = fm.astype(np.float64).reshape(len(fm), -1)
        n = x.shape[1]
        centered = x - x.mean(axis=1, keepdims=True)
        v = (centered ** 2).sum(axis=1) / (n - 1)
        spread = v.max() - v.min()
        e = np.exp(cfg.alpha * (v - v.min()) / spread)
        z = e - cfg.beta
        inside = (z >= cfg.clamp_lo) & (z <= cfg.clamp_hi)
        ce = np.array([naive_softmax_ce(logits[i:i + 1], labels[i:i + 1])
                       for i in range(len(labels))])
        dv = ce / len(ce) * inside * cfg.alpha * e / spread
        return (dv[:, None] * 2.0 * centered / (n - 1)).reshape(fm.shape)

    @pytest.mark.parametrize("cfg,any_clamped", [
        (BiasLossConfig(detach_weight=False), False),
        (BiasLossConfig(alpha=2.0, clamp_lo=0.9, clamp_hi=1.1,
                        detach_weight=False), True)],
        ids=["interior", "clamped"])
    def test_attached_f32_gradient_matches_f64_oracle(self, cfg,
                                                      any_clamped):
        rng = np.random.default_rng(10)
        fm = (rng.normal(1.0, 1.0, size=(128, 64, 7, 7))
              * rng.uniform(0.5, 2.0, size=(128, 1, 1, 1))).astype(np.float32)
        logits = rng.normal(size=(128, 10)).astype(np.float32)
        labels = rng.integers(0, 10, size=128)
        node = ad.parameter(fm)
        loss, record = bias_loss(ad.constant(logits), labels, node, cfg)
        got = ad.backward(loss)[node]
        want = self.attached_grad_oracle(logits, labels, fm, cfg)
        assert got.dtype == np.float32
        clamped = record.clamped_lo | record.clamped_hi
        assert clamped.any() == any_clamped and not clamped.all()
        assert not got[clamped].any()
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()

    def test_attached_degenerate_batch_has_no_feature_gradient(self):
        fm = ad.parameter(np.ones((4, 2, 3, 3), np.float32))
        loss, _ = bias_loss(ad.constant(np.zeros((4, 3), np.float32)),
                            np.arange(4) % 3, fm,
                            BiasLossConfig(detach_weight=False))
        np.testing.assert_array_equal(ad.backward(loss)[fm], 0.0)

    def test_weight_bounds_always_hold(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            _, record = bias_loss(*self.rand_batch(rng),
                                  BiasLossConfig(alpha=2.5, beta=0.9))
            assert (record.weight >= 0.5).all()
            assert (record.weight <= 1.5).all()
            assert (record.scaled >= 0.0).all()
            assert (record.scaled <= 1.0).all()

    def test_missing_feature_map(self):
        with pytest.raises(ValueError):
            bias_loss(np.zeros((2, 3)), np.array([0, 1]), None)


class TestFocalLoss:
    def test_gamma_zero_equals_ce(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        f = focal_loss(logits, labels, gamma=0.0)
        c = cross_entropy(logits, labels)
        assert f.item() == c.item()

    def test_half_probability_gamma_two(self):
        # two equal logits: p_target = 0.5 exactly
        loss = focal_loss(np.array([[0.0, 0.0]]), np.array([0]), gamma=2.0)
        assert loss.item() == pytest.approx(0.25 * math.log(2), abs=1e-9)

    def test_confident_predictions_vanish_faster_than_ce(self):
        labels = np.array([0])
        for margin in (2.0, 4.0, 8.0):
            logits = np.array([[margin, 0.0]])
            f = focal_loss(logits, labels, gamma=2.0).item()
            c = cross_entropy(logits, labels).item()
            p = 1.0 / (1.0 + math.exp(-margin))
            assert f / c == pytest.approx((1 - p) ** 2, rel=1e-6)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(2)
        logits = ad.parameter(rng.normal(size=(5, 4)))
        labels = rng.integers(0, 4, size=5)
        loss = focal_loss(logits, labels, gamma=2.0)
        assert_grads_close(loss, [logits], eps=1e-5, rtol=1e-4)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            focal_loss(np.zeros((1, 2)), np.array([0]), gamma=-1)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf])
    def test_nonfinite_gamma_rejected(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            focal_loss(np.zeros((1, 2)), np.array([0]), gamma=gamma)


class TestConfigValidation:
    def test_defaults(self):
        cfg = BiasLossConfig()
        assert (cfg.alpha, cfg.beta) == (0.3, 0.3)
        assert (cfg.clamp_lo, cfg.clamp_hi) == (0.5, 1.5)
        assert cfg.detach_weight

    def test_bad_clamp_order(self):
        with pytest.raises(ValueError):
            BiasLossConfig(clamp_lo=2.0, clamp_hi=1.0)

    def test_negative_alpha(self):
        with pytest.raises(ValueError):
            BiasLossConfig(alpha=-0.1)

    @pytest.mark.parametrize("field", ["alpha", "beta", "clamp_lo",
                                       "clamp_hi"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected(self, field, value):
        with pytest.raises(ValueError):
            BiasLossConfig(**{field: value})


class TestClampedSamples:
    """The record marks the samples whose weight the clamp bounded."""

    @staticmethod
    def batch():
        # per-sample variances spread evenly, so scaled v = 0, 1/7, ..., 1
        scale = np.sqrt(np.linspace(1.0, 8.0, 8))
        fm = np.random.default_rng(0).normal(size=(8, 2, 4, 4))
        fm = fm / fm.std(axis=(1, 2, 3), ddof=1, keepdims=True)
        return (np.zeros((8, 3), np.float32), np.zeros(8, int),
                (fm * scale[:, None, None, None]).astype(np.float32))

    @pytest.mark.parametrize("detach", [True, False])
    def test_bounds_that_are_not_float32_numbers(self, detach):
        # z = exp(2v) - 0.3 is 0.7, 1.03, 1.47, ... 7.1: clamp 0.9/1.1
        # bounds the sample at v = 0 below and those at v >= 2/7 above. The
        # batch is float32, where 0.9 and 1.1 are inexact; the record
        # clamps in float64 either way.
        cfg = BiasLossConfig(alpha=2.0, clamp_lo=0.9, clamp_hi=1.1,
                             detach_weight=detach)
        _, record = bias_loss(*self.batch(), cfg)
        np.testing.assert_array_equal(record.clamped_lo, [1] + [0] * 7)
        np.testing.assert_array_equal(record.clamped_hi, [0, 0] + [1] * 6)

    def test_unweighted_record_has_no_clamp(self):
        record = losses.variance_record(self.batch()[2])
        np.testing.assert_array_equal(record.weight, np.ones(8))
        assert not record.clamped_lo.any() and not record.clamped_hi.any()
