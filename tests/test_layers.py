import contextlib
import hashlib
from operator import attrgetter

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from biasloss import _kernels as K
from biasloss import autodiff as ad
from biasloss import layers as L
from fdcheck import assert_grads_close, dot


def run(node):
    return ad.forward(node)


def naive_conv(x, w, stride, pad, groups):
    """Scalar-loop cross-correlation oracle."""
    b, cin, h, wd = x.shape
    cout, cin_g, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    cout_g = cout // groups
    out = np.zeros((b, cout, oh, ow), dtype=np.float64)
    for n in range(b):
        for o in range(cout):
            gi = o // cout_g
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for ci in range(cin_g):
                        for ki in range(kh):
                            for kj in range(kw):
                                acc += (xp[n, gi * cin_g + ci,
                                           i * stride + ki, j * stride + kj]
                                        * w[o, ci, ki, kj])
                    out[n, o, i, j] = acc
    return out


def conv_oracle(x, w, g, stride, pad, groups):
    """float64 (out, dx, dw) of the grouped cross-correlation, with g the
    gradient of the output."""
    x, w, g = (a.astype(np.float64) for a in (x, w, g))
    b, cin, h, wd = x.shape
    cout, cin_g, kh, kw = w.shape
    oh, ow = g.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride][:, :, :oh, :ow].reshape(
        b, groups, cin_g, oh, ow, kh, kw)
    wg = w.reshape(groups, cout // groups, cin_g, kh, kw)
    gg = g.reshape(b, groups, cout // groups, oh, ow)
    out = np.einsum("bgchwij,gocij->bgohw", win, wg).reshape(b, cout, oh, ow)
    dw = np.einsum("bgohw,bgchwij->gocij", gg, win).reshape(w.shape)
    dwin = np.einsum("gocij,bgohw->bgchwij", wg, gg).reshape(
        b, cin, oh, ow, kh, kw)
    dxp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i:i + stride * oh:stride,
                j:j + stride * ow:stride] += dwin[..., i, j]
    return out, dxp[:, :, pad:pad + h, pad:pad + wd], dw


def conv_grads(x, w, g, stride, pad, groups):
    """(out, dx, dw) of conv2d, backpropagating g from its output."""
    xn, wn = ad.parameter(x), ad.parameter(w)
    y = L.conv2d(xn, wn, stride=stride, padding=pad, groups=groups)
    root = dot(y, g)
    run(root)
    grads = ad.backward(root)
    return y.value, grads[xn], grads[wn]


class TestConv2d:
    def test_identity_1x1(self):
        x = ad.constant(np.random.default_rng(0).normal(
            size=(2, 3, 5, 5)).astype(np.float32))
        w = ad.constant(np.eye(3, dtype=np.float32).reshape(3, 3, 1, 1))
        y = L.conv2d(x, w)
        run(y)
        np.testing.assert_array_equal(y.value, x.value)

    def test_hand_summed_dot_product(self):
        x = ad.constant(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        w = ad.constant(np.ones((1, 1, 2, 2)))
        y = L.conv2d(x, w)
        run(y)
        # oracle: 1*1 + 2*1 + 3*1 + 4*1
        assert y.value.reshape(-1)[0] == 10.0

    def test_stride2_shape(self):
        x = ad.constant(np.zeros((1, 1, 4, 4), dtype=np.float32))
        w = ad.constant(np.zeros((2, 1, 3, 3), dtype=np.float32))
        y = L.conv2d(x, w, stride=2, padding=1)
        run(y)
        assert y.value.shape == (1, 2, 2, 2)

    @pytest.mark.parametrize("cin,cout,k,stride,pad,groups", [
        (3, 4, 3, 1, 1, 1),
        (4, 6, 3, 2, 1, 1),   # dense, strided
        (4, 4, 3, 1, 1, 4),   # depthwise
        (5, 5, 3, 2, 1, 5),   # depthwise, strided
        (2, 3, 1, 1, 0, 1),   # pointwise
        (4, 2, 1, 2, 0, 1),   # pointwise, strided
        (3, 4, 1, 1, 1, 1),   # pointwise, padded
        (4, 2, 1, 2, 1, 1),   # pointwise, padded and strided
    ])
    def test_matches_naive_loop(self, cin, cout, k, stride, pad, groups):
        rng = np.random.default_rng(cin * 100 + cout)
        x = rng.normal(size=(2, cin, 6, 6))
        w = rng.normal(size=(cout, cin // groups, k, k))
        y = L.conv2d(ad.constant(x), ad.constant(w), stride=stride,
                     padding=pad, groups=groups)
        run(y)
        np.testing.assert_allclose(
            y.value, naive_conv(x, w, stride, pad, groups),
            rtol=1e-10, atol=1e-12)

    # pointwise (stride 1 and 2, padded), dense 3x3 (strided, the stem's)
    GEMM_CASES = [(8, 12, 1, 1, 0, 1), (8, 12, 1, 2, 0, 1),
                  (8, 12, 1, 1, 1, 1), (4, 6, 3, 1, 1, 1), (6, 4, 3, 2, 1, 1),
                  (3, 8, 3, 1, 1, 1),
                  # depthwise: banded GEMMs per (sample, channel)
                  (8, 8, 3, 1, 1, 8), (8, 8, 3, 2, 1, 8), (6, 6, 5, 1, 2, 6)]

    @pytest.mark.parametrize("cin,cout,k,stride,pad,groups", GEMM_CASES)
    def test_gemm_paths_match_f64_oracle(self, cin, cout, k, stride, pad,
                                         groups):
        rng = np.random.default_rng(cin * 10 + k)
        x = rng.normal(size=(5, cin, 14, 14)).astype(np.float32)
        w = rng.normal(size=(cout, cin // groups, k, k)).astype(np.float32)
        o = (14 + 2 * pad - k) // stride + 1
        g = rng.normal(size=(5, cout, o, o)).astype(np.float32)
        out, dx, dw = conv_oracle(x, w, g, stride, pad, groups)
        got = conv_grads(x, w, g, stride, pad, groups)
        for a, ref in zip(got, (out, dx, dw)):
            assert a.dtype == np.float32 and a.shape == ref.shape
            np.testing.assert_allclose(a, ref, rtol=1e-5,
                                       atol=1e-5 * np.abs(ref).max())

    @pytest.mark.parametrize("cin,cout,k,stride,pad,groups", GEMM_CASES)
    def test_weight_grad_of_offset_batch(self, cin, cout, k, stride, pad,
                                         groups):
        # every sample's weight-gradient partial is about the same large
        # value (|mean| >> std over the batch): summing 512 of them in f32
        # loses ~1e-6 relative, the f64 sum only dw's final rounding
        rng = np.random.default_rng(7)
        x = (100 + 1e-2 * rng.normal(size=(512, cin, 7, 7))).astype(np.float32)
        w = rng.normal(size=(cout, cin // groups, k, k)).astype(np.float32)
        o = (7 + 2 * pad - k) // stride + 1
        g = (1 + 1e-2 * rng.normal(size=(512, cout, o, o))).astype(np.float32)
        out, dx, dw = conv_oracle(x, w, g, stride, pad, groups)
        gout, gdx, gdw = conv_grads(x, w, g, stride, pad, groups)
        np.testing.assert_allclose(gout, out, rtol=1e-5,
                                   atol=1e-5 * np.abs(out).max())
        np.testing.assert_allclose(gdx, dx, rtol=1e-5,
                                   atol=1e-5 * np.abs(dx).max())
        np.testing.assert_allclose(gdw, dw, rtol=2e-7)

    def test_group_divisibility_error(self):
        x = ad.constant(np.zeros((1, 3, 4, 4), dtype=np.float32))
        w = ad.constant(np.zeros((4, 1, 3, 3), dtype=np.float32))
        with pytest.raises(ad.ShapeError):
            run(L.conv2d(x, w, groups=2))

    # a conv is dense (groups 1) or depthwise (groups = cin = cout): grouped
    # convs with 1 < groups < cin, and depthwise with cout != cin, are refused
    @pytest.mark.parametrize("cin,cout,groups", [(4, 4, 2), (4, 8, 2),
                                                 (4, 8, 4), (4, 2, 4)],
                             ids=["grouped", "grouped-wider", "dw-wider",
                                  "dw-narrower"])
    def test_only_dense_or_depthwise(self, cin, cout, groups):
        x = ad.constant(np.zeros((1, cin, 4, 4), dtype=np.float32))
        w = ad.constant(np.zeros((cout, cin // groups, 3, 3),
                                 dtype=np.float32))
        with pytest.raises(ad.ShapeError, match="groups must be 1"):
            run(L.conv2d(x, w, groups=groups))
        with pytest.raises(ad.ShapeError, match="groups must be 1"):
            L.Conv2d(cin, cout, 3, groups=groups)

    def test_gradients(self):
        rng = np.random.default_rng(1)
        x = ad.parameter(rng.normal(size=(2, 4, 5, 5)))
        w = ad.parameter(rng.normal(size=(4, 1, 3, 3)) * 0.5)
        weight = rng.normal(size=(2, 4, 3, 3))
        root = dot(L.conv2d(x, w, stride=2, padding=1, groups=4), weight)
        assert_grads_close(root, [x, w], eps=1e-5, rtol=1e-4)


    @pytest.mark.parametrize("k,pad", [(3, 1), (1, 0)], ids=["stem", "1x1"])
    def test_input_without_grad_gets_no_dx(self, k, pad):
        # the stem's images need no gradient: its backward must not compute
        # the column GEMM and scatter-add of a dx that backward drops
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 2, 6, 6))
        w = rng.normal(size=(4, 2, k, k))
        g = rng.normal(size=(3, 4, 6, 6))
        for xn in (ad.constant(x), ad.parameter(x)):
            y = L.conv2d(xn, ad.parameter(w), padding=pad)
            run(y)
            dx, dw = L._conv2d_bwd(y, g)
            _, ref_dx, ref_dw = conv_oracle(x, w, g, 1, pad, 1)
            np.testing.assert_allclose(dw, ref_dw, rtol=1e-10)
            if xn.requires_grad:
                np.testing.assert_allclose(dx, ref_dx, rtol=1e-10)
            else:
                assert dx is None


class TestBatchNorm:
    def test_train_normalizes(self):
        rng = np.random.default_rng(0)
        bn = L.BatchNorm2d(3, dtype=np.float64)
        x = ad.constant(rng.normal(2.0, 3.0, size=(8, 3, 6, 6)))
        y = bn(x)
        run(y)
        m = y.value.mean(axis=(0, 2, 3))
        v = y.value.var(axis=(0, 2, 3))
        np.testing.assert_allclose(m, 0.0, atol=1e-10)
        np.testing.assert_allclose(v, 1.0, atol=1e-4)  # eps shifts variance

    def test_eval_affine_form(self):
        bn = L.BatchNorm2d(2, eps=0.0, dtype=np.float64)
        bn.training = False
        bn.gamma.value = np.array([2.0, 2.0])
        bn.beta.value = np.array([1.0, 1.0])
        x = ad.constant(np.random.default_rng(1).normal(size=(3, 2, 4, 4)))
        y = bn(x)
        run(y)
        np.testing.assert_allclose(y.value, 2.0 * x.value + 1.0, rtol=1e-12)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(2)
        bn = L.BatchNorm2d(4, dtype=np.float64)
        x = rng.normal(1.0, 2.0, size=(5, 4, 3, 3))
        y = bn(ad.constant(x))
        run(y)
        # naive two-pass per channel
        for c in range(4):
            vals = x[:, c].ravel()
            mu = vals.sum() / vals.size
            var = ((vals - mu) ** 2).sum() / vals.size
            expect = (x[:, c] - mu) / np.sqrt(var + bn.eps)
            np.testing.assert_allclose(y.value[:, c], expect, rtol=1e-10)

    def test_channel_mismatch(self):
        bn = L.BatchNorm2d(3)
        x = ad.constant(np.zeros((2, 4, 3, 3), dtype=np.float32))
        with pytest.raises(ad.ShapeError):
            run(bn(x))

    def test_running_stats_update(self):
        bn = L.BatchNorm2d(1, momentum=0.5, dtype=np.float64)
        x = np.full((2, 1, 2, 2), 4.0)
        run(bn(ad.constant(x)))
        assert bn.running_mean[0] == pytest.approx(2.0)  # 0.5*0 + 0.5*4

    def test_gradients_train_and_eval(self):
        rng = np.random.default_rng(3)
        for act in K.ACTIVATIONS:
            for training in (True, False):
                bn = L.BatchNorm2d(3, dtype=np.float64, act=act)
                bn.training = training
                # gamma 2.5 spreads the pre-activations past hswish's kinks
                bn.gamma.value = rng.normal(2.5, 0.2, size=3)
                bn.beta.value = rng.normal(size=3)
                x = ad.parameter(rng.normal(size=(4, 3, 4, 4)))
                root = dot(bn(x), rng.normal(size=(4, 3, 4, 4)))
                assert_grads_close(root, [x, bn.gamma, bn.beta],
                                   eps=1e-5, rtol=1e-4)

    def test_unknown_activation(self):
        with pytest.raises(ValueError, match=r"^head\.bn: .*'swish'"):
            L.BatchNorm2d(3, act="swish", name="head.bn")

    def test_fdcheck_skips_secant_across_fused_relu(self):
        # x[0, 0, 0, 0] sits 0.3 eps above relu's kink in an identity BN,
        # so its +-eps secant crosses zero; the entry must be skipped, not
        # compared with a central difference that averages both slopes
        bn = L.BatchNorm2d(2, eps=0.0, dtype=np.float64, act="relu")
        bn.training = False
        rng = np.random.default_rng(4)
        xv = rng.uniform(0.5, 1.0, size=(2, 2, 3, 3))
        xv *= rng.choice([-1.0, 1.0], size=xv.shape)
        xv[0, 0, 0, 0] = 3e-6
        x = ad.parameter(xv)
        root = dot(bn(x), rng.normal(size=xv.shape))
        _, skipped = assert_grads_close(root, [x], eps=1e-5, rtol=1e-4)
        assert skipped == 1 / xv.size


class TestHardSwish:
    @pytest.mark.parametrize("x,expect", [(0.0, 0.0), (3.0, 3.0), (-3.0, 0.0),
                                          (6.0, 6.0), (1.0, 4.0 / 6.0)])
    def test_anchors(self, x, expect):
        # the activation of an eval-mode BN on an identity affine
        bn = L.BatchNorm2d(1, eps=0.0, dtype=np.float64, act="hswish")
        bn.training = False
        node = bn(ad.constant(np.full((1, 1, 1, 1), x)))
        assert run(node).item() == pytest.approx(expect, abs=1e-12)


class TestAdaptiveAvgPool:
    def test_identity(self):
        x = ad.constant(np.random.default_rng(0).normal(size=(2, 3, 5, 5)))
        y = L.adaptive_avg_pool(x, (5, 5))
        run(y)
        np.testing.assert_array_equal(y.value, x.value)

    def test_global_mean(self):
        x = ad.constant(np.random.default_rng(1).normal(size=(2, 3, 6, 7)))
        y = L.adaptive_avg_pool(x, (1, 1))
        run(y)
        np.testing.assert_allclose(y.value[:, :, 0, 0],
                                   x.value.mean(axis=(2, 3)), rtol=1e-12)

    def test_4x4_to_2x2_oracle(self):
        x = ad.constant(np.arange(1.0, 17.0).reshape(1, 1, 4, 4))
        y = L.adaptive_avg_pool(x, (2, 2))
        run(y)
        np.testing.assert_array_equal(
            y.value[0, 0], [[3.5, 5.5], [11.5, 13.5]])

    def test_uneven_windows_match_bruteforce(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 2, 7, 5))
        y = L.adaptive_avg_pool(ad.constant(x), (3, 2))
        run(y)
        for i in range(3):
            for j in range(2):
                r0, r1 = (i * 7) // 3, -(-((i + 1) * 7) // 3)
                c0, c1 = (j * 5) // 2, -(-((j + 1) * 5) // 2)
                np.testing.assert_allclose(
                    y.value[:, :, i, j], x[:, :, r0:r1, c0:c1].mean(axis=(2, 3)),
                    rtol=1e-12)

    def test_too_large_output(self):
        x = ad.constant(np.zeros((1, 1, 3, 3), dtype=np.float32))
        with pytest.raises(ad.ShapeError):
            run(L.adaptive_avg_pool(x, (4, 4)))

    @pytest.mark.parametrize("hw,out", [((5, 7), (2, 3)), ((8, 8), (2, 2))],
                             ids=["uneven", "even"])
    def test_gradients(self, hw, out):
        rng = np.random.default_rng(3)
        x = ad.parameter(rng.normal(size=(2, 2) + hw))
        root = dot(L.adaptive_avg_pool(x, out), rng.normal(size=(2, 2) + out))
        assert_grads_close(root, [x], eps=1e-5, rtol=1e-4)

    # the model's two pools: the skip block's and the global pool before
    # the classifier
    @pytest.mark.parametrize("shape,out", [((16, 8, 28, 28), (7, 7)),
                                           ((16, 64, 7, 7), (1, 1))])
    def test_f32_matches_f64_oracle(self, shape, out):
        rng = np.random.default_rng(9)
        x = (1 + rng.normal(size=shape)).astype(np.float32)
        g = rng.normal(size=shape[:2] + out).astype(np.float32)
        (b, c, h, w), (ho, wo) = shape, out
        ref = np.empty((b, c, ho, wo))
        dref = np.zeros(shape)
        for i in range(ho):
            for j in range(wo):
                r0, r1 = (i * h) // ho, -(-((i + 1) * h) // ho)
                c0, c1 = (j * w) // wo, -(-((j + 1) * w) // wo)
                ref[:, :, i, j] = x[:, :, r0:r1, c0:c1].astype(
                    np.float64).mean(axis=(2, 3))
                dref[:, :, r0:r1, c0:c1] += (g[:, :, i:i + 1, j:j + 1]
                                             / ((r1 - r0) * (c1 - c0)))
        xn = ad.parameter(x)
        y = L.adaptive_avg_pool(xn, out)
        root = dot(y, g)
        run(root)
        dx = ad.backward(root)[xn]
        for got, want in ((y.value, ref), (dx, dref)):
            assert got.dtype == np.float32
            np.testing.assert_allclose(got, want, rtol=1e-6,
                                       atol=1e-6 * np.abs(want).max())

    @pytest.mark.parametrize("out", [(1, 1), (7, 7)], ids=["global", "7x7"])
    def test_backward_has_the_gemms_bytes(self, out):
        """The global pool's backward multiplies g by P's one row: the
        product the K=1 GEMM per sample computed; other sizes run the
        GEMM."""
        rng = np.random.default_rng(10)
        x = ad.parameter(rng.normal(size=(16, 64, 14, 14)).astype(np.float32))
        g = rng.normal(size=(16, 64) + out).astype(np.float32)
        root = dot(L.adaptive_avg_pool(x, out), g)
        run(root)
        p = L._pool_operator(14, 14, *out, np.float32)
        gemm = np.matmul(g.reshape(16, 64, -1), p).reshape(x.value.shape)
        assert ad.backward(root)[x].tobytes() == gemm.tobytes()

    def test_pool_operator_built_once_per_shape(self):
        x = np.random.default_rng(5).normal(size=(2, 3, 9, 6))
        outs = []
        for _ in range(2):
            y = L.adaptive_avg_pool(ad.constant(x), (4, 3))
            run(y)
            outs.append((y.value, y.ctx))
        (y1, p1), (y2, p2) = outs
        assert p1 is p2 and not p1.flags.writeable
        assert p1.dtype == np.float64 and p1.shape == (12, 54)
        np.testing.assert_array_equal(y1, y2)
        np.testing.assert_array_equal(
            p1, np.kron(L._pool_matrix(9, 4), L._pool_matrix(6, 3)))

    def test_global_mean_preserved_f32(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 4, 8, 8)).astype(np.float32)
        y = L.adaptive_avg_pool(ad.constant(x), (1, 1))
        run(y)
        np.testing.assert_allclose(y.value[:, :, 0, 0],
                                   x.mean(axis=(2, 3)), rtol=1e-6)


class TestSkipBlock:
    def make(self, dtype=np.float32):
        rng = np.random.default_rng(5)
        return L.SkipBlock(4, 8, 6, rng=rng, dtype=dtype)

    def test_shape_contract(self):
        blk = L.SkipBlock(8, 16, 16, rng=np.random.default_rng(0))
        x = ad.constant(np.random.default_rng(1).normal(
            size=(2, 8, 32, 32)).astype(np.float32))
        y = blk(x, (8, 8))
        run(y)
        assert y.value.shape == (2, 16, 8, 8)

    def test_zero_input_zero_output(self):
        blk = self.make()
        x = ad.constant(np.zeros((2, 4, 8, 8), dtype=np.float32))
        y = blk(x, (4, 4))
        run(y)
        # all-zero input stays zero through linear convs and zero BN shift
        np.testing.assert_array_equal(y.value, 0.0)

    def test_composition_oracle(self):
        blk = self.make()
        x = ad.constant(np.random.default_rng(2).normal(
            size=(3, 4, 9, 9)).astype(np.float32))
        y = blk(x, (4, 4))
        run(y)
        # replay the four sub-operations independently, bit-identical
        blk.train()
        blk2 = self.make()
        for p, q in zip(blk.parameters(), blk2.parameters()):
            q.node.value = p.node.value.copy()
        pooled = L.adaptive_avg_pool(x, (4, 4))
        step = blk2.project(blk2.depthwise(blk2.expand(pooled)))
        run(step)
        np.testing.assert_array_equal(y.value, step.value)

    def test_final_stage_linear_scaling(self):
        # with eval-mode identity BN stats, scaling the projection weights
        # by s scales the output by exactly s
        blk = self.make(dtype=np.float64)
        blk.eval()
        x = ad.constant(np.random.default_rng(3).normal(size=(2, 4, 8, 8)))
        y1 = blk(x, (4, 4))
        run(y1)
        blk.project.conv.weight.value = blk.project.conv.weight.value * 3.0
        y2 = blk(x, (4, 4))
        run(y2)
        np.testing.assert_allclose(y2.value, 3.0 * y1.value, rtol=1e-10)


    def test_equal_channels_add_no_residual(self):
        # at width 0.1 the default skip block is SkipBlock(4, 8, 4); its
        # output feeds the destination's add, never a residual of its own
        model = L.SkipblockNetMicro(L.MicroNetSpec(width_multiplier=0.1))
        _, _, blk = model.skips[0]
        assert [c.conv.weight.value.shape[:2] for c in
                (blk.expand, blk.depthwise, blk.project)] == [
                    (8, 4), (8, 1), (4, 8)]
        y = blk(ad.constant(np.zeros((2, 4, 28, 28), dtype=np.float32)),
                (7, 7))
        ops = [n.op for n in ad.topo_order(y) if n.op != "leaf"]
        assert ops == ["adaptive_avg_pool"] + ["conv2d", "batchnorm"] * 3


class TestInvertedResidual:
    def test_residual_passthrough(self):
        blk = L.InvertedResidual(4, 8, 4, stride=1,
                                 rng=np.random.default_rng(0),
                                 dtype=np.float64)
        assert blk.use_residual
        # zero the projection conv: the block's branch contributes only the
        # BN shift, which is zero-initialized, so output == input
        blk.project.conv.weight.value = np.zeros_like(
            blk.project.conv.weight.value)
        blk.eval()
        x = ad.constant(np.random.default_rng(1).normal(size=(2, 4, 6, 6)))
        y = blk(x)
        run(y)
        np.testing.assert_allclose(y.value, x.value, rtol=1e-12)

    def test_stride2_halves_spatial(self):
        blk = L.InvertedResidual(4, 8, 6, stride=2,
                                 rng=np.random.default_rng(0))
        assert not blk.use_residual
        x = ad.constant(np.zeros((1, 4, 8, 8), dtype=np.float32))
        y = blk(x)
        run(y)
        assert y.value.shape == (1, 6, 4, 4)

    def test_composition_oracle(self):
        rng = np.random.default_rng(2)
        blk = L.InvertedResidual(4, 8, 4, stride=1, act="hswish", rng=rng)
        x = ad.constant(np.random.default_rng(3).normal(
            size=(2, 4, 6, 6)).astype(np.float32))
        y = blk(x)
        run(y)
        step = ad.add(x, blk.project(blk.depthwise(blk.expand(x))))
        run(step)
        np.testing.assert_array_equal(y.value, step.value)


class TestDropout:
    def test_eval_mode_is_identity(self):
        layer = L.Dropout(0.5, seed=0)
        layer.training = False
        x = ad.constant(np.random.default_rng(0).normal(
            size=(4, 8)).astype(np.float32))
        y = layer(x)
        run(y)
        np.testing.assert_array_equal(y.value, x.value)

    def test_train_mode_masks_and_rescales(self):
        layer = L.Dropout(0.25, seed=1)
        x = ad.constant(np.ones((64, 64), dtype=np.float32))
        y = layer(x)
        run(y)
        kept = y.value != 0
        # survivors are scaled by 1/(1-rate); drop fraction near the rate
        np.testing.assert_allclose(y.value[kept], 1.0 / 0.75, rtol=1e-6)
        assert abs((~kept).mean() - 0.25) < 0.05

    def test_gradient_respects_mask(self):
        layer = L.Dropout(0.5, seed=2)
        x = ad.parameter(np.ones((16, 16), dtype=np.float64))
        y = dot(layer(x), np.ones((16, 16)))
        run(y)
        g = ad.backward(y)[x]
        # dropped entries contribute 0, kept ones exactly 1/(1-rate)
        assert set(np.unique(g)).issubset({0.0, 2.0})
        assert (g == 2.0).any() and (g == 0.0).any()

    def test_two_train_passes_differ(self):
        layer = L.Dropout(0.5, seed=3)
        x = ad.constant(np.ones((32, 32), dtype=np.float32))
        y = layer(x)
        v1 = run(y).copy()
        v2 = run(y)
        assert not np.array_equal(v1, v2)


class TestChannelScaling:
    @pytest.mark.parametrize("c,m,expect", [
        (8, 0.5, 4), (16, 0.5, 8), (64, 0.5, 32),
        (8, 1.0, 8), (24, 0.5, 12),
        (12, 0.5, 8),   # 6 rounds half-up to the nearest multiple of 4
        (4, 0.25, 4),   # floor of 4
        (10, 1.0, 12),  # 10 -> nearest multiple of 4 is 12 (half-up)
    ])
    def test_round_to_multiple_of_4(self, c, m, expect):
        assert L.scale_channels(c, m) == expect


class TestMicroNet:
    def test_default_shapes_mnist(self):
        model = L.SkipblockNetMicro(L.MicroNetSpec(), seed=0)
        x = ad.leaf(np.zeros((3, 1, 28, 28), dtype=np.float32))
        out = model.build(x)
        ad.forward(out.logits)
        assert out.logits.value.shape == (3, 10)
        assert out.feature_map.value.ndim == 4

    def test_width_multiplier_halves(self):
        spec = L.MicroNetSpec(width_multiplier=0.5)
        model = L.SkipblockNetMicro(spec, seed=0)
        assert model.stem.conv.weight.value.shape[0] == 4
        assert model.head.conv.weight.value.shape[0] == 32
        full = L.SkipblockNetMicro(L.MicroNetSpec(), seed=0)
        assert model.num_parameters() < full.num_parameters()

    def test_parameter_count_oracle(self):
        # independent per-layer count from the construction rules
        model = L.SkipblockNetMicro(L.MicroNetSpec(), seed=0)

        def conv_params(cin, cout, k, groups=1):
            return cout * (cin // groups) * k * k

        def bn_params(c):
            return 2 * c

        stem_c = 8
        total = conv_params(1, stem_c, 3) + bn_params(stem_c)
        cin = stem_c
        for e, c, s, _ in L.MicroNetSpec().stages:
            total += conv_params(cin, e, 1) + bn_params(e)        # expand
            total += conv_params(e, e, 3, groups=e) + bn_params(e)  # depthwise
            total += conv_params(e, c, 1) + bn_params(c)          # project
            cin = c
        # skip block: stem (8) -> expand 16 -> project to block5's input (24)
        total += conv_params(8, 16, 1) + bn_params(16)
        total += conv_params(16, 16, 3, groups=16) + bn_params(16)
        total += conv_params(16, 24, 1) + bn_params(24)
        total += conv_params(24, 64, 1) + bn_params(64)           # head
        total += 64 * 10 + 10                                     # classifier
        assert model.num_parameters() == total

    def test_skip_insertion_validation(self):
        with pytest.raises(ValueError):
            L.MicroNetSpec(skip_insertions=((3, 2),))
        with pytest.raises(ValueError):
            L.MicroNetSpec(skip_insertions=((0, 9),))

    def test_swish_stage_names_its_layer(self):
        spec = L.MicroNetSpec(stages=((16, 8, 1, "relu"),
                                      (24, 12, 2, "swish")),
                              skip_insertions=())
        with pytest.raises(ValueError,
                           match=r"^block2\.expand\.bn: .*'swish'"):
            L.SkipblockNetMicro(spec)

    def test_logits_shape_any_spec(self):
        spec = L.MicroNetSpec(in_channels=3, num_classes=7,
                              width_multiplier=0.75)
        model = L.SkipblockNetMicro(spec, seed=1)
        x = ad.leaf(np.zeros((2, 3, 32, 32), dtype=np.float32))
        out = model.build(x)
        ad.forward(out.logits)
        assert out.logits.value.shape == (2, 7)

    def test_full_model_gradcheck(self):
        # finite differences through stem, blocks, skip block, head and the
        # classifier in f64; entries whose secant crosses an activation
        # kink are skipped
        spec = L.MicroNetSpec(
            in_channels=2, num_classes=3, stem_channels=4,
            stages=((8, 4, 1, "relu"), (8, 8, 2, "hswish"),
                    (12, 8, 1, "hswish")),
            skip_insertions=((0, 3),), head_channels=8, dropout=0.0)
        model = L.SkipblockNetMicro(spec, seed=0, dtype=np.float64)
        labels = np.array([0, 1, 2])
        rng = np.random.default_rng(1000)
        x = ad.leaf(rng.normal(size=(3, 2, 12, 12)))
        out = model.build(x)
        logp = ad.take_rows(ad.log_softmax(out.logits), labels)
        root = ad.neg(ad.mean(logp))
        assert_grads_close(root, [p.node for p in model.parameters()],
                           eps=1e-4, rtol=1e-4, sample=6,
                           rng=np.random.default_rng(0))


def bn_layers(module):
    return [m for m in module.modules() if isinstance(m, L.BatchNorm2d)]


def perturb_bn(module, rng):
    """Running statistics and affine parameters far from their init, so a
    fold that ignored any of them would show."""
    for bn in bn_layers(module):
        c = bn.running_mean.size
        dtype = bn.gamma.value.dtype
        bn.running_mean[:] = rng.normal(0.0, 0.5, c)
        bn.running_var[:] = rng.uniform(0.3, 3.0, c)
        bn.gamma.value = rng.uniform(0.5, 1.5, c).astype(dtype)
        bn.beta.value = rng.normal(0.0, 0.3, c).astype(dtype)


def _unfolded_call(self, x, residual=None, defer=False):
    y = self.bn(self.conv(x))
    return y if residual is None else ad.add(residual, y)


@contextlib.contextmanager
def unfolded():
    """Graphs built inside run every ConvBnAct's BN as its own op, and a
    residual as an add node after it; no BN defers to the conv after it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(L.ConvBnAct, "__call__", _unfolded_call)
        yield


def unfolded_eval_logits(model, images):
    """Eval-mode logits of model's parameters and running statistics in
    float64, with every BN run as its own op after the conv."""
    ref = L.SkipblockNetMicro(model.spec, dtype=np.float64)
    ref.load_state({**{p.name: p.node.value for p in model.parameters()},
                    **dict(model.buffers())})
    ref.eval()
    with unfolded():
        out = ref.build(ad.leaf(images.astype(np.float64)))
    assert not any(n.attrs.get("bn") for n in ad.topo_order(out.logits))
    return ad.forward(out.logits)


class TestEvalFold:
    """In eval mode each ConvBnAct computes act(conv(x, w * s) + t) in its
    conv op and its BN node passes that through."""

    def test_bn_node_passes_conv_output_through(self):
        cba = L.ConvBnAct(3, 4, 1, rng=np.random.default_rng(0))
        perturb_bn(cba, np.random.default_rng(1))
        cba.eval()
        y = cba(ad.constant(np.ones((2, 3, 4, 4), dtype=np.float32)))
        run(y)
        assert y.value is y.inputs[0].value
        # a standalone BN after the same conv still normalizes
        z = cba.bn(cba.conv(y.inputs[0].inputs[0]))
        run(z)
        assert z.value is not z.inputs[0].value
        np.testing.assert_allclose(z.value, y.value, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("block", ["inverted_residual", "skip"])
    def test_eval_gradients(self, block):
        # f64 finite differences through folded convs of every kind (1x1,
        # depthwise, relu, hswish and linear) over x, conv weights, gamma
        # and beta
        rng = np.random.default_rng(11)
        if block == "skip":
            blk = L.SkipBlock(4, 8, 6, rng=rng, dtype=np.float64)
            size = [(3, 3)]  # the skip block's pooling target
        else:
            blk = L.InvertedResidual(4, 8, 4, act="hswish", rng=rng,
                                     dtype=np.float64)
            size = []
        perturb_bn(blk, rng)
        blk.eval()
        x = ad.parameter(rng.normal(size=(2, 4, 6, 6)))
        y = blk(x, *size)
        run(y)
        root = dot(y, rng.normal(size=y.value.shape))
        params = [x] + [p.node for p in blk.parameters()]
        assert len(params) == 10
        assert_grads_close(root, params, eps=1e-5, rtol=1e-4, sample=8,
                           rng=np.random.default_rng(0))

    def test_eval_gradients_match_unfolded_graph(self):
        rng = np.random.default_rng(12)
        blk = L.InvertedResidual(4, 8, 4, act="relu", rng=rng,
                                 dtype=np.float64)
        perturb_bn(blk, rng)
        blk.eval()
        x = ad.parameter(rng.normal(size=(3, 4, 5, 5)))
        g = rng.normal(size=(3, 4, 5, 5))
        grads = []
        for build in (contextlib.nullcontext, unfolded):
            with build():
                root = dot(blk(x), g)
            run(root)
            store = ad.backward(root)
            grads.append([store[n] for n in
                          [x] + [p.node for p in blk.parameters()]])
        for a, b in zip(*grads):
            np.testing.assert_allclose(a, b, rtol=1e-10,
                                       atol=1e-12 * np.abs(b).max())

    def test_fold_follows_train_steps(self):
        # train step, eval, train step, eval on one graph: each eval must
        # use the parameters and running statistics of that moment
        spec = L.MicroNetSpec(dropout=0.0)
        model = L.SkipblockNetMicro(spec, seed=2)
        rng = np.random.default_rng(13)
        images = rng.normal(size=(8, 1, 28, 28)).astype(np.float32)
        labels = rng.integers(0, 10, size=8)
        out = model.build(ad.leaf(images))
        loss = ad.neg(ad.mean(ad.take_rows(ad.log_softmax(out.logits),
                                           labels)))
        seen = []
        for _ in range(2):
            model.train()
            run(loss)
            grads = ad.backward(loss)
            for p in model.parameters():
                p.node.value = p.node.value - np.float32(0.2) * grads[p.node]
            model.eval()
            run(out.logits)
            ref = unfolded_eval_logits(model, images)
            np.testing.assert_allclose(out.logits.value, ref, rtol=0,
                                       atol=1e-6 * np.abs(ref).max())
            seen.append(out.logits.value.copy())
        assert np.abs(seen[0] - seen[1]).max() > 1e-3 * np.abs(seen[1]).max()

    def test_full_model_f32_matches_unfolded_f64(self):
        model = L.SkipblockNetMicro(L.MicroNetSpec(), seed=3)
        rng = np.random.default_rng(14)
        perturb_bn(model, rng)
        model.eval()
        images = rng.normal(size=(16, 1, 28, 28)).astype(np.float32)
        out = model.build(ad.leaf(images))
        got = ad.forward(out.logits)
        ref = unfolded_eval_logits(model, images)
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, ref, rtol=0,
                                   atol=1e-6 * np.abs(ref).max())


class TestTrainFold:
    """In train mode a widening 1x1 conv applies its BN and act itself,
    and a residual block's project BN adds the residual."""

    SPEC = L.MicroNetSpec(
        in_channels=2, num_classes=3, stem_channels=4,
        stages=((8, 4, 1, "relu"), (8, 8, 2, "hswish"), (12, 8, 1, "hswish")),
        skip_insertions=((0, 3),), head_channels=8, dropout=0.0)

    @staticmethod
    def train_step(model, images, labels, build=contextlib.nullcontext):
        """(logits, gradients, running statistics) of one train step."""
        with build():
            out = model.build(ad.leaf(images))
        root = ad.neg(ad.mean(ad.take_rows(ad.log_softmax(out.logits),
                                           labels)))
        run(root)
        store = ad.backward(root)
        return (out.logits.value, [store[p.node] for p in model.parameters()],
                [b for _, b in model.buffers()])

    def test_matches_unfolded_graph_byte_for_byte(self, kernel_helpers,
                                                  monkeypatch):
        # relu and hswish folds, a residual block and the skip block, with
        # every op walking several kernel blocks of a few samples
        monkeypatch.setattr(K, "_BLOCK_BYTES", 8192)
        rng = np.random.default_rng(15)
        images = rng.normal(size=(24, 2, 12, 12)).astype(np.float32)
        labels = rng.integers(0, 3, size=24)
        models = [L.SkipblockNetMicro(self.SPEC, seed=4) for _ in range(2)]
        folded = models[0].build(ad.leaf(images))
        convs = [n for n in ad.topo_order(folded.logits) if n.op == "conv2d"]
        for bn_of in (L.folded_bn, L.prologue_bn):
            assert {bn_of(n).act for n in convs
                    if bn_of(n) is not None} == {"relu", "hswish"}
        got = self.train_step(models[0], images, labels)
        want = self.train_step(models[1], images, labels, unfolded)
        assert got[0].tobytes() == want[0].tobytes()
        for a, b in zip(got[1] + got[2], want[1] + want[2]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("act", ["relu", "hswish"])
    def test_gradients(self, act):
        # f64 finite differences through a train-mode residual block whose
        # expand conv folds its BN
        rng = np.random.default_rng(16)
        blk = L.InvertedResidual(4, 8, 4, act=act, rng=rng, dtype=np.float64)
        perturb_bn(blk, rng)
        x = ad.parameter(rng.normal(size=(3, 4, 5, 5)))
        y = blk(x)
        run(y)
        assert [L.folded_bn(n) for n in ad.topo_order(y)
                if n.op == "conv2d"] == [blk.expand.bn, None, None]
        root = dot(y, rng.normal(size=y.value.shape))
        params = [x] + [p.node for p in blk.parameters()]
        assert_grads_close(root, params, eps=1e-5, rtol=1e-4, sample=8,
                           rng=np.random.default_rng(0))

    def test_graph_keeps_no_unfolded_output(self):
        model = L.SkipblockNetMicro(L.MicroNetSpec(), seed=0)
        rng = np.random.default_rng(17)
        out = model.build(ad.leaf(
            rng.normal(size=(4, 1, 28, 28)).astype(np.float32)))
        run(out.logits)
        nodes = ad.topo_order(out.logits)
        shapes = {n.id: n.inputs[1].value.shape for n in nodes
                  if n.op == "conv2d"}
        widening = [n for n in nodes if n.id in shapes
                    and shapes[n.id][2:] == (1, 1)
                    and shapes[n.id][0] > shapes[n.id][1]]
        # five expands, the skip block's expand and project, and the head
        assert len(widening) == 8
        bns = {n.inputs[0].id: n for n in nodes if n.op == "batchnorm"}
        values = [n.value for n in nodes if n.op != "leaf"]
        for conv in widening:
            bn = bns[conv.id]
            assert conv.value is bn.value and bn.ctx[1] is None
            unfolded_out = L.bn_input(bn)[1]
            assert not any(v.shape == unfolded_out.shape
                           and np.array_equal(v, unfolded_out)
                           for v in values)
        for i, blk in enumerate(model.blocks, start=1):
            probe = out.probes[f"block{i}"]
            assert probe.op == "batchnorm"
            assert probe.attrs["layer"] is blk.project.bn
            assert len(probe.inputs) == (4 if blk.use_residual else 3)
        # the one 4-d add left is the skip block's, whose output the
        # skip0_5 probe reads alone
        adds = [n for n in nodes if n.op == "add" and n.value.ndim == 4]
        assert [n.inputs[1] for n in adds] == [out.probes["skip0_5"]]

    def test_inference_pass_in_train_mode(self):
        # an inference pass keeps a node's ctx until its last consumer has
        # run, so a folded BN node reads its conv's batch statistics and a
        # project conv its depthwise BN's; both give a retaining pass's
        # values
        rng = np.random.default_rng(18)
        images = rng.normal(size=(6, 2, 12, 12)).astype(np.float32)
        models = [L.SkipblockNetMicro(self.SPEC, seed=5) for _ in range(2)]
        outs = [m.build(ad.leaf(images)) for m in models]
        got = ad.ForwardPass(keep=(outs[0].logits,)).run(outs[0].logits)
        assert got.tobytes() == ad.forward(outs[1].logits).tobytes()
        for (_, a), (_, b) in zip(models[0].buffers(), models[1].buffers()):
            assert a.tobytes() == b.tobytes()

    def test_residual_needs_a_bn_without_activation(self):
        bn = L.BatchNorm2d(3, act="relu", name="b.bn")
        x = ad.constant(np.zeros((1, 3, 2, 2), np.float32))
        with pytest.raises(ValueError, match=r"^b\.bn: a residual"):
            bn(x, x)
        with pytest.raises(ad.ShapeError, match="residual"):
            run(L.BatchNorm2d(3)(x, ad.constant(np.zeros((1, 3, 2, 1)))))


class TestDepthwisePrologue:
    """In train mode an InvertedResidual's depthwise BN node takes the
    batch statistics and passes its input through, and the project conv
    normalizes and activates each block of it before its GEMMs; the
    project backward hands the BN node its first sweep."""

    @pytest.mark.parametrize("residual", [True, False],
                             ids=["residual", "no_residual"])
    @pytest.mark.parametrize("act", ["relu", "hswish"])
    def test_gradients(self, act, residual):
        # f64 finite differences through a train-mode block whose project
        # conv applies the depthwise BN
        rng = np.random.default_rng(19)
        blk = L.InvertedResidual(4, 8, 4 if residual else 6, act=act,
                                 rng=rng, dtype=np.float64)
        assert blk.use_residual == residual
        perturb_bn(blk, rng)
        x = ad.parameter(rng.normal(size=(3, 4, 5, 5)))
        y = blk(x)
        run(y)
        convs = [n for n in ad.topo_order(y) if n.op == "conv2d"]
        assert [L.prologue_bn(n) for n in convs] == [None, None,
                                                     blk.depthwise.bn]
        dw_bn = convs[2].inputs[0]
        assert dw_bn.value is convs[1].value
        root = dot(y, rng.normal(size=y.value.shape))
        params = [x] + [p.node for p in blk.parameters()]
        assert_grads_close(root, params, eps=1e-5, rtol=1e-4, sample=8,
                           rng=np.random.default_rng(0))

    def test_graph_keeps_no_depthwise_bn_output(self):
        model = L.SkipblockNetMicro(L.MicroNetSpec(), seed=0)
        rng = np.random.default_rng(20)
        out = model.build(ad.leaf(
            rng.normal(size=(4, 1, 28, 28)).astype(np.float32)))
        run(out.logits)
        nodes = ad.topo_order(out.logits)
        kept = [n.value for n in nodes if n.op != "leaf"]
        kept += [a for n in nodes if n.ctx is not None
                 for a in (n.ctx if isinstance(n.ctx, tuple) else [n.ctx])
                 if isinstance(a, np.ndarray)]
        deferred = [n for n in nodes if n.op == "conv2d"
                    and L.prologue_bn(n) is not None]
        # the five blocks' project convs; the skip block's widens and
        # folds its own BN instead
        assert [L.prologue_bn(n) for n in deferred] == [
            blk.depthwise.bn for blk in model.blocks]
        for conv in deferred:
            bn = conv.inputs[0]
            assert bn.value is bn.inputs[0].value
            _, x, m, invstd = L.bn_input(bn)
            y = K.bn_normalize(x, m, invstd, bn.inputs[1].value,
                               bn.inputs[2].value, bn.attrs["act"])
            assert not any(v.shape == y.shape and np.array_equal(v, y)
                           for v in kept)
        # the stem keeps its input image and no im2col columns
        stem = out.probes["stem"].inputs[0]
        assert isinstance(stem.ctx[0], K.Blocks)

    def test_eval_mode_folds_the_depthwise_bn(self):
        blk = L.InvertedResidual(4, 8, 4, rng=np.random.default_rng(21))
        y = blk(ad.constant(np.ones((2, 4, 5, 5), np.float32)))
        project = y.inputs[0]
        assert L.prologue_bn(project) is blk.depthwise.bn
        blk.eval()
        run(y)
        assert L.prologue_bn(project) is None
        assert L.folded_bn(project.inputs[0].inputs[0]) is blk.depthwise.bn
        assert isinstance(project.ctx[0], np.ndarray)


def cba_names(path):
    return [f"{path}.conv.weight", f"{path}.bn.gamma", f"{path}.bn.beta"]


class TestModuleTree:
    """The default network's tree, pinned independently of the walk: the
    checkpoint manifest is keyed by these names in this order."""

    UNITS = (["stem"]
             + [f"block{i}.{s}" for i in range(1, 6)
                for s in ("expand", "depthwise", "project")]
             + [f"skip0_5.{s}" for s in ("expand", "depthwise", "project")]
             + ["head"])

    @staticmethod
    def bn_layers(model):
        _, _, skip = model.skips[0]
        cbas = ([model.stem]
                + [getattr(blk, s) for blk in model.blocks + [skip]
                   for s in ("expand", "depthwise", "project")]
                + [model.head])
        return [c.bn for c in cbas]

    def test_parameter_and_buffer_names_in_order(self):
        model = L.SkipblockNetMicro(L.MicroNetSpec(), seed=0)
        params = [n for u in self.UNITS for n in cba_names(u)]
        params += ["classifier.weight", "classifier.bias"]
        buffers = [f"{u}.bn.{b}" for u in self.UNITS
                   for b in ("running_mean", "running_var")]
        assert len(params) == 62 and len(buffers) == 40
        assert [p.name for p in model.parameters()] == params
        assert [name for name, _ in model.buffers()] == buffers
        bns = self.bn_layers(model)
        assert [id(a) for _, a in model.buffers()] == [
            id(a) for bn in bns for a in (bn.running_mean, bn.running_var)]

    def test_initial_values_pinned(self):
        # the bytes of every parameter, then every buffer: a restructure
        # that changes the order of the init draws changes this digest
        model = L.SkipblockNetMicro(seed=0)
        h = hashlib.sha256()
        for p in model.parameters():
            h.update(p.node.value.tobytes())
        for _, buf in model.buffers():
            h.update(buf.tobytes())
        assert h.hexdigest() == ("8dd9be23ad218cda89ab38401bad2bc6"
                                 "d99f4f90d80e54262c316baeff82ac79")

    def test_only_bn_affine_parameters_skip_weight_decay(self):
        model = L.SkipblockNetMicro(L.MicroNetSpec(), seed=0)
        exempt = [id(p.node) for p in model.parameters()
                  if not p.weight_decay]
        bns = self.bn_layers(model)
        assert len(exempt) == 40
        assert exempt == [id(n) for bn in bns for n in (bn.gamma, bn.beta)]

    def test_eval_and_train_reach_every_bn_and_the_dropout(self):
        model = L.SkipblockNetMicro(L.MicroNetSpec(), seed=0)
        layers = self.bn_layers(model) + [model.head_dropout]
        assert len(layers) == 21
        assert model.eval() is model
        assert not model.training
        assert not any(layer.training for layer in layers)
        model.train()
        assert model.training
        assert all(layer.training for layer in layers)

    def test_block_eval_flips_only_its_own_bn_layers(self):
        model = L.SkipblockNetMicro(L.MicroNetSpec(), seed=0)
        blk = model.blocks[2]
        blk.eval()
        flipped = [bn for bn in self.bn_layers(model) if not bn.training]
        assert flipped == [blk.expand.bn, blk.depthwise.bn, blk.project.bn]
        assert model.training and model.head_dropout.training

    def test_evaluating_restores_train_mode_after_an_error(self):
        model = L.SkipblockNetMicro(L.MicroNetSpec(), seed=0)
        with pytest.raises(RuntimeError, match="inside"):
            with model.evaluating() as m:
                assert m is model
                assert not any(x.training for x in model.modules())
                raise RuntimeError("inside")
        assert all(m.training for m in model.modules())

    def test_evaluating_keeps_each_modules_earlier_mode(self):
        model = L.SkipblockNetMicro(L.MicroNetSpec(), seed=0)
        model.eval()
        with model.evaluating():
            pass
        assert not any(m.training for m in model.modules())
        # a model with one block in eval mode gets that mix back
        model.train()
        model.blocks[2].eval()
        before = [m.training for m in model.modules()]
        with model.evaluating():
            assert not any(m.training for m in model.modules())
        assert [m.training for m in model.modules()] == before


class TestGraphLifetime:
    @staticmethod
    def small_model():
        return L.SkipblockNetMicro(L.MicroNetSpec(width_multiplier=0.25),
                                   seed=0).eval()

    def test_one_image_graph_serves_every_batch_size(self):
        # only the spatial size enters a graph, not the batch size: the
        # graph train_run builds from one image serves full and ragged
        # batches, as a fresh build for each would
        model = self.small_model()
        rng = np.random.default_rng(0)
        images = rng.normal(size=(128, 1, 8, 8)).astype(np.float32)
        out = model.build(ad.leaf(images[:1]))
        for n in (128, 96):
            out.input.set(images[:n])
            got = ad.forward(out.logits)
            assert got.shape == (n, 10)
            assert np.array_equal(
                got, ad.forward(model.build(ad.leaf(images[:n])).logits))

    def test_infer_matches_a_retaining_pass(self, kernel_helpers):
        # batches of 40, 21 and 2, each on graphs built for it, join what a
        # retaining pass over the whole batch gives
        model = self.small_model()
        images = np.random.default_rng(1).normal(
            size=(40, 1, 8, 8)).astype(np.float32)
        for n in (40, 21, 2):
            got = L.infer(model, images[:n],
                          attrgetter("logits", "feature_map"))
            out = model.build(ad.leaf(images[:n]))
            ad.forward(out.logits)
            assert [len(g) for g in got] == [n, n]
            assert np.array_equal(got[0], out.logits.value)
            assert np.array_equal(got[1], out.feature_map.value)

    def test_graphs_of_two_sizes_keep_their_own_pooling(self):
        # building a graph writes no module state: a 20x20 graph built after
        # a 28x28 one leaves the first graph's skip pool and logits alone
        model = self.small_model()
        rng = np.random.default_rng(2)
        big = rng.normal(size=(4, 1, 28, 28)).astype(np.float32)
        out28 = model.build(ad.leaf(big))
        before = ad.forward(out28.logits).copy()
        out20 = model.build(ad.leaf(
            rng.normal(size=(4, 1, 20, 20)).astype(np.float32)))
        ad.forward(out20.logits)

        def pool_targets(out):
            return [n.attrs["out"] for n in ad.topo_order(out.probes["skip0_5"])
                    if n.op == "adaptive_avg_pool"]

        assert pool_targets(out28) == [(7, 7)]
        assert pool_targets(out20) == [(5, 5)]
        assert np.array_equal(ad.forward(out28.logits), before)
