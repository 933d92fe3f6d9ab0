"""The layer kernels against direct float64 formulas.

Shapes are chosen so that the batch spans several kernel blocks with a
remainder, and each kernel also runs at batch 1.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from biasloss import _kernels as K

DTYPES = [np.float32, np.float64]


def tol(dtype):
    return (dict(rtol=1e-4, atol=1e-5) if dtype == np.float32
            else dict(rtol=1e-12, atol=1e-12))


def ragged(x):
    """x's batch is split into several kernel blocks, the last one short."""
    n = K._block_len(x)
    return len(x) > n and len(x) % n != 0


# ---------------------------------------------------------------------------
# float64 oracles

def dw_windows(xp, kh, kw, stride, oh, ow):
    """[b, c, oh, ow, kh, kw] input windows of each output position."""
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))
    return win[:, :, ::stride, ::stride][:, :, :oh, :ow]


def dw_oracle(xp, w, g, stride):
    xp, w, g = (a.astype(np.float64) for a in (xp, w, g))
    kh, kw = w.shape[1:]
    oh, ow = g.shape[2:]
    win = dw_windows(xp, kh, kw, stride, oh, ow)
    out = np.einsum("nchwij,cij->nchw", win, w)
    dw = np.einsum("nchw,nchwij->cij", g, win)
    dxp = np.zeros_like(xp)
    for i in range(oh):
        for j in range(ow):
            dxp[:, :, i * stride:i * stride + kh, j * stride:j * stride + kw] += (
                g[:, :, i, j, None, None] * w)
    return out, dxp, dw


def bn_oracle(x, g, gamma, beta, eps=1e-5):
    x, g, gamma, beta = (a.astype(np.float64) for a in (x, g, gamma, beta))
    ax = (0, 2, 3)
    n = x.shape[0] * x.shape[2] * x.shape[3]
    mean = x.mean(axis=ax)
    var = ((x - mean[:, None, None]) ** 2).mean(axis=ax)
    invstd = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean[:, None, None]) * invstd[:, None, None]
    y = xhat * gamma[:, None, None] + beta[:, None, None]
    dbeta = g.sum(axis=ax)
    dgamma = (g * xhat).sum(axis=ax)
    dx = (gamma * invstd)[:, None, None] * (
        g - dbeta[:, None, None] / n - xhat * dgamma[:, None, None] / n)
    return mean, var, invstd, y, dx, dgamma, dbeta


def hswish_oracle(x, g):
    x, g = x.astype(np.float64), g.astype(np.float64)
    y = x * np.clip(x + 3.0, 0.0, 6.0) / 6.0
    d = np.where(x <= -3.0, 0.0, np.where(x >= 3.0, 1.0, (2.0 * x + 3.0) / 6.0))
    return y, g * d


# ---------------------------------------------------------------------------
# depthwise convolution

@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("batch", [1, 19])
def test_dw_conv_matches_oracle(dtype, stride, batch):
    rng = np.random.default_rng(0)
    xp = rng.normal(size=(batch, 16, 30, 30)).astype(dtype)
    w = rng.normal(size=(16, 3, 3)).astype(dtype)
    oh = ow = (30 - 3) // stride + 1
    g = rng.normal(size=(batch, 16, oh, ow)).astype(dtype)
    assert batch == 1 or ragged(xp)
    out, dxp, dw = dw_oracle(xp, w, g, stride)

    got = K.dw_conv_fwd(xp, w, stride, oh, ow)
    assert got.dtype == dtype and got.shape == out.shape
    np.testing.assert_allclose(got, out, **tol(dtype))
    gdxp, gdw = K.dw_conv_bwd(xp, w, g, stride)
    assert gdxp.dtype == dtype and gdw.dtype == dtype
    np.testing.assert_allclose(gdxp, dxp, **tol(dtype))
    # dw sums batch*oh*ow products; scale the absolute tolerance with it
    np.testing.assert_allclose(gdw, dw, rtol=tol(dtype)["rtol"],
                               atol=tol(dtype)["atol"] * g[0, 0].size * batch)


# ---------------------------------------------------------------------------
# batch normalization

def run_bn(x, g, gamma, beta):
    mean, var = K.bn_stats(x)
    invstd = 1.0 / np.sqrt(var + 1e-5)
    y = K.bn_normalize(x, mean, invstd, gamma, beta)
    dx, dgamma, dbeta = K.bn_bwd_train(x, g, gamma, mean, invstd)
    return mean, var, invstd, y, dx, dgamma, dbeta


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("batch", [1, 19])
def test_bn_matches_oracle(dtype, batch):
    rng = np.random.default_rng(1)
    x = rng.normal(1.0, 2.0, size=(batch, 12, 28, 28)).astype(dtype)
    g = rng.normal(size=x.shape).astype(dtype)
    gamma = rng.normal(1.0, 0.1, size=12).astype(dtype)
    beta = rng.normal(size=12).astype(dtype)
    assert batch == 1 or ragged(x)
    mean, var, _, y, dx, dgamma, dbeta = bn_oracle(x, g, gamma, beta)

    gm, gv, invstd, gy, gdx, gdg, gdb = run_bn(x, g, gamma, beta)
    assert gm.dtype == gv.dtype == np.float64
    np.testing.assert_allclose(gm, mean, rtol=1e-12)
    np.testing.assert_allclose(gv, var, rtol=1e-6)
    assert gy.dtype == gdx.dtype == dtype
    assert gdg.dtype == gdb.dtype == dtype
    np.testing.assert_allclose(gy, y, rtol=1e-4, atol=1e-5)
    np.testing.assert_allclose(gdx, dx, rtol=1e-4, atol=1e-5)
    np.testing.assert_allclose(gdg, dgamma, rtol=1e-4, atol=1e-3)
    np.testing.assert_allclose(gdb, dbeta, rtol=1e-4, atol=1e-3)


@pytest.mark.parametrize("dtype", DTYPES)
def test_bn_mean_far_above_std(dtype):
    # |mean| / std = 1e5: E[x^2] - E[x]^2, an expanded (x - m) term and a
    # normalize folded into x * scale + shift lose every significant digit
    rng = np.random.default_rng(2)
    z = rng.normal(size=(19, 16, 28, 28))
    x = (1e3 + 1e-2 * z).astype(dtype)
    # g correlated with x makes dgamma, and so the (x - m) term of dx, large
    g = (rng.normal(size=x.shape) + 10 * z).astype(dtype)
    gamma = rng.normal(1.0, 0.1, size=16).astype(dtype)
    beta = rng.normal(size=16).astype(dtype)
    assert ragged(x)
    mean, var, invstd, y, dx, dgamma, _ = bn_oracle(x, g, gamma, beta, eps=0.0)

    gm, gv = K.bn_stats(x)
    np.testing.assert_allclose(gm, mean, rtol=1e-12)
    np.testing.assert_allclose(gv, var, rtol=1e-6)
    np.testing.assert_allclose(K.bn_normalize(x, gm, invstd, gamma, beta), y,
                               rtol=1e-5, atol=1e-5)
    gdx, gdg, _ = K.bn_bwd_train(x, g, gamma, gm, invstd)
    np.testing.assert_allclose(gdx, dx, rtol=1e-4, atol=1e-5 * np.abs(dx).max())
    np.testing.assert_allclose(gdg, dgamma, rtol=1e-4, atol=1e-3)


# ---------------------------------------------------------------------------
# hard-swish

@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", [(1,), (64,), (3, 48, 31, 31)])
def test_hswish_matches_oracle(dtype, shape):
    rng = np.random.default_rng(3)
    x = (rng.normal(size=shape) * 3).astype(dtype)
    x.flat[:4] = [-3.0, 3.0, 0.0, -1.5][:x.size]
    g = rng.normal(size=shape).astype(dtype)
    y, dx = hswish_oracle(x, g)
    gy, gdx = K.hswish_fwd(x), K.hswish_bwd(x, g)
    assert gy.dtype == gdx.dtype == dtype
    assert gy.shape == gdx.shape == shape
    np.testing.assert_allclose(gy, y, rtol=1e-6, atol=1e-7)
    np.testing.assert_allclose(gdx, dx, rtol=1e-6, atol=1e-7)


# ---------------------------------------------------------------------------
# non-finite values reach the output (the trainer's guard relies on it)

@pytest.mark.parametrize("dtype", DTYPES)
def test_nan_propagates(dtype):
    rng = np.random.default_rng(4)
    x = rng.normal(size=(19, 4, 64, 64)).astype(dtype)
    g = rng.normal(size=x.shape).astype(dtype)
    gamma, beta = np.ones(4, dtype), np.zeros(4, dtype)
    assert ragged(x) and 17 // K._block_len(x) > 0  # NaN in a later block
    xn, gn = x.copy(), g.copy()
    xn[17, 2, 5, 5] = np.nan
    gn[17, 2, 5, 5] = np.nan

    w = np.ones((4, 3, 3), dtype)
    assert np.isnan(K.dw_conv_fwd(xn, w, 1, 62, 62)[17, 2]).any()
    dxp, dw = K.dw_conv_bwd(x, w, gn[:, :, :62, :62], 1)
    assert np.isnan(dxp[17, 2]).any() and np.isnan(dw[2]).all()

    m, v = K.bn_stats(xn)
    assert np.isnan(m[2]) and np.isnan(v[2])
    assert np.isfinite(m[[0, 1, 3]]).all() and np.isfinite(v[[0, 1, 3]]).all()
    mean, var = K.bn_stats(x)
    invstd = 1.0 / np.sqrt(var + 1e-5)
    y = K.bn_normalize(xn, mean, invstd, gamma, beta)
    assert np.isnan(y[17, 2, 5, 5]) and np.isfinite(y).sum() == y.size - 1
    dx, dgamma, dbeta = K.bn_bwd_train(x, gn, gamma, mean, invstd)
    assert np.isnan(dx[:, 2]).all() and np.isnan(dgamma[2]) and np.isnan(dbeta[2])
    dx, dgamma, _ = K.bn_bwd_train(xn, g, gamma, mean, invstd)
    assert np.isnan(dx[17, 2, 5, 5]) and np.isnan(dgamma[2])

    assert np.isnan(K.hswish_fwd(xn)[17, 2, 5, 5])
    assert np.isnan(K.hswish_bwd(xn, g)[17, 2, 5, 5])
    assert np.isnan(K.hswish_bwd(x, gn)[17, 2, 5, 5])


def test_inf_propagates():
    x = np.zeros((2, 3, 6, 6), dtype=np.float32)
    x[1, 0, 2, 2] = np.inf
    assert np.isinf(K.dw_conv_fwd(x, np.ones((3, 3, 3), np.float32),
                                  1, 4, 4)[1, 0]).any()
    with np.errstate(invalid="ignore"):  # inf - inf
        m, v = K.bn_stats(x)
    assert not np.isfinite(m[0]) and not np.isfinite(v[0])
    assert np.isinf(K.hswish_fwd(x)[1, 0, 2, 2])


# ---------------------------------------------------------------------------
# blocks on the worker pool

def test_concurrent_callers_match_one_worker(monkeypatch):
    """Kernel results from several threads at once are byte-identical to
    running the blocks one at a time in order."""
    rng = np.random.default_rng(6)
    xp = rng.normal(size=(19, 16, 30, 30)).astype(np.float32)
    x = np.ascontiguousarray(xp[:, :, 1:29, 1:29])
    g = rng.normal(size=x.shape).astype(np.float32)
    w = rng.normal(size=(16, 3, 3)).astype(np.float32)
    gamma = rng.normal(1.0, 0.1, size=16).astype(np.float32)
    beta = rng.normal(size=16).astype(np.float32)
    assert ragged(xp) and ragged(x) and ragged(x.reshape(-1))

    def run_all():
        mean, var = K.bn_stats(x)
        invstd = 1.0 / np.sqrt(var + 1e-5)
        outs = [K.dw_conv_fwd(xp, w, 1, 28, 28), *K.dw_conv_bwd(xp, w, g, 1),
                mean, var, K.bn_normalize(x, mean, invstd, gamma, beta),
                *K.bn_bwd_train(x, g, gamma, mean, invstd),
                K.hswish_fwd(x), K.hswish_bwd(x, g)]
        return [a.tobytes() for a in outs]

    with ThreadPoolExecutor(1) as serial, monkeypatch.context() as m:
        m.setattr(K, "_POOL", serial)
        expected = run_all()

    results = []

    def caller():
        results.extend(run_all() == expected for _ in range(3))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [True] * 12


def test_caller_errstate_applies_in_every_block():
    x = np.zeros((19, 4, 64, 64), np.float32)
    assert ragged(x.reshape(-1))
    x[17, 0, 0, 0] = -np.inf  # -inf * clip(-inf + 3, 0, 6) = -inf * 0
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        K.hswish_fwd(x)
