"""The layer kernels against direct float64 formulas.

Shapes are chosen so that the batch spans several kernel blocks with a
remainder, and each kernel also runs at batch 1.
"""

import sys
import threading
import time
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

def dw_oracle(x, w, g, stride, pad):
    """float64 (out, dx, dw) of the depthwise conv on the zero-padded x."""
    x, w, g = (a.astype(np.float64) for a in (x, w, g))
    h, wd = x.shape[2:]
    kh, kw = w.shape[1:]
    oh, ow = g.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride][:, :, :oh, :ow]
    out = np.einsum("nchwij,cij->nchw", win, w)
    dw = np.einsum("nchw,nchwij->cij", g, win)
    dxp = np.zeros_like(xp)
    for i in range(oh):
        for j in range(ow):
            dxp[:, :, i * stride:i * stride + kh, j * stride:j * stride + kw] += (
                g[:, :, i, j, None, None] * w)
    return out, dxp[:, :, pad:pad + h, pad:pad + wd], dw


ACTS = [None, "relu", "hswish"]


def act_oracle(z, act):
    """float64 (act(z), act'(z))."""
    if act is None:
        return z, np.ones_like(z)
    if act == "relu":
        return np.maximum(z, 0.0), (z > 0).astype(np.float64)
    y = z * np.clip(z + 3.0, 0.0, 6.0) / 6.0
    d = np.where(z <= -3.0, 0.0, np.where(z >= 3.0, 1.0, (2.0 * z + 3.0) / 6.0))
    return y, d


def hswish_oracle(x, g):
    y, d = act_oracle(x.astype(np.float64), "hswish")
    return y, g.astype(np.float64) * d


def bn_oracle(x, g, gamma, beta, eps=1e-5, act=None):
    """float64 train-mode BN followed by act, with g the gradient of act's
    output."""
    x, g, gamma, beta = (a.astype(np.float64) for a in (x, g, gamma, beta))
    ax = (0, 2, 3)
    n = x.shape[0] * x.shape[2] * x.shape[3]
    mean = x.mean(axis=ax)
    var = ((x - mean[:, None, None]) ** 2).mean(axis=ax)
    invstd = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean[:, None, None]) * invstd[:, None, None]
    y, d = act_oracle(xhat * gamma[:, None, None] + beta[:, None, None], act)
    g = g * d
    dbeta = g.sum(axis=ax)
    dgamma = (g * xhat).sum(axis=ax)
    dx = (gamma * invstd)[:, None, None] * (
        g - dbeta[:, None, None] / n - xhat * dgamma[:, None, None] / n)
    return mean, var, invstd, y, dx, dgamma, dbeta


def identity_bn(c):
    """(mean, invstd, gamma, beta) of an eval-mode BN that passes x through."""
    return np.zeros(c), np.ones(c), np.ones(c), np.zeros(c)


# ---------------------------------------------------------------------------
# depthwise convolution

# (h, w, kernel, pad): the model's 3x3 pad 1, pad 0 and 2, 5x5, odd h != w
# (at stride 3 no window reaches row 14 of 15x11, at stride 2 none reaches
# column 13 of 11x14), and pad 2 on a 3x3 kernel, where no kernel row
# reaches every output row
DW_GEOMETRIES = [(28, 28, 3, 1), (30, 30, 3, 0), (15, 11, 3, 1),
                 (11, 14, 3, 0), (9, 7, 5, 2), (13, 10, 5, 2), (7, 10, 3, 2)]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("batch", [1, 19])
def test_dw_conv_matches_oracle(dtype, stride, batch):
    rng = np.random.default_rng(0)
    for h, wd, k, pad in DW_GEOMETRIES:
        # enough channels that a batch of 19 spans about three blocks
        c = -(-K._BLOCK_BYTES // (8 * np.dtype(dtype).itemsize * h * wd))
        x = rng.normal(size=(batch, c, h, wd)).astype(dtype)
        w = rng.normal(size=(c, k, k)).astype(dtype)
        oh = (h + 2 * pad - k) // stride + 1
        ow = (wd + 2 * pad - k) // stride + 1
        g = rng.normal(size=(batch, c, oh, ow)).astype(dtype)
        assert batch == 1 or ragged(x)
        out, dx, dw = dw_oracle(x, w, g, stride, pad)

        got = K.dw_conv_fwd(x, w, stride, pad)
        assert got.dtype == dtype and got.shape == out.shape
        np.testing.assert_allclose(got, out, **tol(dtype))
        gdx, gdw = K.dw_conv_bwd(x, w, g, stride, pad)
        assert gdx.dtype == dtype and gdw.dtype == dtype
        assert gdx.shape == x.shape and gdw.shape == w.shape
        np.testing.assert_allclose(gdx, dx, **tol(dtype))
        # dw sums batch*oh*ow products; scale the absolute tolerance with it
        np.testing.assert_allclose(gdw, dw, rtol=tol(dtype)["rtol"],
                                   atol=tol(dtype)["atol"] * oh * ow * batch)


def test_dw_conv_inf_warns_nothing():
    """0 * Inf in the band's structural zeros is not reported; Inf still
    reaches the outputs."""
    rng = np.random.default_rng(5)
    x = rng.uniform(0.5, 1.0, size=(3, 4, 9, 9)).astype(np.float32)
    g = rng.uniform(0.5, 1.0, size=x.shape).astype(np.float32)
    w = np.ones((4, 3, 3), np.float32)
    x[1, 2, 4, 4] = np.inf
    g[2, 1, 3, 3] = np.inf
    with np.errstate(invalid="raise"):
        out = K.dw_conv_fwd(x, w, 1, 1)
        dx, dw = K.dw_conv_bwd(x, w, g, 1, 1)
    assert not np.isfinite(out[1, 2, 3:6]).any()
    assert np.isfinite(np.delete(out, 1, axis=0)).all()
    assert not np.isfinite(dx[2, 1, 2:5]).any()
    assert np.isinf(dw[1]).all() and np.isinf(dw[2]).all()


# ---------------------------------------------------------------------------
# batch normalization

def run_bn(x, g, gamma, beta, act=None):
    mean, var = K.bn_stats(x)
    invstd = 1.0 / np.sqrt(var + 1e-5)
    y = K.bn_normalize(x, mean, invstd, gamma, beta, act)
    dx, dgamma, dbeta = K.bn_bwd_train(x, g, mean, invstd, gamma, beta, act)
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
    for act in ACTS:
        mean, var, _, y, dx, dgamma, dbeta = bn_oracle(x, g, gamma, beta,
                                                       act=act)

        gm, gv, invstd, gy, gdx, gdg, gdb = run_bn(x, g, gamma, beta, act)
        assert gm.dtype == gv.dtype == np.float64
        np.testing.assert_allclose(gm, mean, rtol=1e-12)
        np.testing.assert_allclose(gv, var, rtol=1e-6)
        assert gy.dtype == gdx.dtype == dtype
        assert gdg.dtype == gdb.dtype == dtype
        np.testing.assert_allclose(gy, y, **tol(dtype))
        np.testing.assert_allclose(gdx, dx, **tol(dtype))
        # dgamma and dbeta sum 15k terms of order 1
        sums = (dict(rtol=1e-4, atol=1e-3) if dtype == np.float32
                else tol(dtype))
        np.testing.assert_allclose(gdg, dgamma, **sums)
        np.testing.assert_allclose(gdb, dbeta, **sums)


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
    gdx, gdg, _ = K.bn_bwd_train(x, g, gm, invstd, gamma, beta)
    np.testing.assert_allclose(gdx, dx, rtol=1e-4, atol=1e-5 * np.abs(dx).max())
    np.testing.assert_allclose(gdg, dgamma, rtol=1e-4, atol=1e-3)


@pytest.mark.parametrize("fn", [K.bn_normalize, K.bn_bwd_train,
                                K.bn_bwd_eval])
def test_bn_unknown_activation(fn):
    x = np.ones((2, 3, 4, 4), dtype=np.float32)
    args = (x, x) if fn is not K.bn_normalize else (x,)
    with pytest.raises(ValueError, match="swish"):
        fn(*args, *identity_bn(3), "swish")


# ---------------------------------------------------------------------------
# hard-swish, as the activation of an identity batch normalization

@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", [(1,), (64,), (3, 48, 31, 31)])
def test_hswish_matches_oracle(dtype, shape):
    rng = np.random.default_rng(3)
    x = (rng.normal(size=shape) * 3).astype(dtype)
    x.flat[:4] = [-3.0, 3.0, 0.0, -1.5][:x.size]
    g = rng.normal(size=shape).astype(dtype)
    y, dx = hswish_oracle(x, g)
    x4, g4 = (a.reshape(shape + (1,) * (4 - len(shape))) for a in (x, g))
    ident = identity_bn(x4.shape[1])
    gy = K.bn_normalize(x4, *ident, "hswish").reshape(shape)
    gdx = K.bn_bwd_eval(x4, g4, *ident, "hswish")[0].reshape(shape)
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
    assert np.isnan(K.dw_conv_fwd(xn, w, 1, 0)[17, 2]).any()
    dxp, dw = K.dw_conv_bwd(x, w, gn[:, :, :62, :62], 1, 0)
    assert np.isnan(dxp[17, 2]).any() and np.isnan(dw[2]).all()

    m, v = K.bn_stats(xn)
    assert np.isnan(m[2]) and np.isnan(v[2])
    assert np.isfinite(m[[0, 1, 3]]).all() and np.isfinite(v[[0, 1, 3]]).all()
    mean, var = K.bn_stats(x)
    invstd = 1.0 / np.sqrt(var + 1e-5)
    for act in ACTS:
        y = K.bn_normalize(xn, mean, invstd, gamma, beta, act)
        assert np.isnan(y[17, 2, 5, 5]) and np.isfinite(y).sum() == y.size - 1
        dx, dgamma, dbeta = K.bn_bwd_train(x, gn, mean, invstd, gamma, beta,
                                           act)
        assert (np.isnan(dx[:, 2]).all() and np.isnan(dgamma[2])
                and np.isnan(dbeta[2]))
        dx, dgamma, _ = K.bn_bwd_train(xn, g, mean, invstd, gamma, beta, act)
        assert np.isnan(dx[17, 2, 5, 5]) and np.isnan(dgamma[2])

    ident = identity_bn(4)
    assert np.isnan(K.bn_normalize(xn, *ident, "hswish")[17, 2, 5, 5])
    assert np.isnan(K.bn_bwd_eval(xn, g, *ident, "hswish")[0][17, 2, 5, 5])
    assert np.isnan(K.bn_bwd_eval(x, gn, *ident, "hswish")[0][17, 2, 5, 5])


def test_inf_propagates():
    x = np.zeros((2, 3, 6, 6), dtype=np.float32)
    x[1, 0, 2, 2] = np.inf
    assert np.isinf(K.dw_conv_fwd(x, np.ones((3, 3, 3), np.float32),
                                  1, 0)[1, 0]).any()
    with np.errstate(invalid="ignore"):  # inf - inf
        m, v = K.bn_stats(x)
    assert not np.isfinite(m[0]) and not np.isfinite(v[0])
    assert np.isinf(K.bn_normalize(x, *identity_bn(3), "hswish")[1, 0, 2, 2])


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
    assert ragged(xp) and ragged(x)

    def run_all():
        mean, var = K.bn_stats(x)
        invstd = 1.0 / np.sqrt(var + 1e-5)
        outs = [K.dw_conv_fwd(xp, w, 1, 0), *K.dw_conv_bwd(xp, w, g, 1, 0),
                K.dw_conv_fwd(x, w, 1, 1), *K.dw_conv_bwd(x, w, g, 1, 1),
                mean, var]
        for act in ACTS:
            outs += [K.bn_normalize(x, mean, invstd, gamma, beta, act),
                     *K.bn_bwd_train(x, g, mean, invstd, gamma, beta, act),
                     *K.bn_bwd_eval(x, g, mean, invstd, gamma, beta, act)]
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
    assert ragged(x)
    x[17, 0, 0, 0] = -np.inf  # -inf * clip(-inf + 3, 0, 6) = -inf * 0
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        K.bn_normalize(x, *identity_bn(4), "hswish")


def pool_of_one(monkeypatch, pool):
    """Blocks are worked by the caller and one helper from pool, whatever
    this machine's core count."""
    monkeypatch.setattr(K, "_HELPERS", 1)
    monkeypatch.setattr(K, "_POOL", pool)


def test_inline_blocks_match_pooled(monkeypatch):
    """With no helpers every block runs on the caller, and the results are
    the bytes the caller and a helper produce together."""
    rng = np.random.default_rng(8)
    x = rng.normal(size=(37, 12, 28, 28)).astype(np.float32)
    g = rng.normal(size=x.shape).astype(np.float32)
    g2 = rng.normal(size=(37, 12, 14, 14)).astype(np.float32)
    w = rng.normal(size=(12, 3, 3)).astype(np.float32)
    w1 = rng.normal(size=(1, 24, 12)).astype(np.float32)
    gamma = rng.normal(1.0, 0.1, size=12).astype(np.float32)
    beta = rng.normal(size=12).astype(np.float32)
    shift = rng.normal(size=24).astype(np.float32)
    assert ragged(x)

    def run_all():
        mean, var = K.bn_stats(x)
        invstd = 1.0 / np.sqrt(var + 1e-5)
        outs = [K.dw_conv_fwd(x, w, 2, 1, beta, "hswish"),
                *K.dw_conv_bwd(x, w, g2, 2, 1),
                K.gemm_conv_fwd(w1, x.reshape(37, 1, 12, -1), shift, "relu"),
                mean, var]
        for act in ACTS:
            outs += [K.bn_normalize(x, mean, invstd, gamma, beta, act),
                     *K.bn_bwd_train(x, g, mean, invstd, gamma, beta, act),
                     *K.bn_bwd_eval(x, g, mean, invstd, gamma, beta, act)]
        return [a.tobytes() for a in outs]

    with ThreadPoolExecutor(1) as pool, monkeypatch.context() as m:
        pool_of_one(m, pool)
        pooled = run_all()
    monkeypatch.setattr(K, "_HELPERS", 0)
    monkeypatch.setattr(K, "_POOL", None)
    assert run_all() == pooled


def test_partials_come_back_in_block_order(monkeypatch):
    monkeypatch.setattr(K, "_BLOCK_BYTES", 1)  # one block per entry
    caller = threading.current_thread()

    def fn(s):
        # the helper's blocks finish after the caller's later ones
        time.sleep(0.01 if threading.current_thread() is caller else 0.03)
        return s.start

    with ThreadPoolExecutor(1) as pool:
        pool_of_one(monkeypatch, pool)
        assert K._map_blocks(fn, np.zeros((6, 4))) == list(range(6))


@pytest.mark.parametrize("raiser", ["caller", "helper"])
def test_block_error_waits_for_every_helper(monkeypatch, raiser):
    """A block's exception reaches the caller only once no thread is still
    working a block, and the blocks not yet started are dropped."""
    monkeypatch.setattr(K, "_BLOCK_BYTES", 1)  # one block per entry
    caller = threading.current_thread()
    working = threading.Event()
    lock = threading.Lock()
    active, done = [0], []

    def fn(s):
        if (threading.current_thread() is caller) == (raiser == "caller"):
            assert working.wait(timeout=30)
            raise ValueError("block failed")
        with lock:
            active[0] += 1
        working.set()
        time.sleep(0.05)  # still writing when the other block raises
        with lock:
            active[0] -= 1
            done.append(s.start)

    with ThreadPoolExecutor(1) as pool:
        pool_of_one(monkeypatch, pool)
        with pytest.raises(ValueError, match="block failed"):
            K._map_blocks(fn, np.zeros((8, 4)))
        assert active[0] == 0
        finished = list(done)
        time.sleep(0.2)
    # the working thread finishes its block and takes no other (one or two
    # more only if the raising thread was slow to start)
    assert done == finished and 1 <= len(done) <= 3


# ---------------------------------------------------------------------------
# the sample walk

class CountingPool:
    """A pool that counts the work submitted to it."""

    def __init__(self, pool):
        self.pool, self.submitted = pool, 0

    def submit(self, *args):
        self.submitted += 1
        return self.pool.submit(*args)


def test_slices_come_back_in_order(monkeypatch):
    caller = threading.current_thread()
    helper_done = threading.Event()
    finished = []

    def fn(s):
        if threading.current_thread() is caller:
            assert helper_done.wait(timeout=30)
        else:
            time.sleep(0.01)  # the caller takes a slice meanwhile
        finished.append(threading.current_thread() is caller)
        helper_done.set()
        return s.start

    with ThreadPoolExecutor(1) as pool:
        pool_of_one(monkeypatch, pool)
        slices = K.sample_slices(10)
        assert K.map_samples(fn, slices) == [0, 5]
    assert finished == [False, True]  # the helper's slice finished first


@pytest.mark.parametrize("raiser", ["caller", "helper"])
def test_slice_error_waits_for_every_slice(monkeypatch, raiser):
    """A slice's exception reaches the caller only once the other slice has
    stopped."""
    caller = threading.current_thread()
    started, working = threading.Event(), threading.Event()
    done = []

    def fn(s):
        # each thread holds one slice until the other has taken its own
        if (threading.current_thread() is caller) == (raiser == "caller"):
            started.set()
            assert working.wait(timeout=30)
            raise ValueError("slice failed")
        assert started.wait(timeout=30)
        working.set()
        time.sleep(0.05)  # still working when the other slice raises
        done.append(s.start)

    with ThreadPoolExecutor(1) as pool:
        pool_of_one(monkeypatch, pool)
        with pytest.raises(ValueError, match="slice failed"):
            K.map_samples(fn, K.sample_slices(8))
        assert len(done) == 1


def test_kernels_in_a_slice_run_inline(monkeypatch):
    """Kernels called inside a slice submit nothing to the pool and give the
    bytes of a whole-batch call."""
    rng = np.random.default_rng(9)
    x = rng.normal(size=(37, 12, 28, 28)).astype(np.float32)
    w = rng.normal(size=(12, 3, 3)).astype(np.float32)
    w1 = rng.normal(size=(1, 24, 12)).astype(np.float32)
    shift = rng.normal(size=24).astype(np.float32)
    assert ragged(x[:18]) and ragged(x[18:])

    def run(xs):
        return [K.dw_conv_fwd(xs, w, 2, 1, shift[:12], "hswish"),
                K.gemm_conv_fwd(w1, xs.reshape(len(xs), 1, 12, -1), shift,
                                "relu"),
                K.bn_normalize(xs, *identity_bn(12), "relu")]

    with ThreadPoolExecutor(1) as serial:
        counting = CountingPool(serial)
        pool_of_one(monkeypatch, counting)
        whole = run(x)
        assert counting.submitted > 0  # outside a slice, kernels hand off
        counting.submitted = 0
        slices = K.sample_slices(len(x))
        parts = K.map_samples(lambda s: run(x[s]), slices)
    assert counting.submitted == 1  # the helper's slice, nothing inside it
    for i, a in enumerate(whole):
        assert np.concatenate([p[i] for p in parts]).tobytes() == a.tobytes()


def test_caller_errstate_holds_in_every_slice(monkeypatch):
    both = threading.Barrier(2, timeout=30)  # caller and helper, one each

    def fn(s):
        both.wait()
        return np.geterr()["invalid"]

    with ThreadPoolExecutor(1) as pool:
        pool_of_one(monkeypatch, pool)
        with np.errstate(invalid="raise"):
            assert K.map_samples(fn, K.sample_slices(2)) == ["raise", "raise"]


def test_one_slice_without_helpers(monkeypatch):
    monkeypatch.setattr(K, "_HELPERS", 0)
    monkeypatch.setattr(K, "_POOL", None)
    assert K.sample_slices(5) == [slice(0, 5)]
    caller = threading.current_thread()
    assert K.map_samples(lambda s: threading.current_thread() is caller,
                         K.sample_slices(5)) == [True]


@pytest.mark.parametrize("n", range(1, 10))
def test_slices_cover_the_batch_none_empty(monkeypatch, n):
    monkeypatch.setattr(K, "_HELPERS", 3)
    slices = K.sample_slices(n)
    assert len(slices) == min(n, 4)
    assert all(s.stop > s.start for s in slices)
    assert [i for s in slices for i in range(s.start, s.stop)] == list(
        range(n))
