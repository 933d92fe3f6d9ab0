"""Inner loops of the bandwidth-bound layer operations, in numpy.

Depthwise convolution, batch normalization and hard-swish take most of a
training step in the compact networks built here, and each makes several
element-wise passes over an activation. The kernels walk the batch in
blocks of about _BLOCK_BYTES, so that every pass after the first re-reads
cache rather than memory, and they write into preallocated buffers
instead of chaining temporaries.

Blocks run on _POOL, one worker thread per core this process may use
(numpy releases the interpreter lock inside its loops); a call with a
single block runs inline. Byte-identity rule: each block has its own
scratch buffer and writes only its own slice of the output, and per-block
partial sums are returned and merged by the caller in block order. Every
result is therefore byte-identical to walking the blocks one after
another, however many workers there are and whichever finishes first.
Blocks run in a copy of the caller's context, so np.errstate holds in
them. Threads start on the first call with more than one block, not at
import.

Numeric contract: reductions accumulate in float64 whatever the array
dtype; batch-norm variance and backward use centred terms, never
E[x^2] - E[x]^2 or an expanded (x - m) product, which cancel when
|mean| >> std; NaN and Inf propagate (the trainer's non-finite guard
depends on it).
"""

from __future__ import annotations

import contextvars
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Target bytes of one block of the batch: well inside a 2 MiB L2 with room
# for a block's input, output and scratch buffer.
_BLOCK_BYTES = 512 * 1024

_POOL = ThreadPoolExecutor(len(os.sched_getaffinity(0)),
                           thread_name_prefix="biasloss-kernel")


def _block_len(a):
    """Entries of a's first axis per block: at least 1, at most _BLOCK_BYTES."""
    per_entry = a.itemsize * math.prod(a.shape[1:])
    return max(1, _BLOCK_BYTES // max(1, per_entry))


def _map_blocks(fn, a):
    """[fn(block) for each block of a's first axis], in block order.

    fn gets a slice and must write only that slice of any shared output.
    Each block runs in a copy of the caller's context, so np.errstate
    applies in the workers as it does inline.
    """
    n = _block_len(a)
    blocks = [np.s_[s:s + n] for s in range(0, len(a), n)]
    if len(blocks) == 1:
        return [fn(blocks[0])]
    futures = [_POOL.submit(contextvars.copy_context().run, fn, s)
               for s in blocks]
    return [f.result() for f in futures]


def _channel(v, dtype):
    """A per-channel f64 vector as a [1, c, 1, 1] array of dtype."""
    return np.asarray(v).astype(dtype).reshape(1, -1, 1, 1)


def _sum_nhw(a):
    """Per-channel sum over (batch, h, w), accumulated in float64."""
    return np.add.reduce(a, axis=(0, 2, 3), dtype=np.float64)


# ---------------------------------------------------------------------------
# depthwise convolution

def _taps(w, stride, oh, ow):
    """(ki, kj, window index into the padded input) for each kernel tap."""
    return [(ki, kj, np.s_[:, :, ki:ki + stride * oh:stride,
                           kj:kj + stride * ow:stride])
            for ki in range(w.shape[1]) for kj in range(w.shape[2])]


def dw_conv_fwd(xp, w, stride, oh, ow):
    """Depthwise cross-correlation of padded input xp with [c,kh,kw] kernels."""
    b, c = xp.shape[0], xp.shape[1]
    wt = w.astype(xp.dtype, copy=False)
    out = np.empty((b, c, oh, ow), dtype=xp.dtype)
    taps = _taps(w, stride, oh, ow)

    def block(s):
        xs, o = xp[s], out[s]
        t = np.empty_like(o)
        for i, (ki, kj, win) in enumerate(taps):
            wk = wt[:, ki, kj].reshape(1, c, 1, 1)
            if i == 0:
                np.multiply(xs[win], wk, out=o)
            else:
                np.multiply(xs[win], wk, out=t)
                np.add(o, t, out=o)

    _map_blocks(block, xp)
    return out


def dw_conv_bwd(xp, w, g, stride):
    """Returns (dxp, dw) for the depthwise convolution."""
    c = xp.shape[1]
    wt = w.astype(xp.dtype, copy=False)
    dxp = np.zeros_like(xp)
    taps = _taps(w, stride, g.shape[2], g.shape[3])

    def block(s):
        xs, gs, ds = xp[s], g[s], dxp[s]
        t = np.empty(gs.shape, dtype=xp.dtype)
        dw = np.empty((len(taps), c))
        for i, (ki, kj, win) in enumerate(taps):
            np.multiply(gs, xs[win], out=t)
            dw[i] = _sum_nhw(t)
            np.multiply(gs, wt[:, ki, kj].reshape(1, c, 1, 1), out=t)
            dwin = ds[win]
            np.add(dwin, t, out=dwin)
        return dw

    dw = np.zeros((len(taps), c))
    for part in _map_blocks(block, xp):
        dw += part
    return dxp, dw.T.reshape(w.shape).astype(w.dtype)


# ---------------------------------------------------------------------------
# batch normalization

def bn_stats(x):
    """Per-channel biased mean/var over (batch, h, w), f64 accumulation.

    Each block's squared deviations are taken about the block mean rounded
    to x's dtype, the rounding is corrected exactly in f64, and the blocks
    are merged with Chan et al.'s pairwise update.
    """
    c = x.shape[1]
    per_sample = x.shape[2] * x.shape[3]

    def block(s):
        xs = x[s]
        k = len(xs) * per_sample
        bsum = _sum_nhw(xs)
        bm = bsum / k
        shift = bm.astype(x.dtype)
        t = np.subtract(xs, shift.reshape(1, c, 1, 1))
        np.multiply(t, t, out=t)
        # sum (x - shift)^2 = sum (x - bm)^2 + k (bm - shift)^2
        d = bm - shift
        return k, bsum, _sum_nhw(t) - k * d * d

    counts, sums, m2s = zip(*_map_blocks(block, x))
    counts = np.array(counts, dtype=np.float64)[:, None]
    sums = np.array(sums)
    total = counts.sum()
    mean = sums.sum(axis=0) / total
    m2 = np.sum(m2s, axis=0) + (counts * (sums / counts - mean) ** 2).sum(axis=0)
    return mean, np.maximum(m2 / total, 0.0)


def bn_normalize(x, mean, invstd, gamma, beta):
    """(x - mean) * invstd * gamma + beta, centred per block.

    x is centred on the mean rounded to x's dtype and the rounding
    residual is folded into the shift in f64, so outputs keep their
    precision when |mean| >> std.
    """
    m = mean.astype(x.dtype)
    scale = gamma * invstd
    shift = beta - (mean - m) * scale
    m4 = m.reshape(1, -1, 1, 1)
    scale4, shift4 = _channel(scale, x.dtype), _channel(shift, x.dtype)
    out = np.empty_like(x)

    def block(s):
        o = out[s]
        np.subtract(x[s], m4, out=o)
        np.multiply(o, scale4, out=o)
        np.add(o, shift4, out=o)

    _map_blocks(block, x)
    return out


def bn_bwd_train(x, g, gamma, mean, invstd):
    """Returns (dx, dgamma, dbeta) for train-mode batch normalization."""
    count = x.shape[0] * x.shape[2] * x.shape[3]
    # x is centred on the mean rounded to x's dtype; the rounding residual
    # d is folded back in f64
    m = mean.astype(x.dtype)
    d = mean - m
    m4 = m.reshape(1, -1, 1, 1)

    def sums(s):
        xs, gs = x[s], g[s]
        t = np.subtract(xs, m4)
        np.multiply(t, gs, out=t)
        return _sum_nhw(gs), _sum_nhw(t)

    sum_g = np.zeros(x.shape[1])
    sum_gx = np.zeros(x.shape[1])
    for sg, sgx in _map_blocks(sums, x):
        sum_g += sg
        sum_gx += sgx
    dbeta = sum_g
    dgamma = (sum_gx - d * sum_g) * invstd
    # dx = k g - a - (x - mean) c2 = k g - (a - d c2) - (x - m) c2
    k = gamma * invstd
    c2 = k * invstd * dgamma / count
    a = k * dbeta / count - d * c2
    k4, a4, c24 = (_channel(v, x.dtype) for v in (k, a, c2))
    dx = np.empty_like(x)

    def grad(s):
        xs, gs, o = x[s], g[s], dx[s]
        t = np.subtract(xs, m4)
        np.multiply(t, c24, out=t)
        np.multiply(gs, k4, out=o)
        np.subtract(o, a4, out=o)
        np.subtract(o, t, out=o)

    _map_blocks(grad, x)
    return dx, dgamma.astype(gamma.dtype), dbeta.astype(gamma.dtype)


# ---------------------------------------------------------------------------
# hard-swish

def hswish_fwd(x):
    """x * clip(x + 3, 0, 6) / 6, element-wise."""
    xf = np.ascontiguousarray(x).reshape(-1)
    out = np.empty(x.shape, dtype=x.dtype)
    of = out.reshape(-1)

    def block(s):
        xs, o = xf[s], of[s]
        np.add(xs, 3.0, out=o)
        np.clip(o, 0.0, 6.0, out=o)
        np.multiply(xs, o, out=o)
        np.divide(o, 6.0, out=o)

    _map_blocks(block, xf)
    return out


def hswish_bwd(x, g):
    """g * d/dx hswish: 0 for x <= -3, 1 for x >= 3, (2x + 3) / 6 between.

    With c = clip(x, -3, 3) the derivative is (c + c * [|c| < 3] + 3) / 6,
    which needs no masked assignment (numpy's is several times slower
    than arithmetic) and keeps NaN.
    """
    xf = np.ascontiguousarray(x).reshape(-1)
    gf = np.ascontiguousarray(g).reshape(-1)
    dx = np.empty(x.shape, dtype=x.dtype)
    df = dx.reshape(-1)

    def block(s):
        xs, gs, o = xf[s], gf[s], df[s]
        t = np.empty_like(o)
        np.clip(xs, -3.0, 3.0, out=o)
        np.abs(o, out=t)
        np.less(t, 3.0, out=t)
        np.multiply(o, t, out=t)
        np.add(o, t, out=o)
        np.add(o, 3.0, out=o)
        np.divide(o, 6.0, out=o)
        np.multiply(gs, o, out=o)

    _map_blocks(block, xf)
    return dx
