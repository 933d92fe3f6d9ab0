"""Inner loops of the bandwidth-bound layer operations, in numpy.

Depthwise convolution, batch normalization and hard-swish take most of a
training step in the compact networks built here, and each makes several
element-wise passes over an activation. The kernels that make more than
one pass walk the batch in blocks of about _BLOCK_BYTES, so that every
pass after the first re-reads cache rather than memory, and they write
into preallocated buffers instead of chaining temporaries.

Numeric contract: reductions accumulate in float64 whatever the array
dtype; batch-norm variance and backward use centred terms, never
E[x^2] - E[x]^2 or an expanded (x - m) product, which cancel when
|mean| >> std; NaN and Inf propagate (the trainer's non-finite guard
depends on it).
"""

from __future__ import annotations

import math

import numpy as np

# Target bytes of one block of the batch: well inside a 2 MiB L2 with room
# for a block's input, output and scratch buffer.
_BLOCK_BYTES = 512 * 1024


def _block_len(a):
    """Entries of a's first axis per block: at least 1, at most _BLOCK_BYTES."""
    per_entry = a.itemsize * math.prod(a.shape[1:])
    return max(1, _BLOCK_BYTES // max(1, per_entry))


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
    n = _block_len(xp)
    tmp = np.empty((min(n, b), c, oh, ow), dtype=xp.dtype)
    taps = _taps(w, stride, oh, ow)
    for s in range(0, b, n):
        xs, o = xp[s:s + n], out[s:s + n]
        t = tmp[:len(o)]
        for i, (ki, kj, win) in enumerate(taps):
            wk = wt[:, ki, kj].reshape(1, c, 1, 1)
            if i == 0:
                np.multiply(xs[win], wk, out=o)
            else:
                np.multiply(xs[win], wk, out=t)
                np.add(o, t, out=o)
    return out


def dw_conv_bwd(xp, w, g, stride):
    """Returns (dxp, dw) for the depthwise convolution."""
    b, c = xp.shape[0], xp.shape[1]
    oh, ow = g.shape[2], g.shape[3]
    wt = w.astype(xp.dtype, copy=False)
    dxp = np.zeros_like(xp)
    dw = np.zeros((w.shape[1], w.shape[2], c), dtype=np.float64)
    n = _block_len(xp)
    tmp = np.empty((min(n, b), c, oh, ow), dtype=xp.dtype)
    taps = _taps(w, stride, oh, ow)
    for s in range(0, b, n):
        xs, gs, ds = xp[s:s + n], g[s:s + n], dxp[s:s + n]
        t = tmp[:len(gs)]
        for ki, kj, win in taps:
            np.multiply(gs, xs[win], out=t)
            dw[ki, kj] += _sum_nhw(t)
            np.multiply(gs, wt[:, ki, kj].reshape(1, c, 1, 1), out=t)
            dwin = ds[win]
            np.add(dwin, t, out=dwin)
    return dxp, dw.transpose(2, 0, 1).astype(w.dtype)


# ---------------------------------------------------------------------------
# batch normalization

def bn_stats(x):
    """Per-channel biased mean/var over (batch, h, w), f64 accumulation.

    Each block's squared deviations are taken about the block mean rounded
    to x's dtype, the rounding is corrected exactly in f64, and the blocks
    are merged with Chan et al.'s pairwise update.
    """
    b, c = x.shape[0], x.shape[1]
    per_sample = x.shape[2] * x.shape[3]
    n = _block_len(x)
    tmp = np.empty((min(n, b),) + x.shape[1:], dtype=x.dtype)
    counts, sums, m2s = [], [], []
    for s in range(0, b, n):
        xs = x[s:s + n]
        t = tmp[:len(xs)]
        k = len(xs) * per_sample
        bsum = _sum_nhw(xs)
        bm = bsum / k
        shift = bm.astype(x.dtype)
        np.subtract(xs, shift.reshape(1, c, 1, 1), out=t)
        np.multiply(t, t, out=t)
        # sum (x - shift)^2 = sum (x - bm)^2 + k (bm - shift)^2
        d = bm - shift
        counts.append(k)
        sums.append(bsum)
        m2s.append(_sum_nhw(t) - k * d * d)
    counts = np.array(counts, dtype=np.float64)[:, None]
    sums = np.array(sums)
    total = counts.sum()
    mean = sums.sum(axis=0) / total
    m2 = np.sum(m2s, axis=0) + (counts * (sums / counts - mean) ** 2).sum(axis=0)
    return mean, np.maximum(m2 / total, 0.0)


def bn_normalize(x, mean, invstd, gamma, beta):
    """(x - mean) * invstd * gamma + beta, as one multiply and one add."""
    scale = gamma * invstd
    shift = beta - mean * scale
    out = np.multiply(x, _channel(scale, x.dtype))
    np.add(out, _channel(shift, x.dtype), out=out)
    return out


def bn_bwd_train(x, g, gamma, mean, invstd):
    """Returns (dx, dgamma, dbeta) for train-mode batch normalization."""
    b = x.shape[0]
    count = b * x.shape[2] * x.shape[3]
    # x is centred on the mean rounded to x's dtype; the rounding residual
    # d is folded back in f64
    m = mean.astype(x.dtype)
    d = mean - m
    m4 = m.reshape(1, -1, 1, 1)
    n = _block_len(x)
    tmp = np.empty((min(n, b),) + x.shape[1:], dtype=x.dtype)
    sum_g = np.zeros(x.shape[1])
    sum_gx = np.zeros(x.shape[1])
    for s in range(0, b, n):
        xs, gs = x[s:s + n], g[s:s + n]
        t = tmp[:len(xs)]
        sum_g += _sum_nhw(gs)
        np.subtract(xs, m4, out=t)
        np.multiply(t, gs, out=t)
        sum_gx += _sum_nhw(t)
    dbeta = sum_g
    dgamma = (sum_gx - d * sum_g) * invstd
    # dx = k g - a - (x - mean) c2 = k g - (a - d c2) - (x - m) c2
    k = gamma * invstd
    c2 = k * invstd * dgamma / count
    a = k * dbeta / count - d * c2
    k4, a4, c24 = (_channel(v, x.dtype) for v in (k, a, c2))
    dx = np.empty_like(x)
    for s in range(0, b, n):
        xs, gs, o = x[s:s + n], g[s:s + n], dx[s:s + n]
        t = tmp[:len(xs)]
        np.subtract(xs, m4, out=t)
        np.multiply(t, c24, out=t)
        np.multiply(gs, k4, out=o)
        np.subtract(o, a4, out=o)
        np.subtract(o, t, out=o)
    return dx, dgamma.astype(gamma.dtype), dbeta.astype(gamma.dtype)


# ---------------------------------------------------------------------------
# hard-swish

def hswish_fwd(x):
    """x * clip(x + 3, 0, 6) / 6, element-wise."""
    xf = np.ascontiguousarray(x).reshape(-1)
    out = np.empty(x.shape, dtype=x.dtype)
    of = out.reshape(-1)
    n = _block_len(xf)
    for s in range(0, xf.size, n):
        xs, o = xf[s:s + n], of[s:s + n]
        np.add(xs, 3.0, out=o)
        np.clip(o, 0.0, 6.0, out=o)
        np.multiply(xs, o, out=o)
        np.divide(o, 6.0, out=o)
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
    n = _block_len(xf)
    tmp = np.empty(min(n, xf.size), dtype=x.dtype)
    for s in range(0, xf.size, n):
        xs, gs, o = xf[s:s + n], gf[s:s + n], df[s:s + n]
        t = tmp[:len(xs)]
        np.clip(xs, -3.0, 3.0, out=o)
        np.abs(o, out=t)
        np.less(t, 3.0, out=t)
        np.multiply(o, t, out=t)
        np.add(o, t, out=o)
        np.add(o, 3.0, out=o)
        np.divide(o, 6.0, out=o)
        np.multiply(gs, o, out=o)
    return dx
