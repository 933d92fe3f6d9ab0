"""Inner loops of the layer operations that dominate a training step.

Depthwise convolution and batch normalization with its activation take
most of a training step in the compact networks built here. Batch
normalization and the relu or hard-swish after it run as one op: the
forward normalizes and applies the activation in the same walk over each
block, and the backward recomputes the pre-activation from the stored conv
output with the forward's own operations (bit-identical to the forward's,
so it is never stored) and applies the activation's derivative in the
first of its two sweeps. The batch mean is a float64 sum; the other
per-channel sums are per-(sample, channel) row partials from one GEMV
against a ones vector, added over the batch in float64. Per-channel
operands are expanded to one contiguous sample [1, c, h, w], which
numpy's binary loops take faster than a broadcast [1, c, 1, 1].

Depthwise convolution runs as small BLAS GEMMs: each kernel row is one
banded [W, ow] matrix, and every (sample, channel) pair multiplies its
input rows by it. The band drops the entries that would fall in the
horizontal padding, and kernel rows skip the output rows whose input row
would be vertical padding, so the kernels take the unpadded input and no
padded copy is made. Each GEMM (about 23k multiply-adds at 28x28) stays
below OpenBLAS's threading cutoff, so it runs on the calling thread and
OpenBLAS's worker is never woken to spin on a core the pool needs.
Every other conv is one GEMM per (sample, group) on im2col columns,
walked in the same blocks. Both conv kernels take an optional epilogue,
a per-channel shift and an activation, applied to each output block right
after its GEMMs; an eval-mode batch norm folded into the conv runs there,
while the block is still in cache.

The kernels walk the batch in blocks of about _BLOCK_BYTES, so that every
pass after the first re-reads cache rather than memory, and they write
into preallocated buffers instead of chaining temporaries.

The calling thread works through the blocks itself, alongside up to
_HELPERS threads of _POOL: one fewer than the cores this process may use
(numpy releases the interpreter lock inside its loops and BLAS calls).
Caller and helpers take block indices from one shared queue, so the
caller never parks while blocks are left, and a helper that has not
started when the caller runs out of blocks is cancelled. With one core
there is no pool and every block runs inline, as does a call with a
single block. Byte-identity rule: each block has its own scratch buffer
and writes only its own slice of the output, and per-block partial sums
are returned and merged by the caller in block order. Every result is
therefore byte-identical to walking the blocks one after another, however
many threads there are and whichever finishes first. Helpers run in a
copy of the caller's context, so np.errstate holds in them. A block's
exception reaches the caller only after every helper has stopped, so no
thread still writes into the output. Threads start on the first call
with more than one block, not at import.

The sample walk (map_samples) hands out larger work on the same drain: a
forward pass in eval mode couples no samples, so evaluate and profile cut
each batch into one contiguous slice of samples per thread
(sample_slices) and run the whole network on each slice. Inside a slice
the kernels run their blocks inline (a context variable that the drain
reads, set for the slice only), so each thread pays one hand-off per
batch instead of one per op and keeps its own samples in its cache from
op to op.

Numeric contract: reductions add partials of at most one row (one sample
and channel, or one GEMM product) in the array dtype, and accumulate those
in float64 whatever the array dtype; batch-norm variance and backward use centred terms, never
E[x^2] - E[x]^2 or an expanded (x - m) product, which cancel when
|mean| >> std; NaN and Inf propagate (the trainer's non-finite guard
depends on it). In the depthwise conv an Inf meets the band's structural
zeros as 0 * Inf, so it can turn its whole output row (and, in backward,
its whole row of dx) into NaN. OpenBLAS also multiplies by the zeros it
pads its packed panels with, so any Inf can raise the invalid flag in a
GEMM whose stored result is Inf. The depthwise kernels therefore run with
invalid-value reports off and raise no warning for non-finite input.
"""

from __future__ import annotations

import collections
import contextvars
import math
import os
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

# Target bytes of one block of the batch: well inside a 2 MiB L2 with room
# for a block's input, output and scratch buffer.
_BLOCK_BYTES = 512 * 1024

# threads that work blocks besides the caller
_HELPERS = len(os.sched_getaffinity(0)) - 1
_POOL = (ThreadPoolExecutor(_HELPERS, thread_name_prefix="biasloss-kernel")
         if _HELPERS else None)


def _block_len(a):
    """Entries of a's first axis per block: at least 1, at most _BLOCK_BYTES."""
    per_entry = a.itemsize * math.prod(a.shape[1:])
    return max(1, _BLOCK_BYTES // max(1, per_entry))


# set inside a slice of the sample walk: the kernels it calls run inline
_INLINE = contextvars.ContextVar("biasloss_kernels_inline", default=False)


def _drain(fn, parts):
    """[fn(part) for part in parts], in order.

    The caller and up to _HELPERS pool threads drain the parts; inside a
    slice of the sample walk the caller drains them alone. Helpers run in
    a copy of the caller's context, so np.errstate applies in them as it
    does inline. If a part raises, the parts not yet started are dropped
    and the exception is raised once every helper has stopped.
    """
    helpers = 0 if _INLINE.get() else min(_HELPERS, len(parts) - 1)
    if helpers < 1:
        return [fn(p) for p in parts]
    results = [None] * len(parts)
    todo = collections.deque(range(len(parts)))  # thread-safe popleft

    def drain():
        try:
            while True:
                try:
                    i = todo.popleft()
                except IndexError:  # no part left
                    return
                results[i] = fn(parts[i])
        except BaseException:
            todo.clear()  # no thread starts another part
            raise

    futures = [_POOL.submit(contextvars.copy_context().run, drain)
               for _ in range(helpers)]
    try:
        drain()
    finally:
        started = [f for f in futures if not f.cancel()]
        wait(started)
    for f in started:
        f.result()  # raises a helper's exception
    return results


def _map_blocks(fn, a):
    """[fn(block) for each block of a's first axis], in block order.

    fn gets a slice and must write only that slice of any shared output.
    """
    n = _block_len(a)
    return _drain(fn, [np.s_[s:s + n] for s in range(0, len(a), n)])


def sample_slices(n):
    """One contiguous slice of range(n) per thread of the sample walk (the
    caller and _HELPERS), in order; fewer when n is smaller, none empty."""
    k = min(n, _HELPERS + 1)
    return [np.s_[n * i // k:n * (i + 1) // k] for i in range(k)]


def map_samples(fn, parts):
    """[fn(part) for part in parts], in order, with each part's kernels
    run inline: the sample walk, one part (a slice of samples) per thread.

    fn must write nothing another part reads or writes; the caller joins
    the results. Errors and np.errstate behave as in _drain.
    """
    def run(part):
        token = _INLINE.set(True)
        try:
            return fn(part)
        finally:
            _INLINE.reset(token)

    return _drain(run, parts)


# ---------------------------------------------------------------------------
# depthwise convolution

def conv_out_size(n, k, stride, pad):
    """Output length of a conv over n inputs, kernel k, zero padding pad."""
    return (n + 2 * pad - k) // stride + 1


def _band_entries(kw, stride, pad, width, ow):
    """(kj, input columns, output columns) of kernel column kj: output
    column j reads input column j*stride + kj - pad, kept where it lies in
    [0, width) (the rest is padding)."""
    j = np.arange(ow)
    entries = []
    for kj in range(kw):
        r = j * stride + kj - pad
        ok = (r >= 0) & (r < width)
        entries.append((kj, r[ok], j[ok]))
    return entries


def _band(w, entries, width, ow, dtype):
    """[c, kh, width, ow] banded matrices, T[c, ki, r, j] = w[c, ki, kj] at
    each (kj, r, j) of entries and 0 elsewhere."""
    c, kh, _ = w.shape
    band = np.zeros((c, kh, width, ow), dtype=dtype)
    for kj, r, j in entries:
        band[:, :, r, j] = w[:, :, kj, None]
    return band


def _kernel_rows(kh, stride, pad, h, oh):
    """(ki, output rows, input rows) of each kernel row ki that reaches the
    input. Output row i reads input row i*stride + ki - pad, which must lie
    in [0, h); both row sets are slices."""
    rows = []
    for ki in range(kh):
        lo = max(0, -((ki - pad) // stride))
        hi = min(oh, (h - 1 + pad - ki) // stride + 1)
        if hi > lo:
            first = lo * stride + ki - pad
            rows.append((ki, np.s_[lo:hi],
                         np.s_[first:first + (hi - lo - 1) * stride + 1:stride]))
    return rows


def _gemm_rows(dst, scratch, terms):
    """dst[:, :, rows] = the sum of a @ b over the (rows, a, b) of terms;
    rows that no term reaches are 0.

    A term that covers all of dst's rows goes first and is written, not
    added; without one, dst starts from zero.
    """
    n = dst.shape[2]
    terms = sorted(terms, key=lambda t: t[1].shape[2] != n)
    if terms and terms[0][1].shape[2] == n:
        _, a, b = terms.pop(0)
        np.matmul(a, b, out=dst)
    else:
        dst.fill(0)
    for rows, a, b in terms:
        t = scratch[:, :, :a.shape[2]]
        np.matmul(a, b, out=t)
        d = dst[:, :, rows]
        np.add(d, t, out=d)


def _epilogue(o, shift, act):
    """Adds the per-channel operand shift (None adds nothing) to the block
    o and applies act, in place."""
    if shift is not None:
        np.add(o, shift, out=o)
    _act(o, act)


def gemm_conv_fwd(w, cols, shift=None, act=None):
    """[b, groups * m, p] output of a grouped conv on im2col columns,
    w[g] [m, k] @ cols[i, g] [k, p] per (sample, group), then act(out +
    shift) with shift per output channel (None adds nothing).

    Each block of the batch runs its GEMMs into its slice of the output and
    then the epilogue, while that slice is still in cache. Blocked matmul
    calls the same GEMM per (sample, group) as a whole-batch one, so the
    GEMM results are the same bytes.
    """
    _check_act(act)
    b, groups, _, p = cols.shape
    m = w.shape[1]
    out = np.empty((b, groups * m, p), dtype=np.result_type(w, cols))
    shift = None if shift is None else _channel(shift, out)

    def block(s):
        o = out[s]
        np.matmul(w, cols[s], out=o.reshape(len(o), groups, m, p))
        _epilogue(o, shift, act)

    _map_blocks(block, out)
    return out


def dw_conv_fwd(x, w, stride, pad, shift=None, act=None):
    """Depthwise cross-correlation of x [b, c, h, w] with [c, kh, kw]
    kernels, zero padding pad on each side, as banded GEMMs; each block's
    output then gets act(out + shift) with shift per channel (None adds
    nothing), as in gemm_conv_fwd."""
    _check_act(act)
    b, c, h, wd = x.shape
    kh, kw = w.shape[1:]
    oh, ow = conv_out_size(h, kh, stride, pad), conv_out_size(wd, kw, stride, pad)
    band = _band(w, _band_entries(kw, stride, pad, wd, ow), wd, ow, x.dtype)
    rows = _kernel_rows(kh, stride, pad, h, oh)
    out = np.empty((b, c, oh, ow), dtype=x.dtype)
    shift = None if shift is None else _channel(shift, out)

    def block(s):
        xs, o = x[s], out[s]
        _gemm_rows(o, np.empty_like(o),
                   [(ro, xs[:, :, ri], band[:, ki]) for ki, ro, ri in rows])
        _epilogue(o, shift, act)

    with np.errstate(invalid="ignore"):  # 0 * Inf, see the module docstring
        _map_blocks(block, x)
    return out


def dw_conv_bwd(x, w, g, stride, pad):
    """Returns (dx, dw) for the depthwise convolution of x, with g the
    gradient of its output.

    dx sums g's rows times each transposed band. dw[c, ki, kj] is the
    (j*stride + kj - pad, j) diagonal of D = x[rows]^T @ g[rows], summed
    into per-sample partials in x's dtype that are added in float64.
    """
    _, c, h, wd = x.shape
    kh, kw = w.shape[1:]
    oh, ow = g.shape[2], g.shape[3]
    entries = _band_entries(kw, stride, pad, wd, ow)
    bandt = np.ascontiguousarray(
        _band(w, entries, wd, ow, x.dtype).swapaxes(2, 3))
    rows = _kernel_rows(kh, stride, pad, h, oh)
    dx = np.empty_like(x)

    def block(s):
        xs, gs, ds = x[s], g[s], dx[s]
        _gemm_rows(ds, np.empty((len(xs), c, min(h, oh), wd), x.dtype),
                   [(ri, gs[:, :, ro], bandt[:, ki]) for ki, ro, ri in rows])
        d = np.empty((len(xs), c, wd, ow), dtype=x.dtype)
        dw = np.zeros((kh, kw, c))
        for ki, ro, ri in rows:
            np.matmul(xs[:, :, ri].swapaxes(2, 3), gs[:, :, ro], out=d)
            for kj, r, j in entries:
                dw[ki, kj] = np.add.reduce(d[:, :, r, j].sum(axis=2), axis=0,
                                           dtype=np.float64)
        return dw

    dw = np.zeros((kh, kw, c))
    with np.errstate(invalid="ignore"):  # 0 * Inf, see the module docstring
        parts = _map_blocks(block, x)
    for part in parts:
        dw += part
    return dx, dw.transpose(2, 0, 1).astype(w.dtype)


# ---------------------------------------------------------------------------
# batch normalization with its activation

def _channel(v, x):
    """Per-channel values v as one contiguous sample [1, c, ...] of x's
    shape and dtype.

    numpy runs a binary op against this operand 1.5-2x faster than against
    a [1, c, 1, 1] broadcast, at the cost of one sample's worth of memory.
    """
    return np.repeat(np.asarray(v).astype(x.dtype),
                     math.prod(x.shape[2:])).reshape((1,) + x.shape[1:])


def _row_sums(a, ones):
    """Per-channel sums of a block a [n, c, h, w]: one GEMV against ones
    gives each (sample, channel) row's sum in a's dtype, and those row
    partials are added over the batch in float64."""
    n, c = a.shape[:2]
    rows = np.matmul(a.reshape(n * c, -1), ones)
    return np.add.reduce(rows.reshape(n, c), axis=0, dtype=np.float64)


def _ones(x):
    return np.ones(x.shape[2] * x.shape[3], dtype=x.dtype)


def bn_stats(x):
    """Per-channel biased mean/var over (batch, h, w), f64 accumulation.

    Each block's mean is an f64 sum of its elements. Its squared deviations
    are taken about that mean rounded to x's dtype and summed as row
    partials; the rounding d is corrected in f64, sum (x - bm)^2 =
    sum (x - shift)^2 - k d^2. Blocks are merged with Chan et al.'s
    pairwise update.
    """
    per_sample = x.shape[2] * x.shape[3]
    ones = _ones(x)

    def block(s):
        xs = x[s]
        k = len(xs) * per_sample
        bm = np.add.reduce(xs, axis=(0, 2, 3), dtype=np.float64) / k
        shift = bm.astype(x.dtype)
        t = np.subtract(xs, _channel(shift, xs))
        np.multiply(t, t, out=t)
        d = bm - shift
        return k, bm, _row_sums(t, ones) - k * d * d

    counts, means, m2s = zip(*_map_blocks(block, x))
    counts = np.array(counts, dtype=np.float64)[:, None]
    means = np.array(means)
    total = counts.sum()
    mean = (counts * means).sum(axis=0) / total
    m2 = np.sum(m2s, axis=0) + (counts * (means - mean) ** 2).sum(axis=0)
    return mean, np.maximum(m2 / total, 0.0)


def _affine(x, mean, invstd, gamma, beta):
    """(m, scale, shift) operands for x: x is centred on the mean rounded to
    x's dtype, and the rounding residual is folded into the shift in f64,
    so outputs keep their precision when |mean| >> std."""
    m = mean.astype(x.dtype)
    scale = gamma * invstd
    shift = beta - (mean - m) * scale
    return _channel(m, x), _channel(scale, x), _channel(shift, x)


# activations the batch-norm kernels can apply to their output
ACTIVATIONS = (None, "relu", "hswish")


def _check_act(act):
    if act not in ACTIVATIONS:
        raise ValueError(f"activation must be one of {ACTIVATIONS}, "
                         f"not {act!r}")


def _act(o, act):
    """Applies act in place: relu is max(z, 0), hswish z * clip(z + 3, 0, 6) / 6."""
    if act == "relu":
        np.maximum(o, 0, out=o)
    elif act == "hswish":
        t = np.add(o, 3.0)
        np.clip(t, 0.0, 6.0, out=t)
        np.multiply(o, t, out=o)
        np.divide(o, 6.0, out=o)


def _act_grad(o, gs, act):
    """o holds the pre-activation z; overwrites it with gs * act'(z), for
    act "relu" or "hswish".

    relu' is [z > 0]. With c = clip(z, -3, 3), hswish' is
    (c + c * [|c| < 3] + 3) / 6: 0 for z <= -3, 1 for z >= 3 and
    (2z + 3) / 6 between, with no masked assignment (numpy's is several
    times slower than arithmetic), and NaN stays NaN.
    """
    if act == "relu":
        np.greater(o, 0, out=o)
    elif act == "hswish":
        t = np.empty_like(o)
        np.clip(o, -3.0, 3.0, out=o)
        np.abs(o, out=t)
        np.less(t, 3.0, out=t)
        np.multiply(o, t, out=t)
        np.add(o, t, out=o)
        np.add(o, 3.0, out=o)
        np.divide(o, 6.0, out=o)
    np.multiply(gs, o, out=o)


def bn_normalize(x, mean, invstd, gamma, beta, act=None):
    """act((x - mean) * invstd * gamma + beta), centred per block, with act
    None, "relu" or "hswish" applied in the same walk.

    The pre-activation is (x - m) * scale + shift; the backward recomputes
    it with the same two operations, so its copy is bit-identical.
    """
    _check_act(act)
    m, scale, shift = _affine(x, mean, invstd, gamma, beta)
    out = np.empty_like(x)

    def block(s):
        o = out[s]
        np.subtract(x[s], m, out=o)
        np.multiply(o, scale, out=o)
        np.add(o, shift, out=o)
        _act(o, act)

    _map_blocks(block, x)
    return out


def _act_grad_sums(x, g, mean, invstd, gamma, beta, act):
    """Sweep 1 of the backward: (m, gz, sum gz, sum gz * (x - m)) with m the
    centre of _affine, gz = g * act'(z) and the sums per channel in f64
    from row partials.

    The pre-activation z is recomputed from x as bn_normalize builds it;
    gz is g itself when act is None and a new array otherwise.
    """
    _check_act(act)
    m, scale, shift = _affine(x, mean, invstd, gamma, beta)
    ones = _ones(x)
    gz = g if act is None else np.empty_like(x)

    def sweep(s):
        o = gz[s]
        t = np.subtract(x[s], m)
        if act is not None:
            np.multiply(t, scale, out=o)
            np.add(o, shift, out=o)
            _act_grad(o, g[s], act)
        np.multiply(t, o, out=t)
        return _row_sums(o, ones), _row_sums(t, ones)

    sum_g = np.zeros(x.shape[1])
    sum_gx = np.zeros(x.shape[1])
    for sg, sgx in _map_blocks(sweep, x):
        sum_g += sg
        sum_gx += sgx
    return m, gz, sum_g, sum_gx


def bn_bwd_train(x, g, mean, invstd, gamma, beta, act=None):
    """Returns (dx, dgamma, dbeta) for train-mode batch normalization
    followed by act, with g the gradient of act's output.

    Two sweeps: the first writes g * act'(z) into dx and sums it, the
    second finishes dx in place.
    """
    count = x.shape[0] * x.shape[2] * x.shape[3]
    m, gz, sum_g, sum_gx = _act_grad_sums(x, g, mean, invstd, gamma, beta,
                                          act)
    # x is centred on the mean rounded to x's dtype; the rounding residual
    # d is folded back in f64
    d = mean - mean.astype(x.dtype)
    dbeta = sum_g
    dgamma = (sum_gx - d * sum_g) * invstd
    # dx = k gz - a - (x - mean) c2 = k gz - (a - d c2) - (x - m) c2
    k = gamma * invstd
    c2 = k * invstd * dgamma / count
    a = k * dbeta / count - d * c2
    k, a, c2 = (_channel(v, x) for v in (k, a, c2))
    dx = np.empty_like(x) if act is None else gz

    def grad(s):
        o = dx[s]
        t = np.subtract(x[s], m)
        np.multiply(t, c2, out=t)
        np.multiply(gz[s], k, out=o)
        np.subtract(o, a, out=o)
        np.subtract(o, t, out=o)

    _map_blocks(grad, x)
    return dx, dgamma.astype(gamma.dtype), dbeta.astype(gamma.dtype)


def bn_bwd_eval(x, g, mean, invstd, gamma, beta, act=None):
    """Returns (dx, dgamma, dbeta) for eval-mode batch normalization, where
    mean and invstd are constants, followed by act."""
    _, gz, sum_g, sum_gx = _act_grad_sums(x, g, mean, invstd, gamma, beta,
                                          act)
    dgamma = (sum_gx - (mean - mean.astype(x.dtype)) * sum_g) * invstd
    dx = np.multiply(gz, _channel(gamma * invstd, x))
    return dx, dgamma.astype(gamma.dtype), sum_g.astype(gamma.dtype)
