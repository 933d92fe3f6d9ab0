"""CNN building blocks on top of the autodiff engine.

A conv is dense or depthwise, and each kind has one path, walked in
blocks of the batch by the kernels of _kernels. Depthwise conv is one
banded GEMM per (sample, channel) and kernel row on the unpadded input;
the padding lives in the band, so no padded copy is made. A dense conv
(1x1 and the stem) is one GEMM per sample on im2col columns, W
[cout, cin*kh*kw] @ cols[i] [cin*kh*kw, oh*ow]. For a 1x1 kernel at
stride 1 the columns are the NCHW activation itself, with no layout
copy. The stem's columns are a _kernels.Blocks source that runs _im2col
on each block as a kernel reads it, in the forward and again in the
backward, so the stem keeps only its input image. The dense backward
runs on the same block walk: each block's weight-gradient partials and
column gradients are its own GEMMs. Adaptive
average pooling is one GEMM per sample against an averaging matrix built
once per shape; the global pool's backward is g times the matrix's one
row, the same products without a K=1 GEMM per sample. Each of these GEMMs
is small enough that OpenBLAS runs it on the calling thread; a
multithreaded BLAS call would leave OpenBLAS's worker spinning between
calls on a core the kernel pool needs. Weight gradients sum the
per-sample partials in float64. A conv whose input needs no gradient (the
stem's images) skips its dx. Convs have no bias: the BN after each one
carries the shift.

Batch normalization and the activation after it (relu or hard-swish) are
one "batchnorm" op with an act attribute, so a conv -> BN -> act unit adds
two graph nodes, not three. In train mode the op keeps the conv output in
its ctx and the activation output as its value. The backward has one
rule for relu in both modes: its derivative is [y > 0], read from the
op's output y. A hard-swish layer's backward recomputes the BN output
from the conv output instead of storing it. A BN without activation takes
an optional fourth input, a residual, which its normalizing walk adds and
whose gradient is g: an inverted-residual block's project BN adds the
block's input so, and no BN output that only an add would read is kept.

The conv node of a ConvBnAct, which holds its BatchNorm2d, folds the BN
into itself where folded_bn says so: always in eval mode, and in train
mode for a widening 1x1 conv (more output channels than input: the
expand convs, the skip block's expand and project, and the head), whose
kept input is smaller than its output. In eval mode it computes
act(conv(x, w * s) + t) with s = gamma * invstd and t = beta -
running_mean * s, taken in float64 from the current parameters and
running statistics on every forward, and the kernels add t and apply act
to each block right after its GEMMs. In train mode it takes the batch
statistics of its output, folds them into the running statistics, and
normalizes and activates the output in place, with the BN op's own
kernels and so to the same bytes. Either way the BN node then returns
its input (plus its residual, if it has one), so the graph keeps the
same two nodes in both modes and never the unfolded conv output. The
backward recomputes that output from the conv's kept input, for a dense
conv one block at a time with the forward's own per-sample GEMM (a
_kernels.Blocks source, so it is never stored whole either), runs the
BN's backward on it, then the conv's own backward; its relu mask comes
from the values the folded conv returned. A BatchNorm2d used on its own
still normalizes.

In train mode the BN after an InvertedResidual's depthwise conv defers
to the project conv after it (prologue_bn), unless that conv widens and
folds its own BN: the BN node takes the batch statistics, updates the
running statistics and returns the depthwise output itself, and the
project conv reads its input through a _kernels.BNBlocks source, which
normalizes and activates each block right before the block's GEMMs. Its
backward rebuilds each block the same way, takes the weight-gradient
partials and dy from it and runs the BN backward's first sweep on dy in
the same walk (_kernels.bn_gemm_bwd); the BN node gets that finished
sweep in place of a gradient and runs the second. So the depthwise BN's
output is never stored, nor its dy. Which op applies each BN of the
default network:

    BN after                     eval mode    train mode
    stem conv                    stem conv    its own node
    widening 1x1 conv (expand,   the conv     the conv, in place
      head, skip block's two)
    block's depthwise conv       dw conv      the project conv, per block
    skip block's depthwise conv  dw conv      its own node
    narrowing project conv       the conv     its own node, with residual

Layer objects own their parameter nodes; calling a layer on an input node
extends the graph, so one set of weights can back several graphs. A graph
depends on its input's spatial size alone, not on the batch size. A
train run builds one graph and refills its input leaf each step, so every
step reuses the memory of the last; an inference pass (infer) builds a
graph per slice of each batch, since it frees every value it does not keep
anyway. Every layer, block and the network derive from Module, which walks
the attribute tree once for all of them: parameters, BN buffers,
train/eval mode, loading a checkpoint's state and counting parameters.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import autodiff as ad
from . import _kernels as K
from .autodiff import Node, ShapeError, register_op, _node


# ---------------------------------------------------------------------------
# convolution

def _check_groups(cin, cout, groups):
    """A conv is dense (groups 1) or depthwise (groups = cin = cout)."""
    if groups != 1 and not groups == cin == cout:
        raise ShapeError(
            f"groups must be 1 (dense) or cin = cout (depthwise), got "
            f"cin={cin} cout={cout} groups={groups}")


def _conv2d_fwd(node, xs):
    x, w = xs
    stride = node.attrs["stride"]
    pad = node.attrs["padding"]
    groups = node.attrs["groups"]
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError("conv2d expects 4-d input and weight")
    _, cin, h, wd = x.shape
    cout, cin_w, kh, kw = w.shape
    _check_groups(cin, cout, groups)
    if cin_w != cin // groups:
        raise ShapeError(f"weight {w.shape} does not fit cin={cin} "
                         f"groups={groups}")
    oh = K.conv_out_size(h, kh, stride, pad)
    ow = K.conv_out_size(wd, kw, stride, pad)
    if oh < 1 or ow < 1:
        raise ShapeError("kernel larger than padded input")

    # ctx is (columns, batch statistics): a depthwise conv's kernels read x
    # itself (columns None); a dense one is a GEMM per sample,
    # [cout, cin*kh*kw] @ [b, cin*kh*kw, oh*ow]
    node.ctx = (None if groups == cin == cout else
                _columns(node, x, kh, kw, stride, pad), None)
    bn = folded_bn(node)
    if bn is None:
        return _conv(node, x, w)
    if not bn.training:
        w, shift = _fold(bn, w)
        return _conv(node, x, w, shift, bn.act)
    # a widening 1x1 conv in train mode keeps only its BN's output: it
    # normalizes and activates its own output in place, and keeps the batch
    # statistics for the BN node to pass on
    out = _conv(node, x, w)
    m, invstd = _batch_stats(bn, out)
    node.ctx = (node.ctx[0], (m, invstd))
    return K.bn_normalize(out, m, invstd, bn.gamma.value, bn.beta.value,
                          bn.act, out=out)


def _columns(node, x, kh, kw, stride, pad):
    """Dense conv node's im2col columns of x, [b, cin*kh*kw, oh*ow], as
    its kernels read them. For a 1x1 kernel at stride 1 without padding
    they are x itself, viewed, or the BN and act of a train-mode BN node
    that defers to this conv (prologue_bn), applied to each block as it is
    read (K.BNBlocks). Any other kernel's columns are a K.Blocks source
    that runs _im2col on each block of the batch, so that only x is kept.
    """
    b, cin, h, wd = x.shape
    if kh == kw == stride == 1 and not pad:
        cols = x.reshape(b, cin, h * wd)
        bn = prologue_bn(node)
        if bn is None:
            return cols
        m, invstd = node.inputs[0].ctx[2:]
        return K.BNBlocks(cols, m, invstd, bn.gamma.value, bn.beta.value,
                          bn.act)
    oh = K.conv_out_size(h, kh, stride, pad)
    ow = K.conv_out_size(wd, kw, stride, pad)
    return K.Blocks(lambda s: _im2col(x[s], kh, kw, stride, pad),
                    (b, cin * kh * kw, oh * ow), x.dtype)


def folded_bn(conv):
    """The BatchNorm2d that conv node's forward applies to its own output,
    or None. A ConvBnAct's conv applies its BN in eval mode, and in train
    mode too when it is a widening 1x1 conv, more output channels than
    input, whose kept input is smaller than its output."""
    bn = conv.attrs.get("bn")
    if bn is None or not bn.training:
        return bn
    cout, cin, kh, kw = conv.inputs[1].value.shape
    return bn if kh == kw == 1 and cout > cin else None


def _defers(node):
    """Whether batchnorm node defers its BN and act to the 1x1 conv that
    reads it: a train-mode BN built with defer (InvertedResidual's
    depthwise BN)."""
    return node.attrs.get("defer", False) and node.attrs["layer"].training


def prologue_bn(conv):
    """The BatchNorm2d that conv node's forward applies to its input, or
    None: the BN of an input node that defers to it (_defers), whose
    normalization and act the conv runs on each block of its input right
    before the block's GEMMs."""
    x = conv.inputs[0]
    return x.attrs["layer"] if x.op == "batchnorm" and _defers(x) else None


def _conv(node, x, w, shift=None, act=None):
    """act(conv(x, w) + shift) for conv node's geometry, with shift per
    output channel (None adds nothing); the kernels apply shift and act to
    each block of the batch right after its GEMMs. A dense conv reads its
    columns from node.ctx."""
    stride, pad = node.attrs["stride"], node.attrs["padding"]
    cols = node.ctx[0]
    if cols is None:
        return K.dw_conv_fwd(np.ascontiguousarray(x), w[:, 0], stride, pad,
                             shift, act)
    b, _, h, wd = x.shape
    cout, _, kh, kw = w.shape
    out = K.gemm_conv_fwd(w.reshape(cout, -1), cols, shift, act)
    return out.reshape(b, cout, K.conv_out_size(h, kh, stride, pad),
                       K.conv_out_size(wd, kw, stride, pad))


def _fold(bn, w):
    """(w * s, t) folding eval-mode BN layer bn into the conv before it:
    bn(conv(x, w)) = conv(x, w * s) + t per output channel, with
    s = gamma * invstd and t = beta - running_mean * s taken in float64
    and cast to w's dtype. Computed on every call from the current
    parameters and running statistics, so it cannot go stale."""
    s = bn.gamma.value * _invstd(bn)
    t = bn.beta.value - bn.running_mean.astype(np.float64) * s
    return w * s.astype(w.dtype)[:, None, None, None], t.astype(w.dtype)


def _im2col(x, kh, kw, stride, pad):
    """[b, c*kh*kw, oh*ow] input windows, one column per output position."""
    b, c, h, w = x.shape
    xp = x
    if pad:  # a zeroed copy: with np.pad an 18-image block took 70, not 42 us
        xp = np.zeros((b, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
        xp[:, :, pad:pad + h, pad:pad + w] = x
    oh = K.conv_out_size(h, kh, stride, pad)
    ow = K.conv_out_size(w, kw, stride, pad)
    sb, sc, sh, sw = xp.strides
    win = as_strided(xp, (b, c, kh, kw, oh, ow),
                     (sb, sc, sh, sw, sh * stride, sw * stride),
                     writeable=False)
    return np.ascontiguousarray(win).reshape(b, c * kh * kw, oh * ow)


def _col2im(dcol, x_shape, kh, kw, stride, pad):
    """Adjoint of _im2col: scatter-add column gradients back onto the input."""
    b, c, h, w = x_shape
    if kh == kw == stride == 1 and not pad:
        return dcol.reshape(x_shape)
    oh = K.conv_out_size(h, kh, stride, pad)
    ow = K.conv_out_size(w, kw, stride, pad)
    dcol = dcol.reshape(b, c, kh, kw, oh, ow)
    dx = np.zeros((b, c, h + 2 * pad, w + 2 * pad), dtype=dcol.dtype)
    for ki in range(kh):
        for kj in range(kw):
            dx[:, :, ki:ki + stride * oh:stride,
               kj:kj + stride * ow:stride] += dcol[:, :, ki, kj]
    return dx[:, :, pad:pad + h, pad:pad + w]


def _conv2d_bwd(node, g):
    x = node.inputs[0].value
    w = node.inputs[1].value
    stride = node.attrs["stride"]
    pad = node.attrs["padding"]
    b, cout, oh, ow = g.shape
    cols = node.ctx[0]
    if cols is None:
        dx, dw = K.dw_conv_bwd(np.ascontiguousarray(x), w[:, 0],
                               np.ascontiguousarray(g), stride, pad)
    elif isinstance(cols, K.BNBlocks):
        # the walk that rebuilds each block of the input's BN output also
        # runs that BN backward's first sweep; its node gets the sweep
        dx, dw = K.bn_gemm_bwd(w.reshape(cout, -1), cols,
                               g.reshape(b, cout, oh * ow))
    else:
        # an input without gradient, like the stem's images, skips its dx
        dcol, dw = K.gemm_conv_bwd(w.reshape(cout, -1), cols,
                                   g.reshape(b, cout, oh * ow),
                                   node.inputs[0].requires_grad)
        dx = (None if dcol is None else
              _col2im(dcol, x.shape, w.shape[2], w.shape[3], stride, pad))
    return [dx, dw.reshape(w.shape)]


register_op("conv2d", _conv2d_fwd, _conv2d_bwd)


def conv2d(x, weight, stride=1, padding=0, groups=1, bn=None):
    """Cross-correlation of [b,cin,h,w] with a dense [cout,cin,kh,kw]
    weight (groups 1) or a depthwise [cin,1,kh,kw] one (groups = cin).

    With bn, the BatchNorm2d applied to this conv's output, the conv
    computes that BN and its activation itself whenever folded_bn says so:
    in eval mode, and in train mode for a widening 1x1 conv. The BN's own
    node then passes the result through.
    """
    return _node("conv2d", [x, weight],
                 {"stride": int(stride), "padding": int(padding),
                  "groups": int(groups), "bn": bn})


# ---------------------------------------------------------------------------
# batch normalization

def _batchnorm_fwd(node, xs):
    x, gamma, beta = xs[:3]
    residual = xs[3] if len(xs) > 3 else None
    layer = node.attrs["layer"]
    if x.ndim != 4:
        raise ShapeError("batchnorm expects a 4-d input")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"per-channel parameters must have length {c}")
    if residual is not None and residual.shape != x.shape:
        raise ShapeError(f"residual {residual.shape} does not match the "
                         f"input {x.shape}")
    mode = "train" if layer.training else "eval"
    conv = node.inputs[0]
    folded = folded_bn(conv) is layer
    if not folded:
        x = np.ascontiguousarray(x)
    if not layer.training:
        m, invstd = layer.running_mean.astype(np.float64), _invstd(layer)
    elif folded:
        m, invstd = conv.ctx[1]  # the conv took the batch statistics
    else:
        m, invstd = _batch_stats(layer, x)
    if folded:
        # the conv before this node applied the BN and act already
        node.ctx = (mode, None, m, invstd)
        return x if residual is None else np.add(x, residual)
    node.ctx = (mode, x, m, invstd)
    if _defers(node):
        return x  # the conv that reads x applies the BN (prologue_bn)
    return K.bn_normalize(x, m, invstd, gamma, beta, node.attrs["act"],
                          residual)


def _batch_stats(layer, x):
    """(mean, invstd) of x's batch in float64, for train-mode BN layer;
    folds them into the layer's running statistics."""
    m, v = K.bn_stats(x)
    invstd = 1.0 / np.sqrt(v + layer.eps)
    n = x.shape[0] * x.shape[2] * x.shape[3]
    unbiased = v * (n / (n - 1)) if n > 1 else v
    mom = layer.momentum
    layer.running_mean += mom * (m.astype(layer.running_mean.dtype)
                                 - layer.running_mean)
    layer.running_var += mom * (unbiased.astype(layer.running_var.dtype)
                                - layer.running_var)
    return m, invstd


def _invstd(layer):
    """Eval-mode 1 / sqrt(running_var + eps) of a BN layer, in float64."""
    return 1.0 / np.sqrt(layer.running_var.astype(np.float64) + layer.eps)


def _bn_operands(node):
    """(mode, x, mean, invstd) of a batchnorm node's last forward, with x
    the input its kernels normalize. For a BN folded into its conv, x is
    the unfolded conv output recomputed from the conv's inputs: for a
    dense conv a K.Blocks source that runs the forward's per-sample GEMM
    on the kept columns of each block it reads, for a depthwise conv
    (folded in eval mode only) an array."""
    mode, x, m, invstd = node.ctx
    if x is None:
        conv = node.inputs[0]
        cols = conv.ctx[0]
        w = conv.inputs[1].value
        if cols is None:
            x = _conv(conv, conv.inputs[0].value, w)
        else:
            w2, shape = w.reshape(len(w), -1), conv.value.shape
            x = K.Blocks(lambda s: np.matmul(w2, cols[s]).reshape(
                (-1,) + shape[1:]), shape, np.result_type(w2.dtype,
                                                          cols.dtype))
    return mode, x, m, invstd


def bn_input(node):
    """_bn_operands with x an array: a Blocks source is computed whole."""
    mode, x, m, invstd = _bn_operands(node)
    return mode, x[:] if isinstance(x, K.Blocks) else x, m, invstd


def _batchnorm_bwd(node, g):
    # relu reads its derivative from the kept output; the BN output before
    # act is not kept, and the kernel recomputes it from x for hswish. A
    # residual input's gradient is g itself. A BN that deferred to its conv
    # gets a K.FirstSweep from that conv's backward in place of g.
    mode, x, m, invstd = _bn_operands(node)
    gamma, beta = node.inputs[1].value, node.inputs[2].value
    bwd = K.bn_bwd_eval if mode == "eval" else K.bn_bwd_train
    if not isinstance(g, K.FirstSweep):
        g = np.ascontiguousarray(g)
    return [*bwd(x, node.value, g, m, invstd, gamma, beta,
                 node.attrs["act"]), *[g] * (len(node.inputs) - 3)]


register_op("batchnorm", _batchnorm_fwd, _batchnorm_bwd)


# ---------------------------------------------------------------------------
# pooling

def _pool_matrix(n_in, n_out):
    """[n_out, n_in] averaging matrix: row i averages inputs
    [floor(i*n_in/n_out), ceil((i+1)*n_in/n_out))."""
    i = np.arange(n_out)[:, None]
    j = np.arange(n_in)
    inside = (j >= i * n_in // n_out) & (j < -(-(i + 1) * n_in // n_out))
    return inside / inside.sum(axis=1, keepdims=True)


@functools.lru_cache(maxsize=64)
def _pool_operator(h, w, ho, wo, dtype):
    """Read-only P [ho*wo, h*w] averaging each output cell's window of the
    flat image, built once per shape: the pool is one GEMM per sample,
    x[i] [c, h*w] @ P.T."""
    p = np.kron(_pool_matrix(h, ho), _pool_matrix(w, wo)).astype(dtype)
    p.flags.writeable = False
    return p


def _adaptive_pool_fwd(node, xs):
    x = xs[0]
    ho, wo = node.attrs["out"]
    if x.ndim != 4:
        raise ShapeError("adaptive_avg_pool expects a 4-d input")
    b, c, h, w = x.shape
    if ho > h or wo > w:
        raise ShapeError(f"output {ho}x{wo} larger than input {h}x{w}")
    p = _pool_operator(h, w, ho, wo, x.dtype)
    node.ctx = p
    return np.matmul(x.reshape(b, c, h * w), p.T).reshape(b, c, ho, wo)


def _adaptive_pool_bwd(node, g):
    b, c, h, w = node.inputs[0].value.shape
    p = node.ctx
    # a global pool's gradient is g times P's one row: the GEMM's products
    # without its K=1 GEMM per sample
    dx = (np.multiply(g.reshape(b, c, 1), p) if len(p) == 1
          else np.matmul(g.reshape(b, c, -1), p))
    return [dx.reshape(b, c, h, w)]


register_op("adaptive_avg_pool", _adaptive_pool_fwd, _adaptive_pool_bwd)


def adaptive_avg_pool(x, out):
    """Average-pool [b,c,h,w] down to spatial size out=(h_out, w_out).

    Output cell (i,j) averages input rows [floor(i*h/h_out),
    ceil((i+1)*h/h_out)) and the analogous columns.
    """
    ho, wo = out
    return _node("adaptive_avg_pool", [x], {"out": (int(ho), int(wo))})


# ---------------------------------------------------------------------------
# dropout

def _dropout_fwd(node, xs):
    x = xs[0]
    layer = node.attrs["layer"]
    if not layer.training or layer.rate == 0.0:
        node.ctx = None
        return x
    keep = 1.0 - layer.rate
    mask = (layer.rng.random(x.shape) < keep).astype(x.dtype) / x.dtype.type(keep)
    node.ctx = mask
    return x * mask


def _dropout_bwd(node, g):
    return [g if node.ctx is None else g * node.ctx]


register_op("dropout", _dropout_fwd, _dropout_bwd)


# ---------------------------------------------------------------------------
# parameter initialisation

def kaiming_uniform(rng, shape, fan_in, dtype):
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


@dataclass
class ParamInfo:
    name: str
    node: Node
    weight_decay: bool = True


# ---------------------------------------------------------------------------
# layers

class Module:
    """Base of every layer, block and network: one walk over the tree.

    A module's children are the Module values among its attributes, found
    in attribute order and also inside lists and tuples at any depth. Its
    parameters are its Node attributes (named by the node) and its buffers
    its ndarray attributes (named "<module name>.<attribute>"). Order is
    depth first in attribute order, which fixes checkpoint manifests.
    """

    training = True
    weight_decay = True  # whether SGD decays this module's own parameters

    def modules(self):
        yield self
        yield from _submodules(vars(self).values())

    def parameters(self):
        return [ParamInfo(v.name, v, m.weight_decay) for m in self.modules()
                for v in vars(m).values() if isinstance(v, Node)]

    def buffers(self):
        return [(f"{m.name}.{k}", v) for m in self.modules()
                for k, v in vars(m).items() if isinstance(v, np.ndarray)]

    def train(self):
        for m in self.modules():
            m.training = True
        return self

    def eval(self):
        for m in self.modules():
            m.training = False
        return self

    @contextlib.contextmanager
    def evaluating(self):
        """Eval mode inside the with block; every module's earlier mode is
        restored after it, also on error."""
        modes = [(m, m.training) for m in self.modules()]
        self.eval()
        try:
            yield self
        finally:
            for m, training in modes:
                m.training = training

    def num_parameters(self):
        return int(sum(p.node.value.size for p in self.parameters()))

    def load_state(self, state):
        """Assign parameter and buffer arrays by name from a dict. A missing
        name raises KeyError and a wrong shape ShapeError."""
        for p in self.parameters():
            arr = state[p.name]
            if arr.shape != p.node.value.shape:
                raise ShapeError(
                    f"{p.name}: checkpoint shape {arr.shape} != model "
                    f"{p.node.value.shape}")
            p.node.value = arr.astype(p.node.value.dtype)
        for name, buf in self.buffers():
            arr = state[name]
            if arr.shape != buf.shape:
                raise ShapeError(f"{name}: buffer shape mismatch")
            buf[...] = arr


def _submodules(values):
    for v in values:
        if isinstance(v, Module):
            yield from v.modules()
        elif isinstance(v, (list, tuple)):
            yield from _submodules(v)


class Conv2d(Module):
    """Convolution layer owning its weight parameter; it has no bias. It is
    dense (groups 1) or depthwise (groups = cin = cout)."""

    def __init__(self, cin, cout, kernel, stride=1, padding=0, groups=1,
                 rng=None, dtype=np.float32, name="conv"):
        _check_groups(cin, cout, groups)
        rng = rng or np.random.default_rng(0)
        fan_in = (cin // groups) * kernel * kernel
        w = kaiming_uniform(rng, (cout, cin // groups, kernel, kernel), fan_in,
                            dtype)
        self.weight = ad.parameter(w, name=f"{name}.weight")
        self.stride, self.padding, self.groups = stride, padding, groups
        self.name = name

    def __call__(self, x, bn=None):
        return conv2d(x, self.weight, self.stride, self.padding, self.groups,
                      bn)


class BatchNorm2d(Module):
    """Per-channel batch normalization with running statistics, followed
    by act: None, "relu" or "hswish" (hard-swish), in the same op."""

    # weight decay conventionally skips BN affine parameters
    weight_decay = False

    def __init__(self, channels, eps=1e-5, momentum=0.1, dtype=np.float32,
                 name="bn", act=None):
        if act not in K.ACTIVATIONS:
            raise ValueError(f"{name}: activation must be one of "
                             f"{K.ACTIVATIONS}, not {act!r}")
        self.gamma = ad.parameter(np.ones(channels, dtype=dtype),
                                  name=f"{name}.gamma")
        self.beta = ad.parameter(np.zeros(channels, dtype=dtype),
                                 name=f"{name}.beta")
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self.eps = eps
        self.momentum = momentum
        self.name = name
        self.act = act

    def __call__(self, x, residual=None, defer=False):
        """The BN node of x; a residual node, for a BN without activation,
        is added to its output in the same walk. With defer, the node in
        train mode takes the batch statistics and returns x itself, and the
        one op that reads it must be a 1x1 conv at stride 1, which applies
        this BN and act (prologue_bn)."""
        if residual is not None and self.act is not None:
            raise ValueError(f"{self.name}: a residual joins a batch norm "
                             f"without activation only, not {self.act!r}")
        extra = [] if residual is None else [residual]
        return _node("batchnorm", [x, self.gamma, self.beta, *extra],
                     {"layer": self, "act": self.act, "defer": defer})


class Linear(Module):
    def __init__(self, cin, cout, rng=None, dtype=np.float32, name="linear"):
        rng = rng or np.random.default_rng(0)
        w = kaiming_uniform(rng, (cin, cout), cin, dtype)
        self.weight = ad.parameter(w, name=f"{name}.weight")
        self.bias = ad.parameter(np.zeros(cout, dtype=dtype),
                                 name=f"{name}.bias")

    def __call__(self, x):
        return ad.matmul(x, self.weight) + self.bias


class Dropout(Module):
    def __init__(self, rate, seed=0):
        self.rate = float(rate)
        self.rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(seed, spawn_key=(0xD0,))))

    def __call__(self, x):
        return _node("dropout", [x], {"layer": self})


# ---------------------------------------------------------------------------
# composite blocks

class ConvBnAct(Module):
    """conv -> BN -> optional activation, the workhorse sub-block. The
    activation runs inside the BN op; where the conv folds the BN
    (folded_bn), the conv op computes BN and activation in its own block
    walk. A residual and defer go to the BN (BatchNorm2d.__call__)."""

    def __init__(self, cin, cout, kernel, stride=1, padding=0, groups=1,
                 act="relu", rng=None, dtype=np.float32, name="cba"):
        self.conv = Conv2d(cin, cout, kernel, stride, padding, groups,
                           rng=rng, dtype=dtype, name=f"{name}.conv")
        self.bn = BatchNorm2d(cout, dtype=dtype, name=f"{name}.bn", act=act)

    def __call__(self, x, residual=None, defer=False):
        return self.bn(self.conv(x, self.bn), residual, defer)


class InvertedResidual(Module):
    """expand 1x1 -> depthwise 3x3 -> linear project 1x1, with residual
    when stride is 1 and channel counts match; the project BN adds the
    residual, so no separate add node keeps the BN's output. In train
    mode the project conv applies the depthwise BN to its input
    (prologue_bn), unless it widens and so folds its own BN (folded_bn),
    whose backward would rebuild the depthwise BN in each of its sweeps."""

    def __init__(self, cin, expand, cout, stride=1, act="relu", rng=None,
                 dtype=np.float32, name="block"):
        self.expand = ConvBnAct(cin, expand, 1, act=act, rng=rng, dtype=dtype,
                                name=f"{name}.expand")
        self.depthwise = ConvBnAct(expand, expand, 3, stride=stride,
                                   padding=1, groups=expand, act=act,
                                   rng=rng, dtype=dtype, name=f"{name}.depthwise")
        self.project = ConvBnAct(expand, cout, 1, act=None, rng=rng,
                                 dtype=dtype, name=f"{name}.project")
        self.use_residual = (stride == 1 and cin == cout)
        self.cout, self.stride = cout, stride
        self.defer = cout <= expand

    def __call__(self, x):
        return self.project(self.depthwise(self.expand(x), defer=self.defer),
                            x if self.use_residual else None)


class SkipBlock(InvertedResidual):
    """Carries early features to a deeper insertion point.

    The 3x3 relu inverted-residual branch (1x1 expand, 3x3 depthwise,
    linear 1x1 projection) over the input average-pooled down to size, the
    destination's spatial size, which each call passes. It never adds a
    residual: its output is added to the destination's input instead.
    """

    def __init__(self, cin, expand, cout, rng=None, dtype=np.float32,
                 name="skip"):
        super().__init__(cin, expand, cout, rng=rng, dtype=dtype, name=name)
        self.use_residual = False

    def __call__(self, x, size):
        return super().__call__(adaptive_avg_pool(x, size))


# ---------------------------------------------------------------------------
# the compact network

MAX_WIDTH_MULTIPLIER = 16.0


def scale_channels(c, multiplier):
    """Round c * multiplier to the nearest multiple of 4 (half rounds up),
    never below 4."""
    scaled = int(np.floor(c * multiplier / 4.0 + 0.5)) * 4
    return max(scaled, 4)


@dataclass
class MicroNetSpec:
    """Construction plan for the desk-scale skip-block network.

    Stages are (expand_channels, out_channels, stride, activation) before
    width scaling. Skip insertions are (source, destination) indices into
    the unit list where index 0 is the stem and 1..len(stages) are the
    inverted residual blocks; the skip block's output is added element-wise
    to the destination unit's input. The stem and every depthwise conv are
    3x3 with padding 1, and a skip block expands its source's channels
    x2 (at least 4).
    """

    in_channels: int = 1
    num_classes: int = 10
    width_multiplier: float = 1.0
    stem_channels: int = 8
    stages: tuple = ((16, 8, 1, "relu"), (24, 12, 2, "relu"),
                     (36, 12, 1, "relu"), (48, 24, 2, "hswish"),
                     (72, 24, 1, "hswish"))
    skip_insertions: tuple = ((0, 5),)
    head_channels: int = 64
    dropout: float = 0.2

    def __post_init__(self):
        # the comparisons also reject NaN; at the top width the widest
        # layer has 72 * 16 = 1152 channels
        if not 0.0 < self.width_multiplier <= MAX_WIDTH_MULTIPLIER:
            raise ValueError(f"width_multiplier must be in (0, "
                             f"{MAX_WIDTH_MULTIPLIER:g}], got "
                             f"{self.width_multiplier}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        n_units = 1 + len(self.stages)
        for src, dst in self.skip_insertions:
            if not 0 <= src < dst < n_units:
                raise ValueError(
                    f"skip_insertions ({src},{dst}) must satisfy "
                    f"0 <= src < dst < {n_units}")


@dataclass
class BuildOutput:
    """Handles into one built graph of the network."""
    input: Node
    logits: Node
    feature_map: Node  # last conv activation, pre-pooling and pre-dropout
    probes: dict = field(default_factory=dict)


def infer(model, images, select, reduce=None):
    """The inference pass of images on the sample walk
    (_kernels.map_samples): each slice of the batch gets a graph out of its
    own, built for this call, which runs ForwardPass(keep=select(out)) and
    returns the kept values, each mapped through reduce when given; each is
    joined over the slices in slice order. Since the pass frees every value
    it does not keep, a graph kept across calls would save only its build,
    0.08-0.14 ms against 21-38 ms for a batch-128 pass."""
    def run(out):
        keep = select(out)
        fp = ad.ForwardPass(keep=keep)
        return [fp.run(n) if reduce is None else reduce(fp.run(n))
                for n in keep]

    outs = [model.build(ad.leaf(np.ascontiguousarray(images[s]),
                                name="input"))
            for s in K.sample_slices(len(images))]
    return [np.concatenate(parts) for parts in zip(*K.map_samples(run, outs))]


class SkipblockNetMicro(Module):
    """Compact inverted-residual classifier with a skip block.

    Stem 3x3 conv (hard-swish), five inverted residual blocks, a skip block
    feeding early features forward, a 1x1 head conv whose activation is the
    designated feature map for the variance-weighted loss, then global
    average pooling, dropout and a linear classifier.
    """

    def __init__(self, spec: MicroNetSpec = None, seed=0, dtype=np.float32):
        self.spec = spec or MicroNetSpec()
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(seed, spawn_key=(0x1,))))
        s = self.spec
        m = s.width_multiplier
        stem_c = scale_channels(s.stem_channels, m)
        self.stem = ConvBnAct(s.in_channels, stem_c, 3, stride=1, padding=1,
                              act="hswish", rng=rng, dtype=dtype, name="stem")
        self.blocks = []
        channels = [stem_c]   # channels at each unit's output
        for bi, (expand, cout, stride, act) in enumerate(s.stages, start=1):
            e, c = scale_channels(expand, m), scale_channels(cout, m)
            self.blocks.append(InvertedResidual(
                channels[-1], e, c, stride=stride, act=act, rng=rng,
                dtype=dtype, name=f"block{bi}"))
            channels.append(c)
        self.skips = []
        for src, dst in s.skip_insertions:
            expand = max(4, 2 * channels[src])
            self.skips.append((src, dst, SkipBlock(
                channels[src], expand, channels[dst - 1], rng=rng,
                dtype=dtype, name=f"skip{src}_{dst}")))
        head_c = scale_channels(s.head_channels, m)
        self.head = ConvBnAct(channels[-1], head_c, 1, act="hswish", rng=rng,
                              dtype=dtype, name="head")
        self.head_dropout = Dropout(s.dropout, seed=seed)
        self.classifier = Linear(head_c, s.num_classes, rng=rng, dtype=dtype,
                                 name="classifier")
        self.head_channels = head_c

    def build(self, x: Node) -> BuildOutput:
        """Wire one graph from an input leaf to logits.

        Spatial sizes are resolved lazily: the caller's leaf must already
        hold a value (shapes fix the skip blocks' pooling targets).
        """
        if x.value is None:
            raise ad.UninitializedValueError(
                "input leaf needs a value so spatial sizes are known")
        size = x.value.shape[2:]  # spatial size of the next block's input
        cur = self.stem(x)
        outs, probes = [cur], {"stem": cur}
        for bi, blk in enumerate(self.blocks, start=1):
            for src, dst, skip in self.skips:
                if dst == bi:
                    probes[f"skip{src}_{bi}"] = sk = skip(outs[src], size)
                    cur = ad.add(cur, sk)
            cur = blk(cur)
            outs.append(cur)
            probes[f"block{bi}"] = cur
            size = tuple(-(-n // blk.stride) for n in size)
        feat = self.head(cur)
        probes["head"] = feat
        pooled = ad.reshape(adaptive_avg_pool(feat, (1, 1)),
                            (-1, self.head_channels))
        logits = self.classifier(self.head_dropout(pooled))
        return BuildOutput(input=x, logits=logits, feature_map=feat,
                           probes=probes)

    def probe_names(self):
        return (["stem"] + [f"block{i}" for i in range(1, len(self.blocks) + 1)]
                + [f"skip{src}_{dst}" for src, dst, _ in self.skips] + ["head"])
