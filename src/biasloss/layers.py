"""CNN building blocks on top of the autodiff engine.

Convolution has two paths, both walked in blocks of the batch by the
kernels of _kernels. Depthwise conv is one banded GEMM per (sample,
channel) and kernel row on the unpadded input; the padding lives in the
band, so no padded copy is made. Every other conv (1x1, the stem, grouped
convs) is one GEMM per sample and group on im2col columns, W[g]
[cout/g, cin/g*kh*kw] @ cols[i, g] [cin/g*kh*kw, oh*ow]. For a 1x1 kernel
at stride 1 the columns are the NCHW activation itself, with no layout
copy. Adaptive average pooling is one GEMM per sample against an
averaging matrix built once per shape. Each of these GEMMs is small
enough that OpenBLAS runs it on the calling thread; a multithreaded BLAS
call would leave OpenBLAS's worker spinning between calls on a core the
kernel pool needs. Weight gradients sum the per-sample partials in
float64. A conv whose input needs no gradient (the stem's images) skips
its dx. Convs have no bias: the BN after each one carries the shift.

Batch normalization and the activation after it (relu or hard-swish) are
one "batchnorm" op with an act attribute, so a conv -> BN -> act unit adds
two graph nodes, not three. In train mode the op keeps the conv output in
its ctx and the activation output as its value; the backward recomputes
the BN output from the conv output instead of storing it.

In eval mode the conv node of a ConvBnAct, which holds its BatchNorm2d,
folds the BN into itself: it computes act(conv(x, w * s) + t) with
s = gamma * invstd and t = beta - running_mean * s, taken in float64 from
the current parameters and running statistics on every forward, and the
kernels add t and apply act to each block right after its GEMMs. The BN
node then returns its input unchanged, so the graph keeps the same two
nodes in both modes. An eval-mode backward recomputes the unfolded conv
output and runs the BN's eval backward on it, then the conv's own
backward. A BatchNorm2d used on its own still normalizes.

Layer objects own their parameter nodes; calling a layer on an input node
extends the graph, so one set of weights can back several graphs (e.g.
different batch sizes). GraphCache keeps one such graph per batch size,
and one per slice of the sample walk.
Every layer, block and the network derive from Module, which walks the
attribute tree once for all of them: parameters, BN buffers, train/eval
mode, loading a checkpoint's state and counting parameters.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import autodiff as ad
from . import _kernels as K
from .autodiff import Node, ShapeError, register_op, _node


# ---------------------------------------------------------------------------
# convolution

def _conv2d_fwd(node, xs):
    x, w = xs
    stride = node.attrs["stride"]
    pad = node.attrs["padding"]
    groups = node.attrs["groups"]
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError("conv2d expects 4-d input and weight")
    b, cin, h, wd = x.shape
    cout, cin_g, kh, kw = w.shape
    if cin % groups or cout % groups or cin_g != cin // groups:
        raise ShapeError(
            f"channel/group mismatch: cin={cin} cout={cout} groups={groups} "
            f"weight cin/g={cin_g}")
    oh = K.conv_out_size(h, kh, stride, pad)
    ow = K.conv_out_size(wd, kw, stride, pad)
    if oh < 1 or ow < 1:
        raise ShapeError("kernel larger than padded input")

    if groups == cin and cout == cin:
        node.ctx = None  # depthwise: the kernels read x itself
    else:
        # a block-diagonal stack of dense convs, one GEMM per (sample,
        # group): [groups, cout/g, cin/g*kh*kw] @ [b, groups, cin/g*kh*kw,
        # oh*ow]
        node.ctx = _im2col(x, kh, kw, stride, pad).reshape(b, groups, -1,
                                                           oh * ow)
    bn = node.attrs.get("bn")
    if bn is None or bn.training:
        return _conv(node, x, w)
    w, shift = _fold(bn, w)
    return _conv(node, x, w, shift, bn.act)


def _conv(node, x, w, shift=None, act=None):
    """act(conv(x, w) + shift) for conv node's geometry, with shift per
    output channel (None adds nothing); the kernels apply shift and act to
    each block of the batch right after its GEMMs. A dense conv reads its
    columns from node.ctx."""
    stride, pad = node.attrs["stride"], node.attrs["padding"]
    if node.ctx is None:
        return K.dw_conv_fwd(np.ascontiguousarray(x), w[:, 0], stride, pad,
                             shift, act)
    b, _, h, wd = x.shape
    cout, _, kh, kw = w.shape
    groups = node.attrs["groups"]
    out = K.gemm_conv_fwd(w.reshape(groups, cout // groups, -1), node.ctx,
                          shift, act)
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
    """[b, c*kh*kw, oh*ow] input windows, one column per output position.
    For a 1x1 kernel at stride 1 without padding this is a view of x."""
    b, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
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
    groups = node.attrs["groups"]
    b, cout, oh, ow = g.shape
    cols = node.ctx
    if cols is None:
        dx, dw = K.dw_conv_bwd(np.ascontiguousarray(x), w[:, 0],
                               np.ascontiguousarray(g), stride, pad)
    else:
        gm = g.reshape(b, groups, cout // groups, oh * ow)
        # per-sample weight-gradient partials, summed over the batch in f64
        dw = np.add.reduce(np.matmul(gm, cols.swapaxes(2, 3)), axis=0,
                           dtype=np.float64).astype(w.dtype)
        dx = None  # an input without gradient, like the stem's images
        if node.inputs[0].requires_grad:
            dcol = np.matmul(
                w.reshape(groups, cout // groups, -1).swapaxes(1, 2), gm)
            dx = _col2im(dcol, x.shape, w.shape[2], w.shape[3], stride, pad)
    return [dx, dw.reshape(w.shape)]


register_op("conv2d", _conv2d_fwd, _conv2d_bwd)


def conv2d(x, weight, stride=1, padding=0, groups=1, bn=None):
    """Cross-correlation of [b,cin,h,w] with [cout,cin/groups,kh,kw].

    With bn, the BatchNorm2d applied to this conv's output, the conv
    computes that BN and its activation itself whenever bn is in eval mode;
    the BN's own node then passes the result through.
    """
    return _node("conv2d", [x, weight],
                 {"stride": int(stride), "padding": int(padding),
                  "groups": int(groups), "bn": bn})


# ---------------------------------------------------------------------------
# batch normalization

def _batchnorm_fwd(node, xs):
    x, gamma, beta = xs
    layer = node.attrs["layer"]
    if x.ndim != 4:
        raise ShapeError("batchnorm expects a 4-d input")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"per-channel parameters must have length {c}")
    eps = layer.eps
    x = np.ascontiguousarray(x)
    if layer.training:
        m, v = K.bn_stats(x)
        invstd = 1.0 / np.sqrt(v + eps)
        n = x.shape[0] * x.shape[2] * x.shape[3]
        unbiased = v * (n / (n - 1)) if n > 1 else v
        mom = layer.momentum
        layer.running_mean += mom * (m.astype(layer.running_mean.dtype)
                                     - layer.running_mean)
        layer.running_var += mom * (unbiased.astype(layer.running_var.dtype)
                                    - layer.running_var)
        node.ctx = ("train", x, m, invstd)
    else:
        m = layer.running_mean.astype(np.float64)
        invstd = _invstd(layer)
        if node.inputs[0].attrs.get("bn") is layer:
            # the conv before this node applied the BN and act already
            node.ctx = ("eval", None, m, invstd)
            return x
        node.ctx = ("eval", x, m, invstd)
    return K.bn_normalize(x, m, invstd, gamma, beta, node.attrs["act"])


def _invstd(layer):
    """Eval-mode 1 / sqrt(running_var + eps) of a BN layer, in float64."""
    return 1.0 / np.sqrt(layer.running_var.astype(np.float64) + layer.eps)


def bn_input(node):
    """(mode, x, mean, invstd) of a batchnorm node's last forward, with x
    the input its kernels normalize. For a BN folded into its conv, x is
    the unfolded conv output, recomputed from the conv's inputs."""
    mode, x, m, invstd = node.ctx
    if x is None:
        conv = node.inputs[0]
        x = _conv(conv, conv.inputs[0].value, conv.inputs[1].value)
    return mode, x, m, invstd


def _batchnorm_bwd(node, g):
    # the BN output before act is not kept; the kernel recomputes it from x
    mode, x, m, invstd = bn_input(node)
    bwd = K.bn_bwd_train if mode == "train" else K.bn_bwd_eval
    gamma, beta = node.inputs[1].value, node.inputs[2].value
    return list(bwd(x, np.ascontiguousarray(g), m, invstd, gamma, beta,
                    node.attrs["act"]))


register_op("batchnorm", _batchnorm_fwd, _batchnorm_bwd)

# activations the batchnorm op can apply to its output
ACTIVATIONS = K.ACTIVATIONS


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
    return [np.matmul(g.reshape(b, c, -1), node.ctx).reshape(b, c, h, w)]


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
    """Convolution layer owning its weight parameter; it has no bias."""

    def __init__(self, cin, cout, kernel, stride=1, padding=0, groups=1,
                 rng=None, dtype=np.float32, name="conv"):
        kh, kw = (kernel, kernel) if isinstance(kernel, int) else kernel
        if cin % groups or cout % groups:
            raise ShapeError("in/out channels must be divisible by groups")
        rng = rng or np.random.default_rng(0)
        fan_in = (cin // groups) * kh * kw
        w = kaiming_uniform(rng, (cout, cin // groups, kh, kw), fan_in, dtype)
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
        if act not in ACTIVATIONS:
            raise ValueError(f"{name}: activation must be one of "
                             f"{ACTIVATIONS}, not {act!r}")
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

    def __call__(self, x):
        return _node("batchnorm", [x, self.gamma, self.beta],
                     {"layer": self, "act": self.act})


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
    activation runs inside the BN op in train mode; in eval mode the conv
    op computes BN and activation in its own block walk."""

    def __init__(self, cin, cout, kernel, stride=1, padding=0, groups=1,
                 act="relu", rng=None, dtype=np.float32, name="cba"):
        self.conv = Conv2d(cin, cout, kernel, stride, padding, groups,
                           rng=rng, dtype=dtype, name=f"{name}.conv")
        self.bn = BatchNorm2d(cout, dtype=dtype, name=f"{name}.bn", act=act)

    def __call__(self, x):
        return self.bn(self.conv(x, self.bn))


class InvertedResidual(Module):
    """expand 1x1 -> depthwise kxk -> linear project 1x1, with residual
    when stride is 1 and channel counts match."""

    def __init__(self, cin, expand, cout, stride=1, kernel=3, act="relu",
                 rng=None, dtype=np.float32, name="block"):
        pad = kernel // 2
        self.expand = ConvBnAct(cin, expand, 1, act=act, rng=rng, dtype=dtype,
                                name=f"{name}.expand")
        self.depthwise = ConvBnAct(expand, expand, kernel, stride=stride,
                                   padding=pad, groups=expand, act=act,
                                   rng=rng, dtype=dtype, name=f"{name}.depthwise")
        self.project = ConvBnAct(expand, cout, 1, act=None, rng=rng,
                                 dtype=dtype, name=f"{name}.project")
        self.use_residual = (stride == 1 and cin == cout)
        self.cout, self.stride = cout, stride

    def __call__(self, x):
        y = self.project(self.depthwise(self.expand(x)))
        return ad.add(x, y) if self.use_residual else y


class SkipBlock(InvertedResidual):
    """Carries early features to a deeper insertion point.

    The 3x3 relu inverted-residual branch (1x1 expand, 3x3 depthwise,
    linear 1x1 projection) over the input average-pooled down to
    target_spatial, the destination's spatial size, which the network's
    build sets. It never adds a residual: its output is added to the
    destination's input instead.
    """

    def __init__(self, cin, expand, cout, target_spatial=None, rng=None,
                 dtype=np.float32, name="skip"):
        super().__init__(cin, expand, cout, rng=rng, dtype=dtype, name=name)
        self.use_residual = False
        self.target_spatial = target_spatial

    def __call__(self, x):
        return super().__call__(adaptive_avg_pool(x, self.target_spatial))


# ---------------------------------------------------------------------------
# the compact network

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
    to the destination unit's input.
    """

    in_channels: int = 1
    num_classes: int = 10
    width_multiplier: float = 1.0
    stem_channels: int = 8
    stages: tuple = ((16, 8, 1, "relu"), (24, 12, 2, "relu"),
                     (36, 12, 1, "relu"), (48, 24, 2, "hswish"),
                     (72, 24, 1, "hswish"))
    skip_insertions: tuple = ((0, 5),)
    skip_expand_ratio: int = 2
    head_channels: int = 64
    dropout: float = 0.2
    kernel: int = 3

    def validate(self):
        n_units = 1 + len(self.stages)
        for src, dst in self.skip_insertions:
            if not (0 <= src < dst < n_units):
                raise ValueError(
                    f"skip insertion ({src},{dst}) must satisfy "
                    f"0 <= src < dst < {n_units}")
        if self.width_multiplier <= 0:
            raise ValueError("width multiplier must be positive")


@dataclass
class BuildOutput:
    """Handles into one built graph of the network."""
    input: Node
    logits: Node
    feature_map: Node  # last conv activation, pre-pooling and pre-dropout
    probes: dict = field(default_factory=dict)


class GraphCache:
    """One built graph per batch size, sharing the model's parameters, and
    one per slice for the sample walk.

    The cache is not there for build time (about 0.17 ms for the default
    model's 113 nodes at batch 128). A kept graph's forward replaces the
    previous batch's node values one at a time, so the memory they free
    is reused at once. Building a graph per batch (1024-image train epoch
    plus 256 val images, 2 vCPUs) raised minor page faults from about 35k
    to 215k and cut train throughput from 520-547 to 471-521 samples/s
    and val throughput from 2337-2861 to 1754-2040.

    train_run's steps run retaining passes on get()'s graph, which a
    backward needs. Every eval-mode read (train_run's val pass, evaluate
    and profile) builds a cache of its own per call and runs inference
    passes on the sample walk through walk(); a retaining pass there would
    fault in a whole graph of values (about 65 MB traced at batch 128) on
    every call: with evaluate and profile alternating as the benchmark
    calls them, a steady profile call (batch 256) took 2.4-2.8k minor
    faults instead of 13.2-14.3k, and an evaluate call (batch 128)
    1.5-3.8k instead of 13.0-13.5k.

    walk() gives each slice of the batch a graph of its own, keyed by the
    slice's position and size, since a graph instance is single-threaded.
    The graphs are built here, on the calling thread, because the
    network's build writes the skip blocks' pooling targets.
    """

    def __init__(self, model):
        self.model = model
        self._built = {}

    def get(self, images, slot=0):
        """The graph for images' batch size (and slot), holding images."""
        key = (images.shape[0], slot)
        out = self._built.get(key)
        if out is None:
            x = ad.leaf(np.ascontiguousarray(images),
                        name=f"input[{images.shape[0]}]")
            out = self.model.build(x)
            self._built[key] = out
        else:
            out.input.set(np.ascontiguousarray(images))
        return out

    def walk(self, images, fn):
        """fn(out) on the sample walk (_kernels.map_samples), out being the
        graph of one slice of images; fn returns a sequence of arrays, and
        each is joined over the slices in slice order."""
        outs = [self.get(images[s], slot)
                for slot, s in enumerate(K.sample_slices(len(images)))]
        return [np.concatenate(parts)
                for parts in zip(*K.map_samples(fn, outs))]


class SkipblockNetMicro(Module):
    """Compact inverted-residual classifier with a skip block.

    Stem 3x3 conv (hard-swish), five inverted residual blocks, a skip block
    feeding early features forward, a 1x1 head conv whose activation is the
    designated feature map for the variance-weighted loss, then global
    average pooling, dropout and a linear classifier.
    """

    def __init__(self, spec: MicroNetSpec = None, seed=0, dtype=np.float32):
        self.spec = spec or MicroNetSpec()
        self.spec.validate()
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(seed, spawn_key=(0x1,))))
        s = self.spec
        m = s.width_multiplier
        stem_c = scale_channels(s.stem_channels, m)
        self.stem = ConvBnAct(s.in_channels, stem_c, s.kernel, stride=1,
                              padding=s.kernel // 2, act="hswish", rng=rng,
                              dtype=dtype, name="stem")
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
            expand = max(4, s.skip_expand_ratio * channels[src])
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
                    skip.target_spatial = size
                    probes[f"skip{src}_{bi}"] = sk = skip(outs[src])
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
