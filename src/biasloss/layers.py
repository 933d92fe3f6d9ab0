"""CNN building blocks on top of the autodiff engine.

Convolution has three paths. 1x1 and depthwise kernels carry almost all
the work in the compact networks built here. A 1x1 conv is one GEMM per
sample on the NCHW activation, W [cout, cin] @ x[i] [cin, h*w], with no
layout copy. Depthwise conv runs in the blocked kernels of _kernels, as
one banded GEMM per (sample, channel) and kernel row on the unpadded
input; the padding lives in the band, so no padded copy is made. Every
other conv (the stem, grouped convs) is the same per-sample GEMM on im2col
columns [cin*kh*kw, oh*ow]. Each of these GEMMs is small enough that
OpenBLAS runs it on the calling thread; a multithreaded BLAS call would
leave OpenBLAS's worker spinning between calls on a core the kernel pool
needs. Weight gradients sum the per-sample partials in float64.

Batch normalization and the activation after it (relu or hard-swish) are
one "batchnorm" op with an act attribute, so a conv -> BN -> act unit adds
two graph nodes, not three. The op keeps the conv output in its ctx and
the activation output as its value; the backward recomputes the BN output
from the conv output instead of storing it.

Layer objects own their parameter nodes; calling a layer on an input node
extends the graph, so one set of weights can back several graphs (e.g.
different batch sizes). GraphCache keeps one such graph per batch size.
Every layer, block and the network derive from Module, which walks the
attribute tree once for all of them: parameters, BN buffers, train/eval
mode, loading a checkpoint's state and counting parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import autodiff as ad
from . import _kernels as K
from .autodiff import Node, ShapeError, register_op, _node


# ---------------------------------------------------------------------------
# convolution

def _conv2d_fwd(node, xs):
    x, w = xs[0], xs[1]
    bias = xs[2] if len(xs) == 3 else None
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

    if kh == 1 and kw == 1 and groups == 1:
        xs_ = x[:, :, ::stride, ::stride] if stride > 1 else x
        xm = xs_.reshape(b, cin, oh * ow)
        out = np.matmul(w.reshape(cout, cin), xm)
        node.ctx = ("1x1", xm)
    elif groups == cin and cout == cin:
        out = K.dw_conv_fwd(np.ascontiguousarray(x), w[:, 0], stride, pad)
        node.ctx = ("dw",)
    else:
        # grouped general case: block-diagonal stack of dense convs
        cout_g = cout // groups
        cols = [_im2col(x[:, gi * cin_g:(gi + 1) * cin_g], kh, kw, stride, pad)
                for gi in range(groups)]
        out = np.concatenate(
            [np.matmul(w[gi * cout_g:(gi + 1) * cout_g].reshape(cout_g, -1),
                       col) for gi, col in enumerate(cols)], axis=1)
        node.ctx = ("grouped", cols)
    out = out.reshape(b, cout, oh, ow)
    if bias is not None:
        out = out + bias.reshape(1, cout, 1, 1)
    return np.ascontiguousarray(out)


def _im2col(x, kh, kw, stride, pad):
    """[b, c*kh*kw, oh*ow] input windows, one column per output position."""
    b, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    # win: [b, c, oh, ow, kh, kw] -> [b, c, kh, kw, oh, ow]
    oh, ow = win.shape[2], win.shape[3]
    return np.ascontiguousarray(win.transpose(0, 1, 4, 5, 2, 3)).reshape(
        b, c * kh * kw, oh * ow)


def _weight_grad(g, cols):
    """Sum over the batch of g[i] @ cols[i].T, the per-sample partials
    accumulated in float64."""
    return np.add.reduce(np.matmul(g, cols.transpose(0, 2, 1)), axis=0,
                         dtype=np.float64)


def _col_accumulate(dcol, x_shape, kh, kw, stride, pad):
    """Scatter-add column gradients [b,c,kh,kw,oh,ow] back onto the input."""
    b, c, h, w = x_shape
    hp, wp = h + 2 * pad, w + 2 * pad
    dx = np.zeros((b, c, hp, wp), dtype=dcol.dtype)
    oh, ow = dcol.shape[4], dcol.shape[5]
    for ki in range(kh):
        for kj in range(kw):
            dx[:, :, ki:ki + stride * oh:stride,
               kj:kj + stride * ow:stride] += dcol[:, :, ki, kj]
    if pad:
        dx = dx[:, :, pad:pad + h, pad:pad + w]
    return dx


def _conv2d_bwd(node, g):
    x = node.inputs[0].value
    w = node.inputs[1].value
    has_bias = len(node.inputs) == 3
    stride = node.attrs["stride"]
    pad = node.attrs["padding"]
    groups = node.attrs["groups"]
    b, cin, h, wd = x.shape
    cout, cin_g, kh, kw = w.shape
    oh, ow = g.shape[2], g.shape[3]
    kind = node.ctx[0]

    if kind == "1x1":
        _, xm = node.ctx
        gm = g.reshape(b, cout, oh * ow)
        dw = _weight_grad(gm, xm).astype(w.dtype).reshape(w.shape)
        dxm = np.matmul(w.reshape(cout, cin).T, gm)
        if stride > 1:
            dx = np.zeros_like(x)
            dx[:, :, ::stride, ::stride] = dxm.reshape(b, cin, oh, ow)
        else:
            dx = dxm.reshape(x.shape)
    elif kind == "dw":
        dx, dw2 = K.dw_conv_bwd(np.ascontiguousarray(x), w[:, 0],
                                np.ascontiguousarray(g), stride, pad)
        dw = dw2.reshape(w.shape)
    else:
        _, cols = node.ctx
        gm = g.reshape(b, cout, oh * ow)
        cout_g = cout // groups
        dx = np.zeros_like(x)
        dw = np.zeros_like(w)
        for gi, col in enumerate(cols):
            gg = gm[:, gi * cout_g:(gi + 1) * cout_g]
            wg = w[gi * cout_g:(gi + 1) * cout_g].reshape(cout_g, -1)
            dw[gi * cout_g:(gi + 1) * cout_g] = _weight_grad(gg, col).reshape(
                cout_g, cin_g, kh, kw)
            dcol = np.matmul(wg.T, gg).reshape(b, cin_g, kh, kw, oh, ow)
            dx[:, gi * cin_g:(gi + 1) * cin_g] = _col_accumulate(
                dcol, (b, cin_g, h, wd), kh, kw, stride, pad)
    grads = [dx, dw]
    if has_bias:
        grads.append(g.sum(axis=(0, 2, 3)))
    return grads


register_op("conv2d", _conv2d_fwd, _conv2d_bwd)


def conv2d(x, weight, bias=None, stride=1, padding=0, groups=1):
    """Cross-correlation of [b,cin,h,w] with [cout,cin/groups,kh,kw]."""
    inputs = [x, weight] if bias is None else [x, weight, bias]
    return _node("conv2d", inputs,
                 {"stride": int(stride), "padding": int(padding),
                  "groups": int(groups)})


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
        invstd = 1.0 / np.sqrt(layer.running_var.astype(np.float64) + eps)
        node.ctx = ("eval", x, m, invstd)
    return K.bn_normalize(x, m, invstd, gamma, beta, node.attrs["act"])


def _batchnorm_bwd(node, g):
    # the BN output before act is not kept; the kernel recomputes it from x
    mode, x, m, invstd = node.ctx
    bwd = K.bn_bwd_train if mode == "train" else K.bn_bwd_eval
    gamma, beta = node.inputs[1].value, node.inputs[2].value
    return list(bwd(x, np.ascontiguousarray(g), m, invstd, gamma, beta,
                    node.attrs["act"]))


register_op("batchnorm", _batchnorm_fwd, _batchnorm_bwd)

# activations the batchnorm op can apply to its output
ACTIVATIONS = K.ACTIVATIONS


# ---------------------------------------------------------------------------
# pooling

def _pool_windows(n_in, n_out):
    starts = [(i * n_in) // n_out for i in range(n_out)]
    stops = [-(-((i + 1) * n_in) // n_out) for i in range(n_out)]
    return starts, stops


def _adaptive_pool_fwd(node, xs):
    x = xs[0]
    ho, wo = node.attrs["out"]
    if x.ndim != 4:
        raise ShapeError("adaptive_avg_pool expects a 4-d input")
    b, c, h, w = x.shape
    if ho > h or wo > w:
        raise ShapeError(f"output {ho}x{wo} larger than input {h}x{w}")
    if h % ho == 0 and w % wo == 0:
        kh, kw = h // ho, w // wo
        out = x.reshape(b, c, ho, kh, wo, kw).mean(axis=(3, 5))
        node.ctx = ("even", kh, kw)
        return out
    rs, re = _pool_windows(h, ho)
    cs, ce = _pool_windows(w, wo)
    out = np.empty((b, c, ho, wo), dtype=x.dtype)
    for i in range(ho):
        for j in range(wo):
            out[:, :, i, j] = x[:, :, rs[i]:re[i], cs[j]:ce[j]].mean(axis=(2, 3))
    node.ctx = ("uneven", rs, re, cs, ce)
    return out


def _adaptive_pool_bwd(node, g):
    x = node.inputs[0].value
    b, c, h, w = x.shape
    if node.ctx[0] == "even":
        _, kh, kw = node.ctx
        gx = np.repeat(np.repeat(g, kh, axis=2), kw, axis=3) / x.dtype.type(kh * kw)
        return [gx]
    _, rs, re, cs, ce = node.ctx
    gx = np.zeros_like(x)
    for i in range(len(rs)):
        for j in range(len(cs)):
            area = (re[i] - rs[i]) * (ce[j] - cs[j])
            gx[:, :, rs[i]:re[i], cs[j]:ce[j]] += (
                g[:, :, i:i + 1, j:j + 1] / x.dtype.type(area))
    return [gx]


register_op("adaptive_avg_pool", _adaptive_pool_fwd, _adaptive_pool_bwd)


def adaptive_avg_pool(x, out):
    """Average-pool [b,c,h,w] down to spatial size out=(h_out, w_out).

    Output cell (i,j) averages input rows [floor(i*h/h_out),
    ceil((i+1)*h/h_out)) and the analogous columns.
    """
    ho, wo = out
    return _node("adaptive_avg_pool", [x], {"out": (int(ho), int(wo))})


def global_avg_pool(x):
    return adaptive_avg_pool(x, (1, 1))


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
    """Convolution layer owning weight (and optional bias) parameters."""

    def __init__(self, cin, cout, kernel, stride=1, padding=0, groups=1,
                 bias=False, rng=None, dtype=np.float32, name="conv"):
        kh, kw = (kernel, kernel) if isinstance(kernel, int) else kernel
        if cin % groups or cout % groups:
            raise ShapeError("in/out channels must be divisible by groups")
        rng = rng or np.random.default_rng(0)
        fan_in = (cin // groups) * kh * kw
        w = kaiming_uniform(rng, (cout, cin // groups, kh, kw), fan_in, dtype)
        self.weight = ad.parameter(w, name=f"{name}.weight")
        self.bias = None
        if bias:
            self.bias = ad.parameter(np.zeros(cout, dtype=dtype),
                                     name=f"{name}.bias")
        self.stride, self.padding, self.groups = stride, padding, groups
        self.name = name

    def __call__(self, x):
        return conv2d(x, self.weight, self.bias, self.stride, self.padding,
                      self.groups)


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
    activation runs inside the BN op."""

    def __init__(self, cin, cout, kernel, stride=1, padding=0, groups=1,
                 act="relu", rng=None, dtype=np.float32, name="cba"):
        self.conv = Conv2d(cin, cout, kernel, stride, padding, groups,
                           bias=False, rng=rng, dtype=dtype, name=f"{name}.conv")
        self.bn = BatchNorm2d(cout, dtype=dtype, name=f"{name}.bn", act=act)

    def __call__(self, x):
        return self.bn(self.conv(x))


class SkipBlock(Module):
    """Carries early features to a deeper insertion point.

    Adaptive average pooling down to the destination's spatial size, then a
    1x1 expand (BN+ReLU), a 3x3 depthwise (BN+ReLU) and a linear 1x1
    projection (BN, no activation).
    """

    def __init__(self, cin, expand, cout, target_spatial, rng=None,
                 dtype=np.float32, name="skip"):
        self.target_spatial = tuple(int(s) for s in target_spatial)
        self.expand = ConvBnAct(cin, expand, 1, act="relu", rng=rng,
                                dtype=dtype, name=f"{name}.expand")
        self.depthwise = ConvBnAct(expand, expand, 3, padding=1, groups=expand,
                                   act="relu", rng=rng, dtype=dtype,
                                   name=f"{name}.depthwise")
        self.project = ConvBnAct(expand, cout, 1, act=None, rng=rng,
                                 dtype=dtype, name=f"{name}.project")
        self.cout = cout

    def __call__(self, x):
        y = adaptive_avg_pool(x, self.target_spatial)
        return self.project(self.depthwise(self.expand(y)))


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
        self.cin, self.cout, self.stride = cin, cout, stride

    def __call__(self, x):
        y = self.project(self.depthwise(self.expand(x)))
        return ad.add(x, y) if self.use_residual else y


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
    """One built graph per batch size, sharing the model's parameters."""

    def __init__(self, model):
        self.model = model
        self._built = {}

    def get(self, images):
        b = images.shape[0]
        out = self._built.get(b)
        if out is None:
            x = ad.leaf(np.ascontiguousarray(images), name=f"input[{b}]")
            out = self.model.build(x)
            self._built[b] = out
        else:
            out.input.set(np.ascontiguousarray(images))
        return out


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
        cin = stem_c
        self._unit_channels = [stem_c]   # channels at each unit's output
        self._unit_strides = [1]
        for bi, (expand, cout, stride, act) in enumerate(s.stages, start=1):
            e, c = scale_channels(expand, m), scale_channels(cout, m)
            blk = InvertedResidual(cin, e, c, stride=stride, act=act, rng=rng,
                                   dtype=dtype, name=f"block{bi}")
            self.blocks.append(blk)
            self._unit_channels.append(c)
            self._unit_strides.append(stride)
            cin = c
        self.skips = []
        for src, dst in s.skip_insertions:
            src_c = self._unit_channels[src]
            dst_cin = self._unit_channels[dst - 1]
            expand = max(4, s.skip_expand_ratio * src_c)
            self.skips.append((src, dst, SkipBlock(
                src_c, expand, dst_cin, (1, 1), rng=rng, dtype=dtype,
                name=f"skip{src}_{dst}")))
        head_c = scale_channels(s.head_channels, m)
        self.head = ConvBnAct(cin, head_c, 1, act="hswish", rng=rng,
                              dtype=dtype, name="head")
        self.head_dropout = Dropout(s.dropout, seed=seed)
        self.classifier = Linear(head_c, s.num_classes, rng=rng, dtype=dtype,
                                 name="classifier")
        self.head_channels = head_c

    def _units(self):
        return [self.stem] + self.blocks

    def build(self, x: Node) -> BuildOutput:
        """Wire one graph from an input leaf to logits.

        Spatial sizes are resolved lazily: the caller's leaf must already
        hold a value (shapes fix the skip blocks' pooling targets).
        """
        if x.value is None:
            raise ad.UninitializedValueError(
                "input leaf needs a value so spatial sizes are known")
        h, w = x.value.shape[2], x.value.shape[3]
        sizes = [(h, w)]
        for stride in self._unit_strides[1:]:
            h = (h + stride - 1) // stride if stride > 1 else h
            w = (w + stride - 1) // stride if stride > 1 else w
            sizes.append((h, w))

        probes = {}
        outs = []
        skip_adds = {}
        for src, dst, blk in self.skips:
            blk.target_spatial = sizes[dst - 1]
            skip_adds.setdefault(dst, []).append((src, blk))
        cur = x
        for ui, unit in enumerate(self._units()):
            for src, blk in skip_adds.get(ui, ()):
                sk = blk(outs[src])
                probes[f"skip{src}_{ui}"] = sk
                cur = ad.add(cur, sk)
            cur = unit(cur)
            outs.append(cur)
            probes["stem" if ui == 0 else f"block{ui}"] = cur
        feat = self.head(cur)
        probes["head"] = feat
        pooled = ad.reshape(global_avg_pool(feat), (-1, self.head_channels))
        logits = self.classifier(self.head_dropout(pooled))
        return BuildOutput(input=x, logits=logits, feature_map=feat,
                           probes=probes)

    def probe_names(self):
        names = ["stem"] + [f"block{i}" for i in range(1, len(self.blocks) + 1)]
        for src, dst, _ in self.skips:
            names.append(f"skip{src}_{dst}")
        names.append("head")
        return names
