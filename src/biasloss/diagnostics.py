"""Per-layer activation-variance profiling and weight-curve emission.

The profiler runs the model in eval mode on the sample walk
(layers.GraphCache.walk): each batch is cut into one slice of samples per
thread, and each slice runs an inference pass on a graph of its own that
keeps only the probed activations. At each probed layer the slice takes
the unbiased variance of every sample's unfolded activation, and the
variances, not the activations, are joined in slice order and aggregated
into average/max/min per layer. Probes are addressed by name so
layer-counting conventions never enter the picture. A non-finite variance
stops the profile with NonFiniteVarianceError, naming the first such
probe in probe order, the batch, and the count over the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import data as datamod
from .layers import GraphCache
from .losses import BiasLossConfig, batch_variances, bias_weight

PROFILE_HEADER = "layer,avg,max,min"
CURVE_HEADER = "alpha,beta,v,z_raw,z_clamped"


class ProbeError(ValueError):
    """Raised when a requested probe layer does not exist in the model."""


class NonFiniteVarianceError(ArithmeticError):
    """Raised when a probed layer's activation variance is not finite."""


@dataclass
class LayerProbe:
    """Streaming accumulator for one layer's per-sample variances; a NaN
    in any batch makes the average and both extrema NaN."""
    name: str
    count: int = 0
    total: float = 0.0
    max: float = float("-inf")
    min: float = float("inf")

    def update(self, variances):
        variances = np.asarray(variances, dtype=np.float64)
        self.count += variances.size
        self.total += float(variances.sum())
        self.max = float(np.maximum(self.max, variances.max()))
        self.min = float(np.minimum(self.min, variances.min()))

    def merge(self, other):
        """Combine two probes: count-weighted sum, global extrema."""
        if other.name != self.name:
            raise ProbeError(f"cannot merge {self.name} with {other.name}")
        out = LayerProbe(self.name, self.count + other.count,
                         self.total + other.total,
                         float(np.maximum(self.max, other.max)),
                         float(np.minimum(self.min, other.min)))
        return out

    @property
    def avg(self):
        return self.total / self.count if self.count else float("nan")


@dataclass
class VarianceProfile:
    rows: list = field(default_factory=list)  # (layer, avg, max, min)
    loss_id: str = ""

    def row(self, layer):
        for r in self.rows:
            if r[0] == layer:
                return r
        raise ProbeError(f"layer {layer!r} not in profile")

    def to_csv(self):
        lines = [PROFILE_HEADER]
        for name, avg, mx, mn in self.rows:
            lines.append(f"{name},{avg!r},{mx!r},{mn!r}")
        return "\n".join(lines) + "\n"


def profile(model, dataset, layer_names=None, batch_size=256,
            normalize=None, loss_id=""):
    """Aggregate per-sample activation variances at the named layers.

    Probes read post-activation outputs (the same convention the loss's
    feature map uses). Layer order in the result follows network depth.
    NonFiniteVarianceError names the first probe and batch (counted from 0)
    with a non-finite variance.
    """
    available = model.probe_names()
    if layer_names is None:
        layer_names = available
    unknown = [n for n in layer_names if n not in available]
    if unknown:
        raise ProbeError(f"unknown layers {unknown}; available: {available}")
    datamod.require_samples(dataset)

    spec = datamod.normalize_only(datamod.AugmentSpec(normalize=normalize))
    probes = {name: LayerProbe(name) for name in layer_names}
    cache = GraphCache(model)
    with model.evaluating():
        for i, b in enumerate(datamod.batches(dataset, batch_size,
                                              shuffle=False,
                                              augment_spec=spec)):
            variances = cache.walk(
                b.images, lambda out: [out.probes[n] for n in layer_names],
                batch_variances)
            for name, v in zip(layer_names, variances):
                bad = np.count_nonzero(~np.isfinite(v))
                if bad:
                    raise NonFiniteVarianceError(
                        f"non-finite variance at probe {name} batch {i} "
                        f"({bad} of {len(v)} samples)")
                probes[name].update(v)

    rows = [(n, probes[n].avg, probes[n].max, probes[n].min)
            for n in available if n in probes]
    return VarianceProfile(rows, loss_id=loss_id)


def depth_trend(prof: VarianceProfile, early_layer, last_layer):
    """Whether average variance decays from the early to the last layer.

    Returns (verdict, ratio) with ratio = avg(early) / avg(last).
    """
    early = prof.row(early_layer)
    last = prof.row(last_layer)
    ratio = early[1] / last[1] if last[1] != 0 else float("inf")
    if early[1] == last[1]:
        ratio = 1.0
    return last[1] < early[1], ratio


def bias_curve(alphas, betas, samples=101, clamp_lo=0.5, clamp_hi=1.5):
    """Evaluate the weight function on a grid over scaled variance [0, 1].

    Yields (alpha, beta, v, z_raw, z_clamped) rows for external plotting.
    """
    vs = np.linspace(0.0, 1.0, int(samples))
    rows = []
    for a in alphas:
        for b in betas:
            cfg = BiasLossConfig(alpha=a, beta=b, clamp_lo=clamp_lo,
                                 clamp_hi=clamp_hi)
            raw = np.exp(a * vs) - b
            clamped = bias_weight(vs, cfg)
            for v, zr, zc in zip(vs, raw, clamped):
                rows.append((float(a), float(b), float(v), float(zr),
                             float(zc)))
    return rows


def curve_csv(rows):
    lines = [CURVE_HEADER]
    for a, b, v, zr, zc in rows:
        lines.append(f"{a!r},{b!r},{v!r},{zr!r},{zc!r}")
    return "\n".join(lines) + "\n"
