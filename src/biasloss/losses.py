"""Classification losses: variance-weighted cross-entropy and baselines.

Every loss is the batch mean of ``w_i * CE_i``, with CE_i sample i's
softmax cross-entropy: w_i = 1 for plain cross-entropy and
``(1 - p_target)^gamma`` for focal loss. The weighted loss uses
``z(v) = exp(alpha * v) - beta`` where v is that sample's feature-map
variance, min-max scaled across the batch into [0, 1]. z is clamped to a
configurable range to keep outlier activations from destabilising
training. The weights are computed once, in float64, by
``variance_record``. By default they are constants during
differentiation; with ``detach_weight`` off the ``bias_weight`` op
registered here carries their gradient through the variances and the
exponential, but never through the batch min/max (non-smooth,
batch-coupled). Either way the loss value is the same.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from . import autodiff as ad
from .autodiff import Node

DEGENERATE_SPREAD = 1e-12  # below this, a batch's variances count as equal
DEGENERATE_SCALED = 1.0  # the scaled variance of every sample of such a batch


@dataclass(frozen=True)
class BiasLossConfig:
    alpha: float = 0.3
    beta: float = 0.3
    clamp_lo: float = 0.5
    clamp_hi: float = 1.5
    detach_weight: bool = True

    def __post_init__(self):
        # the comparisons also reject NaN
        for name in ("alpha", "beta"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0, got "
                                 f"{getattr(self, name)}")
        for name in ("clamp_lo", "clamp_hi"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got "
                                 f"{getattr(self, name)}")
        if self.clamp_lo > self.clamp_hi:
            raise ValueError(f"clamp_lo {self.clamp_lo} exceeds clamp_hi "
                             f"{self.clamp_hi}")


@dataclass
class VarianceRecord:
    """Per-batch variance bookkeeping used for logging and diagnostics."""
    raw: np.ndarray          # per-sample feature-map variance
    batch_min: float
    batch_max: float
    scaled: np.ndarray       # min-max scaled into [0, 1]
    weight: np.ndarray       # applied per-sample loss weights
    clamped_lo: np.ndarray   # whether the clamp set each weight to clamp_lo
    clamped_hi: np.ndarray   # ... and to clamp_hi


def _as_node(x):
    return x if isinstance(x, Node) else ad.constant(np.asarray(x))


# ---------------------------------------------------------------------------
# variance machinery (numpy side)

def batch_variances(feature_map):
    """Per-sample unbiased variance over each sample's unfolded activation.

    The samples are walked in blocks on the kernel pool
    (``_kernels._map_blocks``), each block writing ``np.var(rows, axis=1,
    ddof=1)`` into its own slice of the result. np.var reduces each row on
    its own, so the result is byte-identical to np.var over the whole batch
    for any number of workers.
    """
    fm = np.asarray(feature_map)
    if fm.ndim != 4:
        raise ValueError("feature map must be [N, c, h, w]")
    flat = fm.reshape(fm.shape[0], -1)
    if flat.shape[1] < 2:
        raise ValueError("need at least 2 scalars per sample")
    # np.var of no rows gives the result dtype (f64 for integer input)
    out = np.empty(len(flat), np.var(flat[:0], axis=1, ddof=1).dtype)

    def block(s):
        out[s] = np.var(flat[s], axis=1, ddof=1)

    _kernels._map_blocks(block, flat)
    return out


def minmax_scale(raw):
    """Scale a batch's variances into [0, 1] via the batch min and max.

    Returns (scaled, batch_min, batch_max). When the spread is below
    DEGENERATE_SPREAD every sample gets DEGENERATE_SCALED.
    """
    raw = np.asarray(raw, dtype=np.float64)
    vmin, vmax = float(raw.min()), float(raw.max())
    return scale_between(raw, vmin, vmax), vmin, vmax


def scale_between(raw, vmin, vmax):
    """(raw - vmin) / (vmax - vmin) in float64, or DEGENERATE_SCALED for
    every sample when vmax - vmin < DEGENERATE_SPREAD."""
    raw = np.asarray(raw, dtype=np.float64)
    if vmax - vmin < DEGENERATE_SPREAD:
        return np.full_like(raw, DEGENERATE_SCALED)
    return (raw - vmin) / (vmax - vmin)


def bias_weight(v_scaled, cfg: BiasLossConfig = None):
    """clamp(exp(alpha * v) - beta, clamp_lo, clamp_hi); v in [0, 1]."""
    cfg = cfg or BiasLossConfig()
    z = np.exp(cfg.alpha * np.asarray(v_scaled, dtype=np.float64)) - cfg.beta
    return np.clip(z, cfg.clamp_lo, cfg.clamp_hi)


def variance_record(feature_map, cfg: BiasLossConfig = None):
    """The batch's variances with cfg's clamped weights; with cfg None,
    the unit weights of an unweighted loss, which nothing clamps."""
    raw = batch_variances(feature_map)
    scaled, vmin, vmax = minmax_scale(raw)
    if cfg is None:
        none = np.zeros(scaled.shape, dtype=bool)
        return VarianceRecord(raw, vmin, vmax, scaled, np.ones_like(scaled),
                              none, none)
    weight = bias_weight(scaled, cfg)
    return VarianceRecord(raw, vmin, vmax, scaled, weight,
                          weight == cfg.clamp_lo, weight == cfg.clamp_hi)


# ---------------------------------------------------------------------------
# losses (graph side; they evaluate eagerly and return scalar nodes)

def _weighted_ce(logits, labels, fp, weight=None) -> Node:
    """mean_i(w_i * CE_i), CE_i = -log p(target_i), evaluated in pass fp;
    weight maps the log p(target) node to w (None: w_i = 1, plain CE)."""
    logits, labels = _as_node(logits), np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError("labels must be a 1-d integer vector")
    n, k = fp.run(logits).shape
    if labels.shape[0] != n:
        raise ValueError(f"{labels.shape[0]} labels for {n} logit rows")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"labels must lie in [0, {k})")
    logp_t = ad.take_rows(ad.log_softmax(logits), labels)
    ce_i = ad.neg(logp_t)
    loss = ad.mean(ce_i if weight is None else ad.mul(weight(logp_t), ce_i))
    fp.run(loss)
    return loss


def cross_entropy(logits, labels) -> Node:
    """Mean softmax cross-entropy, stabilized by max subtraction."""
    return _weighted_ce(logits, labels, ad.ForwardPass())


def focal_loss(logits, labels, gamma=2.0) -> Node:
    """Cross-entropy scaled per sample by (1 - p_target)^gamma."""
    if not 0 <= gamma < np.inf:
        raise ValueError("gamma must be finite and non-negative")
    return _weighted_ce(logits, labels, ad.ForwardPass(),
                        lambda logp_t: ad.power(1.0 - ad.exp(logp_t), gamma))


# ---------------------------------------------------------------------------
# the attached weight: variance_record's weight as an op with a gradient

def _bias_weight_fwd(node, xs):
    """bias_weight of the input's variances, scaled by the frozen batch min
    and max: on the record's own batch, record.weight in the input dtype.
    The node's first forward, which bias_loss runs, reuses the record's
    variances when its input is the very array they were taken from, and
    drops them; every later forward, such as a finite-difference check's
    re-forward of an input changed in place, takes its own."""
    a = node.attrs
    source, raw = a.pop("record_of", (None, None))
    if xs[0] is not source:
        raw = batch_variances(xs[0])
    node.ctx = scale_between(raw, a["batch_min"], a["batch_max"])
    return bias_weight(node.ctx, a["cfg"]).astype(xs[0].dtype)


def _bias_weight_bwd(node, g):
    a = node.attrs
    cfg, spread = a["cfg"], a["batch_max"] - a["batch_min"]
    x = node.inputs[0].value
    if spread < DEGENERATE_SPREAD:  # every scaled variance is a constant
        return [np.zeros_like(x)]
    flat = x.reshape(len(x), -1)
    e = np.exp(cfg.alpha * node.ctx)
    z = e - cfg.beta
    # dw/dv_raw is alpha e^{alpha s} / spread inside the clamp, 0 outside;
    # dv_raw/dx is 2 (x - mean_row) / (n - 1)
    coef = (cfg.alpha * e * ((z >= cfg.clamp_lo) & (z <= cfg.clamp_hi)) * g
            * (2.0 / (spread * (flat.shape[1] - 1))))
    centered = flat - flat.mean(axis=1, keepdims=True, dtype=np.float64)
    return [(centered * coef[:, None]).astype(x.dtype).reshape(x.shape)]


ad.register_op("bias_weight", _bias_weight_fwd, _bias_weight_bwd)


def bias_loss(logits, labels, feature_map, cfg: BiasLossConfig = None):
    """Variance-weighted cross-entropy of logits [N,k] and integer labels
    [N], weighted by the last conv layer's activation [N,c,h,w].

    Returns (loss_node, VarianceRecord). The loss is the mean over samples
    of z_i * CE_i where z_i is the clamped exponential weight of sample i's
    scaled feature-map variance. cfg.detach_weight decides only whether
    the weights are constants with respect to differentiation.
    """
    cfg = cfg or BiasLossConfig()
    if feature_map is None:
        raise ValueError("feature map required for the variance-weighted loss")
    feature = _as_node(feature_map)
    fp = ad.ForwardPass()
    fp.run(feature)
    if feature.value.shape[:1] != np.shape(labels)[:1]:
        raise ValueError("feature map batch axis must match labels")

    record = variance_record(feature.value, cfg)
    if cfg.detach_weight:
        w_node = ad.constant(record.weight.astype(feature.value.dtype))
    else:
        # the same weights, differentiable in the feature map; the batch
        # min and max stay frozen (the scaling is non-smooth there)
        w_node = ad._node("bias_weight", [feature],
                          {"cfg": cfg, "batch_min": record.batch_min,
                           "batch_max": record.batch_max,
                           "record_of": (feature.value, record.raw)})
    return _weighted_ce(logits, labels, fp, lambda _: w_node), record
