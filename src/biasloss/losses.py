"""Classification losses: variance-weighted cross-entropy and baselines.

Every loss is the batch mean of ``w_i * CE_i``, with CE_i sample i's
softmax cross-entropy: w_i = 1 for plain cross-entropy and
``(1 - p_target)^gamma`` for focal loss. The weighted loss uses
``z(v) = exp(alpha * v) - beta`` where v is that sample's feature-map
variance, min-max scaled across the batch into [0, 1]. z is clamped to a
configurable range to keep outlier activations from destabilising
training. By default the weights are treated as constants during
differentiation; the variance path can optionally be differentiated, but
never through the batch min/max (non-smooth, batch-coupled).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")
        if self.clamp_lo > self.clamp_hi:
            raise ValueError("clamp_lo must not exceed clamp_hi")


@dataclass
class VarianceRecord:
    """Per-batch variance bookkeeping used for logging and diagnostics."""
    raw: np.ndarray          # per-sample feature-map variance
    batch_min: float
    batch_max: float
    scaled: np.ndarray       # min-max scaled into [0, 1]
    weight: np.ndarray       # clamped per-sample loss weights


@dataclass
class LossBatch:
    """Inputs to a loss: logits [N,k], integer labels [N] and, for the
    variance-weighted loss, the last conv layer's activation [N,c,h,w]."""
    logits: object
    labels: np.ndarray
    feature_map: object = None

    def __post_init__(self):
        self.labels = np.asarray(self.labels)
        if self.labels.ndim != 1:
            raise ValueError("labels must be a 1-d integer vector")


def _as_node(x):
    return x if isinstance(x, Node) else ad.constant(np.asarray(x))


# ---------------------------------------------------------------------------
# variance machinery (numpy side)

def sample_variance(row):
    """Unbiased variance of a flat signal: sum((t - mean)^2) / (n - 1)."""
    row = np.asarray(row)
    if row.size < 2:
        raise ValueError("variance needs at least 2 values (n - 1 > 0)")
    return float(np.var(row, ddof=1))


def batch_variances(feature_map):
    """Per-sample unbiased variance over each sample's unfolded activation."""
    fm = np.asarray(feature_map)
    if fm.ndim != 4:
        raise ValueError("feature map must be [N, c, h, w]")
    flat = fm.reshape(fm.shape[0], -1)
    if flat.shape[1] < 2:
        raise ValueError("need at least 2 scalars per sample")
    return np.var(flat, axis=1, ddof=1)


def minmax_scale(raw):
    """Scale a batch's variances into [0, 1] via the batch min and max.

    Returns (scaled, batch_min, batch_max). When the spread is below
    DEGENERATE_SPREAD every sample gets DEGENERATE_SCALED.
    """
    raw = np.asarray(raw, dtype=np.float64)
    vmin, vmax = float(raw.min()), float(raw.max())
    if vmax - vmin < DEGENERATE_SPREAD:
        scaled = np.full_like(raw, DEGENERATE_SCALED)
    else:
        scaled = (raw - vmin) / (vmax - vmin)
    return scaled, vmin, vmax


def bias_weight(v_scaled, cfg: BiasLossConfig = None):
    """clamp(exp(alpha * v) - beta, clamp_lo, clamp_hi); v in [0, 1]."""
    cfg = cfg or BiasLossConfig()
    z = np.exp(cfg.alpha * np.asarray(v_scaled, dtype=np.float64)) - cfg.beta
    return np.clip(z, cfg.clamp_lo, cfg.clamp_hi)


def variance_record(feature_map, cfg: BiasLossConfig = None):
    cfg = cfg or BiasLossConfig()
    raw = batch_variances(feature_map)
    scaled, vmin, vmax = minmax_scale(raw)
    return VarianceRecord(raw, vmin, vmax, scaled, bias_weight(scaled, cfg))


# ---------------------------------------------------------------------------
# losses (graph side; they evaluate eagerly and return scalar nodes)

def _weighted_ce(batch: LossBatch, fp, weight=None) -> Node:
    """mean_i(w_i * CE_i), CE_i = -log p(target_i), evaluated in pass fp;
    weight maps the log p(target) node to w (None: w_i = 1, plain CE)."""
    logits, labels = _as_node(batch.logits), batch.labels
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


def cross_entropy(batch: LossBatch) -> Node:
    """Mean softmax cross-entropy, stabilized by max subtraction."""
    return _weighted_ce(batch, ad.ForwardPass())


def focal_loss(batch: LossBatch, gamma=2.0) -> Node:
    """Cross-entropy scaled per sample by (1 - p_target)^gamma."""
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    return _weighted_ce(batch, ad.ForwardPass(),
                        lambda logp_t: ad.power(1.0 - ad.exp(logp_t), gamma))


def _variance_nodes(feature: Node) -> Node:
    """Differentiable per-sample unbiased variance of the unfolded map."""
    n = int(np.prod(feature.value.shape[1:]))
    flat = ad.unfold(feature)
    mu = ad.mean(flat, axis=1, keepdims=True)
    centered = ad.sub(flat, mu)
    ss = ad.sum_(ad.mul(centered, centered), axis=1)
    return ss / float(n - 1)


def bias_loss(batch: LossBatch, cfg: BiasLossConfig = None):
    """Variance-weighted cross-entropy.

    Returns (loss_node, VarianceRecord). The loss is the mean over samples
    of z_i * CE_i where z_i is the clamped exponential weight of sample i's
    scaled feature-map variance. With cfg.detach_weight the weights are
    constants with respect to differentiation.
    """
    cfg = cfg or BiasLossConfig()
    if batch.feature_map is None:
        raise ValueError("feature map required for the variance-weighted loss")
    feature = _as_node(batch.feature_map)
    fp = ad.ForwardPass()
    fp.run(feature)
    if feature.value.shape[0] != batch.labels.shape[0]:
        raise ValueError("feature map batch axis must match labels")

    record = variance_record(feature.value, cfg)
    dtype = feature.value.dtype
    if cfg.detach_weight:
        w_node = ad.constant(record.weight.astype(dtype))
    else:
        # differentiate through variance and the exponential, but the batch
        # min/max enter as constants (the scaling is non-smooth there)
        raw_n = _variance_nodes(feature)
        spread = record.batch_max - record.batch_min
        if spread < DEGENERATE_SPREAD:
            scaled_n = ad.constant(
                np.full(feature.value.shape[0], DEGENERATE_SCALED,
                        dtype=dtype))
        else:
            scaled_n = (raw_n - record.batch_min) / spread
        w_node = ad.clamp(ad.exp(scaled_n * cfg.alpha) - cfg.beta,
                          cfg.clamp_lo, cfg.clamp_hi)

    loss = _weighted_ce(batch, fp, lambda _: w_node)
    if not cfg.detach_weight:
        record.weight = np.asarray(w_node.value, dtype=np.float64)
    return loss, record
