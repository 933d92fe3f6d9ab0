"""
Anatomy of the variance-weighted loss
=====================================

Each sample's cross-entropy term is scaled by z(v) = exp(alpha * v) - beta
where v is the sample's feature-map variance, min-max scaled across the
batch. Low-variance samples (few distinctive activations) are
down-weighted toward 1 - beta; high-variance samples get up to
exp(alpha) - beta, clamped into [0.5, 1.5].
"""

import numpy as np

from biasloss import losses
from biasloss.losses import BiasLossConfig

rng = np.random.default_rng(0)

# ---------------------------------------------------------------------------
# A toy batch: four samples whose feature maps have increasingly spread
# activations, so their variances are cleanly ordered.

n, classes = 4, 5
feature_maps = np.stack([
    np.full((2, 3, 3), 0.5),                       # constant: zero variance
    rng.normal(0.0, 0.2, size=(2, 3, 3)),          # mild spread
    rng.normal(0.0, 0.8, size=(2, 3, 3)),          # healthy spread
    rng.normal(0.0, 2.0, size=(2, 3, 3)),          # widest spread
])
logits = rng.normal(size=(n, classes))
labels = rng.integers(0, classes, size=n)

raw = losses.batch_variances(feature_maps)
scaled, lo, hi = losses.minmax_scale(raw)
weights = losses.bias_weight(scaled, BiasLossConfig())
print("raw variances:  ", np.round(raw, 4))
print("scaled to [0,1]:", np.round(scaled, 4))
print("weights z(v):   ", np.round(weights, 4))

# ---------------------------------------------------------------------------
# The full loss bundles those steps and returns the bookkeeping record.
# Every loss takes the batch's logits and labels; the weighted one also
# takes the feature maps its weights come from.

loss, record = losses.bias_loss(logits, labels, feature_maps,
                                BiasLossConfig(alpha=0.3, beta=0.3))
ce = losses.cross_entropy(logits, labels)
focal = losses.focal_loss(logits, labels, gamma=2.0)
print(f"\nweighted loss {loss.item():.4f} vs cross-entropy {ce.item():.4f} "
      f"vs focal {focal.item():.4f}")
print(f"batch min/max variance: {record.batch_min:.4f} / {record.batch_max:.4f}")

# ---------------------------------------------------------------------------
# With alpha = beta = 0 the weights collapse to 1 and the loss IS the
# cross-entropy, bit for bit.

collapsed, _ = losses.bias_loss(logits, labels, feature_maps,
                                BiasLossConfig(alpha=0.0, beta=0.0))
print(f"alpha=beta=0 collapse: {collapsed.item() == ce.item()}")

# ---------------------------------------------------------------------------
# How the weight curve moves with alpha and beta.

print("\n  v      a=0.3,b=0.3   a=1.0,b=0.3   a=0.3,b=0.7")
for v in (0.0, 0.25, 0.5, 0.75, 1.0):
    row = [losses.bias_weight(v, BiasLossConfig(alpha=a, beta=b))
           for a, b in ((0.3, 0.3), (1.0, 0.3), (0.3, 0.7))]
    print(f"  {v:4.2f}   " + "   ".join(f"{z:11.6f}" for z in row))
