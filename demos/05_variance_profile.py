"""
Profiling activation variance by depth
======================================

The profiler replays a dataset through a model in eval mode and records,
at each named layer, the average/max/min of the per-sample activation
variances. In trained classifiers the average falls sharply with depth;
the weighted loss exists precisely because samples at the bottom of that
distribution carry a weak learning signal.
"""

import numpy as np

from biasloss import data, diagnostics, train

train_ds = data.make_synthetic("mnist", 384, seed=2)
val_ds = data.make_synthetic("mnist", 128, seed=2, split="test")

cfg = train.TrainConfig(loss="ce", epochs=2, batch_size=64, lr0=0.1,
                        seed=0, dataset="mnist", dropout=0.0)
_, model = train.train_run(cfg, train_ds=train_ds, val_ds=val_ds)

# ---------------------------------------------------------------------------
# Probe every stage; rows come back ordered by depth. The images are
# normalized as in training, as the CLI's profile verb does.

prof = diagnostics.profile(model, val_ds, loss_id="ce",
                           normalize=data.default_augment("mnist").normalize)
print("layer        avg        max        min")
for name, avg, mx, mn in prof.rows:
    print(f"{name:10s} {avg:9.4f} {mx:10.4f} {mn:10.4f}")

verdict, ratio = diagnostics.depth_trend(prof, "stem", "head")
print(f"\nvariance decays stem -> head: {verdict} (ratio {ratio:.1f}x)")

# ---------------------------------------------------------------------------
# The weight-curve table that pairs with these profiles: how strongly a
# given scaled variance is emphasized for several (alpha, beta) settings.

rows = diagnostics.bias_curve(alphas=[0.3, 1.0], betas=[0.3], samples=5)
print("\nalpha  beta    v     z_raw    z_clamped")
for a, b, v, zr, zc in rows:
    print(f"{a:5.2f} {b:5.2f} {v:5.2f} {zr:8.4f} {zc:8.4f}")

print("\n(emit a dense grid as CSV with: biasloss curve --alpha 0.3 "
      "--beta 0.3 --out plots/)")
