"""
A tour of the skip-block micro network
======================================

Stem conv, five inverted residual blocks, a skip block carrying stem
features directly to the last block's input, and a 1x1 head conv whose
activation is the feature map the weighted loss measures.
"""

import numpy as np

from biasloss import autodiff as ad
from biasloss.layers import MicroNetSpec, SkipblockNetMicro

spec = MicroNetSpec(in_channels=1, num_classes=10)
model = SkipblockNetMicro(spec, seed=0)
print(f"parameters: {model.num_parameters()}")

# ---------------------------------------------------------------------------
# Building a graph fixes shapes from the input leaf; probe handles give
# named access to every stage's activation.

x = ad.leaf(np.random.default_rng(0).normal(size=(2, 1, 28, 28))
            .astype(np.float32))
out = model.build(x)
fp = ad.ForwardPass()
fp.run(out.logits)

print("\nstage activations:")
for name, node in out.probes.items():
    print(f"  {name:10s} {node.value.shape}")
print(f"  logits     {out.logits.value.shape}")

# ---------------------------------------------------------------------------
# The skip block pools the 28x28 stem output down to the last block's 7x7
# input and projects its channels to match, so the merge is a plain add.
# The build passes that target to each call of the skip block, so it lives
# in the graph: the pool node feeding the skip probe holds it.

src, dst, skip = model.skips[0]
pool = next(n for n in ad.topo_order(out.probes[f"skip{src}_{dst}"])
            if n.op == "adaptive_avg_pool")
print(f"\nskip block: unit {src} (stem) -> input of unit {dst}, "
      f"target spatial {pool.attrs['out']}, out channels {skip.cout}")

# ---------------------------------------------------------------------------
# The width multiplier scales every stage, rounding to multiples of 4.

for m in (1.0, 0.5, 0.25):
    scaled = SkipblockNetMicro(MicroNetSpec(width_multiplier=m), seed=0)
    print(f"width x{m}: stem {scaled.stem.conv.weight.value.shape[0]} ch, "
          f"head {scaled.head_channels} ch, "
          f"{scaled.num_parameters()} parameters")

# ---------------------------------------------------------------------------
# The same weights can back a second graph with a different batch size.

x2 = ad.leaf(np.zeros((7, 1, 28, 28), dtype=np.float32))
out2 = model.build(x2)
ad.forward(out2.logits)
print(f"\nsecond graph, batch 7: logits {out2.logits.value.shape}")
