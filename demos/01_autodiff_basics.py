"""
Reverse-mode autodiff in five minutes
=====================================

Build a small computation graph, evaluate it, pull gradients back through
it, and confirm them against central finite differences.
"""

import numpy as np

from biasloss import autodiff as ad



def dot(a, b):
    """a . b of two 3-vectors, as a [1, 3] @ [3, 1] matmul."""
    return ad.reshape(ad.matmul(ad.reshape(a, (1, 3)), ad.reshape(b, (3, 1))),
                      ())


# ---------------------------------------------------------------------------
# Leaves hold values; everything else is derived. Graphs are built once and
# can be re-evaluated after leaf values change.

x = ad.parameter(np.array([1.5, -0.5, 2.0]), name="x")
w = ad.parameter(np.array([0.3, 0.8, -1.1]), name="w")

score = dot(x, w)
loss = ad.exp(score * 0.5)

value = ad.forward(loss)
print(f"forward value: {value:.6f}")

# ---------------------------------------------------------------------------
# backward returns a GradStore mapping leaf nodes to gradients.

grads = ad.backward(loss)
print("dL/dx:", grads[x])
print("dL/dw:", grads[w])

# ---------------------------------------------------------------------------
# Spot-check against central differences: perturb one entry of w and
# re-run the same graph.

eps = 1e-6
w.value[1] += eps
up = ad.forward(loss)
w.value[1] -= 2 * eps
down = ad.forward(loss)
w.value[1] += eps
fd = (up - down) / (2 * eps)
print(f"finite difference for w[1]: {fd:.8f} (analytic {grads[w][1]:.8f})")

# ---------------------------------------------------------------------------
# A constant built from a node's current value freezes it: same value, no
# gradient upstream. bias_loss freezes its per-sample weights this way.

frozen = dot(ad.constant(x.value), x)
ad.forward(frozen)
g = ad.backward(frozen)
print("grad with one factor frozen:", g[x], "(equals the values of x)")
