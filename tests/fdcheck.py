"""Finite-difference gradient oracle shared by the test modules.

Central differences are a valid derivative oracle only where the function
is smooth on the whole secant interval. Perturbing a parameter by +-eps
occasionally pushes some activation or clamp input across its threshold
(for the activation inside the batchnorm op, its pre-activation), so the two
endpoint evaluations sample different linear pieces and the FD estimate is
corrupted by an amount unrelated to the backward implementation. The
checker detects this exactly: it records which side of every kink each
activation lands on for the +eps and -eps evaluations and skips entries
whose signatures differ. A bounded fraction of entries may be skipped; a
genuine backward bug shows up on the crossing-free entries.

The oracle re-runs forward on the *same* graph, so detached subgraphs
(e.g. frozen loss weights) stay frozen, matching the semantics backward
implements.
"""

import numpy as np

from biasloss import _kernels as K
from biasloss import autodiff as ad
from biasloss import layers as L

# kinks of the activations the batchnorm op applies
_ACT_KINKS = {"relu": (0.0,), "hswish": (-3.0, 3.0)}


def _kinks(node):
    """(input, thresholds) of a kink node's non-differentiable points.

    A batchnorm node with an activation does not keep its pre-activation,
    so it is recomputed from the conv output, with the forward's own
    kernel. For a BN folded into its conv that is the unfolded conv output,
    so the pre-activation differs from the folded one by rounding only.
    """
    if node.op == "relu":
        return node.inputs[0].value, (0.0,)
    if node.op == "clamp":
        return node.inputs[0].value, (node.attrs["lo"], node.attrs["hi"])
    _, x, m, invstd = L.bn_input(node)
    z = K.bn_normalize(x, m, invstd, node.inputs[1].value,
                       node.inputs[2].value)
    return z, _ACT_KINKS[node.attrs["act"]]


def kink_margin(root):
    """Smallest distance of any activation or clamp input from a kink."""
    margin = np.inf
    for node in _kink_nodes(root):
        z, thresholds = _kinks(node)
        for t in thresholds:
            margin = min(margin, float(np.abs(z - t).min()))
    return margin


def _kink_nodes(root):
    return [n for n in ad.topo_order(root)
            if n.op in ("relu", "clamp")
            or n.op == "batchnorm" and n.attrs["act"] is not None]


def _signature(kinks):
    parts = []
    for n in kinks:
        z, thresholds = _kinks(n)
        parts.extend((z > t).tobytes() for t in thresholds)
    return hash(b"".join(parts))


def _fd(root, kinks, flat, i, eps):
    """Central difference plus whether the secant straddled a kink."""
    old = flat[i]
    flat[i] = old + eps
    f1 = float(ad.forward(root))
    sig1 = _signature(kinks)
    flat[i] = old - eps
    f2 = float(ad.forward(root))
    sig2 = _signature(kinks)
    flat[i] = old
    return (f1 - f2) / (2.0 * eps), sig1 != sig2


def assert_grads_close(root, params, eps=1e-4, rtol=1e-4, floor=1e-6,
                       sample=None, rng=None, max_skip_frac=0.2):
    """Compare backward against central differences for each parameter.

    With `sample`, only that many randomly chosen entries per parameter are
    checked (rng required). Relative error uses max(|fd|, |an|, floor) as
    the denominator so true-zero gradients do not amplify FD roundoff.
    Returns (worst relative error, skipped fraction).
    """
    ad.forward(root)
    grads = ad.backward(root)
    kinks = _kink_nodes(root)
    worst = 0.0
    checked = 0
    skipped = 0
    for p in params:
        an = grads[p]
        flat = p.value.ravel()
        idxs = range(flat.size)
        if sample is not None and flat.size > sample:
            idxs = rng.choice(flat.size, size=sample, replace=False)
        for i in idxs:
            fd, crossed = _fd(root, kinks, flat, i, eps)
            if crossed:
                skipped += 1  # FD not a valid oracle across a kink
                continue
            checked += 1
            a = an.ravel()[i]
            err = abs(fd - a) / max(abs(fd), abs(a), floor)
            worst = max(worst, err)
            assert err <= rtol, (
                f"{getattr(p, 'name', p)}[{i}]: analytic {a} vs fd {fd} "
                f"(rel err {err:.3e} > {rtol})")
    total = checked + skipped
    assert checked > 0, "no valid finite-difference entries"
    assert skipped <= max_skip_frac * total, (
        f"{skipped}/{total} entries straddled kinks; data too close to "
        f"non-differentiable points for a meaningful check")
    return worst, skipped / total
