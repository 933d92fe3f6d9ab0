"""Finite-difference gradient oracle shared by the test modules.

Central differences are a valid derivative oracle only where the function
is smooth on the whole secant interval. Perturbing a parameter by +-eps
occasionally pushes some activation or clamp input across its threshold
(for the activation inside the batchnorm op, its pre-activation; for the
clamp inside the bias_weight op, the unclamped weight), so the two
endpoint evaluations sample different linear pieces and the FD estimate is
corrupted by an amount unrelated to the backward implementation. The
checker detects this exactly: it records which side of every kink each
activation lands on for the +eps and -eps evaluations and skips entries
whose signatures differ. A bounded fraction of entries may be skipped; a
genuine backward bug shows up on the crossing-free entries.

The batchnorm op's backward has one rule for relu in both modes: its
derivative is [y > 0], read from the op's output y. For a BN folded into
its conv, y is the folded conv's output, while the checker's kink
signature recomputes the unfolded pre-activation; the two can differ in
sign only within rounding of the kink, where the secant crosses it and
the entry is skipped anyway. For a BN that defers to the 1x1 conv after
it, the conv's backward rebuilds y with bn_normalize's own operations,
so the signature matches it exactly.

The oracle re-runs forward on the *same* graph, so detached subgraphs
(e.g. frozen loss weights) stay frozen, matching the semantics backward
implements.
"""

import numpy as np

from biasloss import _kernels as K
from biasloss import autodiff as ad
from biasloss import layers as L
from biasloss import losses

# kinks of the activations the batchnorm op applies
_ACT_KINKS = {"relu": (0.0,), "hswish": (-3.0, 3.0)}


def _kinks(node):
    """(input, thresholds) of a kink node's non-differentiable points.

    A bias_weight node's clamp input is the unclamped weight
    exp(alpha * v) - beta, recomputed from the feature map with the frozen
    batch min and max. A batchnorm node with an activation does not keep
    its pre-activation, so it is recomputed from the conv output, with the
    forward's own kernel. For a BN folded into its conv that is the
    unfolded conv output, so the pre-activation differs from the folded one
    by rounding only.
    """
    if node.op == "bias_weight":
        a = node.attrs
        cfg = a["cfg"]
        v = losses.scale_between(losses.batch_variances(node.inputs[0].value),
                                 a["batch_min"], a["batch_max"])
        return np.exp(cfg.alpha * v) - cfg.beta, (cfg.clamp_lo, cfg.clamp_hi)
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
            if n.op == "bias_weight"
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


def dot(y, g):
    """Scalar root sum(y * g) for a constant array g, built as a matmul:
    its gradient with respect to y is exactly g."""
    return ad.reshape(ad.matmul(ad.reshape(y, (1, -1)),
                                ad.constant(np.asarray(g).reshape(-1, 1))), ())
