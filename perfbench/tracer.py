"""Span tracer for the benchmark's traced runs.

The tracer wraps the engine's public entry points and its op registry from
outside, for the life of one traced call, and restores every original on
exit. Nothing under ``src/`` changes. Each wrapped call records a span
``(id, parent, thread, name, start, end, info)``; spans stay in memory and
are written out when the benchmark ends. A span's parent is the innermost
open span of the same thread, so augmentation on the prefetch thread has
no parent.

Per-op spans are named after the layer and conv path the op belongs to
(``layers.conv2d.dw.fwd``, ``layers.batchnorm.train.bwd``, ...). Their
``info`` holds a computed operation count and byte count from the operand
shapes: these are formulas, not hardware counters.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict

# Computed flops per element of the op's input, per pass. Batchnorm counts
# the textbook formulas: train forward = mean (1) + variance (3) + scale and
# shift (3); eval forward = scale and shift (3); backward = the two
# parameter reductions (4) + dx (5).
_FLOPS_PER_ELEM = {
    ("batchnorm", "train", "fwd"): 7, ("batchnorm", "train", "bwd"): 9,
    ("batchnorm", "eval", "fwd"): 3,
    ("hswish", "", "fwd"): 5, ("hswish", "", "bwd"): 5,
    ("relu", "", "fwd"): 1, ("relu", "", "bwd"): 1,
    ("adaptive_avg_pool", "", "fwd"): 1, ("adaptive_avg_pool", "", "bwd"): 1,
}

# op registry tag -> span name prefix
_OP_PREFIX = {"conv2d": "layers.conv2d", "batchnorm": "layers.batchnorm",
              "hswish": "layers.hswish",
              "adaptive_avg_pool": "layers.adaptive_avg_pool",
              "relu": "autodiff.relu"}

OP_KEYS = ("layers.batchnorm.train", "layers.batchnorm.eval",
           "layers.conv2d.dw", "layers.conv2d.1x1", "layers.conv2d.im2col",
           "layers.hswish", "layers.adaptive_avg_pool", "autodiff.relu")


def _conv_path(node):
    """The conv path the engine dispatches on: 1x1 GEMM, depthwise, or
    im2col GEMM for every other kernel (the stem)."""
    x, w = node.inputs[0].value, node.inputs[1].value
    groups = node.attrs.get("groups", 1)
    if w.shape[2] == 1 and w.shape[3] == 1 and groups == 1:
        return "1x1"
    if groups == x.shape[1] and w.shape[0] == x.shape[1]:
        return "dw"
    return "im2col"


def _variant(op, node):
    if op == "conv2d":
        return _conv_path(node)
    if op == "batchnorm":
        layer = node.attrs.get("layer")
        return "train" if getattr(layer, "training", False) else "eval"
    return ""


def _cost(op, variant, phase, node, out):
    """(flops, bytes) computed from operand shapes for one op call."""
    x = node.inputs[0].value
    if op == "conv2d":
        w = node.inputs[1].value
        y = out if phase == "fwd" else node.value
        macs = y.size * w.shape[1] * w.shape[2] * w.shape[3]
        if phase == "fwd":
            return 2 * macs, x.nbytes + w.nbytes + y.nbytes
        # dx and dw: read x, w and the upstream grad, write dx and dw
        return 4 * macs, 2 * (x.nbytes + w.nbytes) + y.nbytes
    per_elem = _FLOPS_PER_ELEM.get((op, variant, phase))
    if per_elem is None:
        return 0, 0
    if op == "adaptive_avg_pool":
        y = out if phase == "fwd" else node.value
        return per_elem * x.size, x.nbytes + y.nbytes
    # element-wise: forward reads x, writes y; backward reads x and the
    # upstream grad, writes dx
    return per_elem * x.size, (2 if phase == "fwd" else 3) * x.nbytes


class Tracer:
    """Records spans around calls into the engine while installed."""

    def __init__(self, engine):
        self.engine = engine
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo = []
        self._nodes = {}  # graph root id -> node count

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, opened, name, t1, info=None):
        sid, parent, t0 = opened
        self._stack().pop()
        self.spans.append((sid, parent, threading.get_ident(), name, t0, t1,
                           info))

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        opened = self._open()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(opened, name, time.perf_counter())

    # -- installing wrappers ----------------------------------------------

    def _patch_attr(self, name, span, wrap=None):
        """Replace the function `name` in every engine module that holds
        it (``from .losses import bias_loss`` makes a second binding)."""
        mods = self.engine.modules
        orig = next((getattr(m, name) for m in mods if hasattr(m, name)),
                    None)
        if orig is None:
            return
        if wrap is None:
            def wrapped(*args, **kwargs):
                return self.call(span, orig, *args, **kwargs)
            wrapped = functools.wraps(orig)(wrapped)
        else:
            wrapped = wrap(orig)
        for m in mods:
            if getattr(m, name, None) is orig:
                setattr(m, name, wrapped)
                self._undo.append((setattr, m, name, orig))

    def _wrap_batches(self, orig):
        tracer = self

        @functools.wraps(orig)
        def batches(*args, **kwargs):
            it = orig(*args, **kwargs)
            try:
                while True:
                    opened = tracer._open()
                    try:
                        b = next(it)
                    except StopIteration:
                        tracer._close(opened, "data.end", time.perf_counter())
                        return
                    tracer._close(opened, "data.next", time.perf_counter())
                    yield b
            finally:
                it.close()
        return batches

    def _wrap_checkpoint(self, orig):
        tracer = self

        @functools.wraps(orig)
        def save_checkpoint(path, *args, **kwargs):
            opened = tracer._open()
            try:
                return orig(path, *args, **kwargs)
            finally:
                size = os.path.getsize(path) if os.path.exists(path) else 0
                tracer._close(opened, "train.save_checkpoint",
                              time.perf_counter(), {"bytes": size})
        return save_checkpoint

    def _wrap_forward_run(self, orig):
        tracer = self
        topo_order = self.engine.autodiff.topo_order
        nodes = self._nodes

        @functools.wraps(orig)
        def run(fp, root):
            # node ids are never reused, so each graph is walked once; the
            # walk is a span of its own, so no engine span's self time
            # holds it
            n = nodes.get(root.id)
            if n is None:
                n = nodes[root.id] = tracer.call(
                    "trace.count_nodes", lambda: len(topo_order(root)))
            opened = tracer._open()
            try:
                return orig(fp, root)
            finally:
                tracer._close(opened, "autodiff.forward",
                              time.perf_counter(), {"nodes": n})
        return run

    def _wrap_op(self, op, phase, orig):
        tracer = self
        prefix = _OP_PREFIX.get(op, "autodiff.other")

        # The span covers the tracer's own work on the op (naming it and
        # computing its cost), so that work is charged to the op, where it
        # is small next to the op itself, and not to the pass around it.
        def op_call(node, arg):
            opened = tracer._open()
            variant = _variant(op, node) if op in _OP_PREFIX else ""
            name = ".".join(p for p in (prefix, variant, phase) if p)
            out = info = None
            try:
                out = orig(node, arg)
                return out
            finally:
                if out is not None and op in _OP_PREFIX:
                    flops, nbytes = _cost(op, variant, phase, node, out)
                    info = {"flops": flops, "bytes": nbytes}
                tracer._close(opened, name, time.perf_counter(), info)
        return op_call

    def install(self):
        ad = self.engine.autodiff
        self._patch_attr("batches", None, self._wrap_batches)
        self._patch_attr("augment", "data.augment")
        self._patch_attr("backward", "autodiff.backward")
        for fn in ("bias_loss", "cross_entropy", "focal_loss"):
            self._patch_attr(fn, "losses.loss")
        self._patch_attr("variance_record", "losses.variance_record")
        self._patch_attr("sgd_step", "train.sgd_step")
        self._patch_attr("save_checkpoint", None, self._wrap_checkpoint)
        self._patch_attr("profile", "diagnostics.profile")
        run = ad.ForwardPass.run
        ad.ForwardPass.run = self._wrap_forward_run(run)
        self._undo.append((setattr, ad.ForwardPass, "run", run))
        for table, phase in ((ad._FORWARD, "fwd"), (ad._BACKWARD, "bwd")):
            for op, fn in list(table.items()):
                table[op] = self._wrap_op(op, phase, fn)
                self._undo.append((dict.__setitem__, table, op, fn))

    def restore(self):
        while self._undo:
            setter, obj, key, orig = self._undo.pop()
            setter(obj, key, orig)

    # -- output -------------------------------------------------------------

    def write(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w") as f:
            for sid, parent, thread, name, t0, t1, info in self.spans:
                rec = {"id": sid, "parent": parent, "thread": thread,
                       "name": name, "start": t0, "end": t1}
                if info:
                    rec["info"] = info
                f.write(json.dumps(rec) + "\n")

    def summary(self):
        """name -> {count, total, self, flops, bytes, nodes} in seconds.

        Self time is a span's duration minus that of its direct children.
        """
        child = defaultdict(float)
        for sid, parent, _, _, t0, t1, _ in self.spans:
            if parent:
                child[parent] += t1 - t0
        out = defaultdict(lambda: {"count": 0, "total": 0.0, "self": 0.0,
                                   "flops": 0, "bytes": 0, "nodes": 0})
        for sid, _, _, name, t0, t1, info in self.spans:
            s = out[name]
            s["count"] += 1
            s["total"] += t1 - t0
            s["self"] += t1 - t0 - child[sid]
            if info:
                s["flops"] += info.get("flops", 0)
                s["bytes"] += info.get("bytes", 0)
                s["nodes"] = max(s["nodes"], info.get("nodes", 0))
        return out
