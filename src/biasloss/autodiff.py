"""Dense tensor graphs with reverse-mode automatic differentiation.

Values are numpy arrays (row-major, float32 by default, float64 for
verification work). A computation is a DAG of ``Node`` objects built ahead
of time; leaves receive values, ``forward`` evaluates the graph in
topological order, and ``backward`` walks it in reverse accumulating
gradients, freeing each node's once it is consumed, and returns the
leaves' in a fresh :class:`GradStore`.

A forward pass either retains every node's value and ctx, which a backward
reads, or is an inference pass: the caller names up front the nodes it
will read, and the pass frees every other non-leaf value, and every ctx,
once the node's last consumer has run (a consumer's forward may read its
input's ctx), so the live activations are the frontier of the walk plus
the named nodes'.

The registered ops are exactly those that the network and its three
losses run; layers adds the conv, batchnorm, pooling and dropout ops, and
losses the ``bias_weight`` op of the attached variance weights. A
value that must take no gradient enters the graph as a constant; a
Python scalar in an arithmetic expression becomes a ``scalar`` node that
takes its partner's dtype when the pass computes the partner.

A graph instance is single-threaded: a pass writes its nodes' values and
ctx. Distinct graphs are independent and parameters (leaf nodes) may be
shared between graphs over the same model weights, so threads that run
passes at once each need a graph of their own, as the sample walk's
slices have (layers.infer). A graph that a backward follows is worth
keeping and refilling, since its retained values reuse memory from one
pass to the next, as a train run's one graph does; an inference pass
frees its values anyway, so its graph may be built per batch.
"""

from __future__ import annotations

import itertools

import numpy as np


class ShapeError(ValueError):
    """Raised when an operation receives incompatibly shaped operands."""


class GraphError(RuntimeError):
    """Raised for structural problems in a computation graph (e.g. cycles)."""


class UninitializedValueError(GraphError):
    """Raised when forward reaches a leaf whose value was never set."""


_ids = itertools.count()

_FORWARD = {}
_BACKWARD = {}


def register_op(name, fwd, bwd):
    """Register forward/backward rules for an op tag.

    fwd(node, input_values) -> ndarray
    bwd(node, upstream_grad) -> list of grads aligned with node.inputs
    (entries may be None for inputs that receive no gradient).
    """
    if name in _FORWARD:
        raise ValueError(f"op {name!r} already registered")
    _FORWARD[name] = fwd
    _BACKWARD[name] = bwd


class Node:
    """One vertex of a computation DAG.

    Leaves (op == "leaf") carry externally supplied values; every other node
    computes its value from its inputs during a forward pass.
    """

    __slots__ = ("id", "op", "inputs", "value", "requires_grad", "name",
                 "attrs", "ctx")

    def __init__(self, op, inputs=(), value=None, requires_grad=False,
                 name=None, attrs=None):
        self.id = next(_ids)
        self.op = op
        self.inputs = list(inputs)
        self.value = value
        self.requires_grad = requires_grad
        self.name = name
        self.attrs = attrs or {}
        self.ctx = None

    def set(self, value):
        """Assign a leaf's value. Only leaves may be set."""
        if self.op != "leaf":
            raise GraphError("only leaf nodes accept values")
        self.value = np.asarray(value)
        return self

    def item(self):
        if self.value is None:
            raise UninitializedValueError("node has no value; run forward first")
        return float(self.value)

    def __repr__(self):
        tag = self.name or self.op
        shp = "unset" if self.value is None else "x".join(map(str, self.value.shape))
        return f"Node<{tag} #{self.id} {shp}>"

    # operator sugar; python scalars are lifted to nodes of our dtype (_lift)
    def __add__(self, other):
        return add(self, _lift(other, self))

    def __sub__(self, other):
        return sub(self, _lift(other, self))

    def __rsub__(self, other):
        return sub(_lift(other, self), self)

    def __mul__(self, other):
        return mul(self, _lift(other, self))


def leaf(value=None, requires_grad=False, name=None):
    """Create a leaf node, optionally with an initial value."""
    node = Node("leaf", (), None, requires_grad, name)
    if value is not None:
        node.set(value)
    return node


def parameter(value, name=None):
    return leaf(np.asarray(value), requires_grad=True, name=name)


def constant(value, name=None):
    return leaf(np.asarray(value), requires_grad=False, name=name)


def _lift(other, like):
    """other as a node: a Python scalar becomes a "scalar" node on like,
    which takes like's dtype when a pass computes like, so a scalar lifted
    before like has a value still matches it."""
    if isinstance(other, Node):
        return other
    return Node("scalar", [like], attrs={"value": other})


def _scalar_fwd(node, xs):
    return np.asarray(node.attrs["value"], dtype=xs[0].dtype)


register_op("scalar", _scalar_fwd, lambda node, g: [None])


def _node(op, inputs, attrs=None):
    rg = any(i.requires_grad for i in inputs)
    return Node(op, inputs, None, rg, attrs=attrs)


def topo_order(*roots):
    """Topological order of the roots' joint ancestry, each node once;
    raises GraphError on cycles."""
    order = []
    state = {}  # id -> 1 visiting, 2 done
    stack = [(root, False) for root in reversed(roots)]
    while stack:
        node, processed = stack.pop()
        if processed:
            state[node.id] = 2
            order.append(node)
            continue
        st = state.get(node.id)
        if st == 2:
            continue
        if st == 1:
            raise GraphError("cycle detected in computation graph")
        state[node.id] = 1
        stack.append((node, True))
        for inp in node.inputs:
            if state.get(inp.id) != 2:
                if state.get(inp.id) == 1:
                    raise GraphError("cycle detected in computation graph")
                stack.append((inp, False))
    return order


class ForwardPass:
    """One evaluation pass: every node is computed at most once.

    Running multiple roots within the same pass shares already computed
    subgraphs, which lets a caller inspect an intermediate value and then
    extend the graph without re-evaluating the prefix.

    By default the pass retains every node's value and ctx for a backward.
    Given keep, the nodes the caller will read, it is an inference pass and
    no backward may follow: only the kept nodes may be run, and the first
    run computes the whole ancestry of every kept node, in the topological
    order that also counts each node's consumers, so later runs just read
    their value. A non-leaf value that is not kept is freed once its last
    consumer has run, and so is every node's ctx (a node that nothing in
    the pass reads drops its ctx right after its own forward); kept values
    and leaves stay.
    """

    def __init__(self, validate=False, keep=None):
        self.validate = validate
        self._done = set()
        self._keep = self._order = None
        if keep is not None:
            self._keep = {n.id for n in keep}
            self._order = topo_order(*keep)
            self._uses = {}  # node id -> consumers in the pass not yet run
            for node in self._order:
                for inp in node.inputs:
                    self._uses[inp.id] = self._uses.get(inp.id, 0) + 1

    def run(self, root):
        if self._keep is None:
            self._compute(topo_order(root))
        elif root.id not in self._keep:
            raise GraphError(f"{root!r} was not named when the inference "
                             "pass began")
        else:
            self._compute(self._order)
            self._order = ()
        return root.value

    def _compute(self, order):
        for node in order:
            if node.id in self._done:
                continue
            if node.op == "leaf":
                if node.value is None:
                    raise UninitializedValueError(
                        f"leaf {node.name or node.id} has no value")
            else:
                node.value = _FORWARD[node.op](
                    node, [inp.value for inp in node.inputs])
                if self.validate and not np.all(np.isfinite(node.value)):
                    raise FloatingPointError(
                        f"non-finite value produced by op {node.op!r}")
                if self._keep is not None:
                    self._release(node)
            self._done.add(node.id)

    def _release(self, node):
        """Drop what an inference pass no longer needs once node ran."""
        if not self._uses.get(node.id):
            node.ctx = None
        for inp in node.inputs:
            self._uses[inp.id] -= 1
            if not self._uses[inp.id]:
                inp.ctx = None
                if inp.op != "leaf" and inp.id not in self._keep:
                    inp.value = None


def forward(root, validate=False):
    """Evaluate the graph below root and return root's value."""
    return ForwardPass(validate).run(root)


class GradStore:
    """Map from leaf node to gradient array of identical shape.

    Only leaves' gradients are kept: backward frees every other node's
    gradient once that node's backward has consumed it, so looking up a
    non-leaf raises KeyError. Leaves that require grad but were unreachable
    from the backward root read as zeros.
    """

    def __init__(self, grads):
        self._grads = grads

    def __getitem__(self, node):
        if node.op != "leaf":
            raise KeyError(f"gradients are kept for leaves only, not {node!r}")
        g = self._grads.get(node.id)
        if g is not None:
            return g
        if node.requires_grad and node.value is not None:
            return np.zeros_like(node.value)
        raise KeyError(f"no gradient tracked for {node!r}")


def backward(root):
    """Reverse-mode differentiation from a scalar root.

    Forward must have been run already. Returns a GradStore with the
    gradient of root w.r.t. every requires_grad leaf it reaches. A node's
    gradient is dropped as soon as its backward has run, so the live
    gradients are the frontier of the reverse walk plus the leaves', not
    one per node of the graph.
    """
    if root.value is None:
        raise UninitializedValueError("run forward before backward")
    if root.value.size != 1:
        raise ValueError(
            f"backward root must be scalar, got shape {root.value.shape}")
    order = topo_order(root)
    grads = {root.id: np.ones_like(root.value)}
    for node in reversed(order):
        if node.op == "leaf":
            continue
        # popped, not read: the gradient is freed once its backward ran
        g = grads.pop(node.id, None)
        if g is None or not any(inp.requires_grad for inp in node.inputs):
            continue
        in_grads = _BACKWARD[node.op](node, g)
        for inp, ig in zip(node.inputs, in_grads):
            if ig is None or not inp.requires_grad:
                continue
            have = grads.get(inp.id)
            grads[inp.id] = ig if have is None else have + ig
    return GradStore(grads)


# ---------------------------------------------------------------------------
# broadcasting helpers

def _unbroadcast(g, shape):
    """Reduce g (result of broadcasting) back to the given input shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# element-wise arithmetic

def _binary(name, f, dfa, dfb):
    def fwd(node, xs):
        return f(xs[0], xs[1])

    def bwd(node, g):
        a, b = (inp.value for inp in node.inputs)
        ga = _unbroadcast(dfa(g, a, b, node.value), a.shape)
        gb = _unbroadcast(dfb(g, a, b, node.value), b.shape)
        return [ga, gb]

    register_op(name, fwd, bwd)
    def make(a, b):
        return _node(name, [a, b])
    return make


add = _binary("add", lambda a, b: a + b,
              lambda g, a, b, o: g, lambda g, a, b, o: g)
sub = _binary("sub", lambda a, b: a - b,
              lambda g, a, b, o: g, lambda g, a, b, o: -g)
mul = _binary("mul", lambda a, b: a * b,
              lambda g, a, b, o: g * b, lambda g, a, b, o: g * a)


def _unary(name, f, df):
    def fwd(node, xs):
        return f(xs[0])

    def bwd(node, g):
        return [df(g, node.inputs[0].value, node.value)]

    register_op(name, fwd, bwd)
    def make(x):
        return _node(name, [x])
    return make


neg = _unary("neg", lambda x: -x, lambda g, x, o: -g)
exp = _unary("exp", np.exp, lambda g, x, o: g * o)


def _power_fwd(node, xs):
    return xs[0] ** node.attrs["exponent"]


def _power_bwd(node, g):
    p = node.attrs["exponent"]
    x = node.inputs[0].value
    return [g * p * x ** (p - 1)]


register_op("power", _power_fwd, _power_bwd)


def power(x, exponent):
    """x ** exponent for a fixed real exponent (x >= 0 when non-integral)."""
    return _node("power", [x], {"exponent": float(exponent)})


# ---------------------------------------------------------------------------
# linear algebra and shape ops

def _matmul_fwd(node, xs):
    a, b = xs
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError("matmul expects 2-d operands")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul mismatch {a.shape} @ {b.shape}")
    return a @ b


def _matmul_bwd(node, g):
    a, b = (inp.value for inp in node.inputs)
    return [g @ b.T, a.T @ g]


register_op("matmul", _matmul_fwd, _matmul_bwd)


def matmul(a, b):
    return _node("matmul", [a, b])


def _reshape_fwd(node, xs):
    return xs[0].reshape(node.attrs["shape"])


def _reshape_bwd(node, g):
    return [g.reshape(node.inputs[0].value.shape)]


register_op("reshape", _reshape_fwd, _reshape_bwd)


def reshape(x, shape):
    return _node("reshape", [x], {"shape": tuple(shape)})


# ---------------------------------------------------------------------------
# reductions

def _mean_fwd(node, xs):
    return np.asarray(xs[0].mean())


def _mean_bwd(node, g):
    x = node.inputs[0].value
    return [np.broadcast_to(g, x.shape) / x.dtype.type(x.size)]


register_op("mean", _mean_fwd, _mean_bwd)


def mean(x):
    """Mean over every element: a scalar."""
    return _node("mean", [x])


# ---------------------------------------------------------------------------
# classification helpers

def _log_softmax_fwd(node, xs):
    x = xs[0]
    m = x.max(axis=-1, keepdims=True)
    s = x - m
    out = s - np.log(np.exp(s).sum(axis=-1, keepdims=True))
    return out


def _log_softmax_bwd(node, g):
    sm = np.exp(node.value)
    return [g - sm * g.sum(axis=-1, keepdims=True)]


register_op("log_softmax", _log_softmax_fwd, _log_softmax_bwd)


def log_softmax(x):
    """Row-wise log-softmax over the last axis, max-subtraction stabilized."""
    return _node("log_softmax", [x])


def _take_rows_fwd(node, xs):
    x = xs[0]
    idx = node.attrs["indices"]
    if x.ndim != 2:
        raise ShapeError("take_rows expects a 2-d input")
    if idx.shape != (x.shape[0],):
        raise ShapeError("one index per row required")
    return x[np.arange(x.shape[0]), idx]


def _take_rows_bwd(node, g):
    x = node.inputs[0].value
    gx = np.zeros_like(x)
    gx[np.arange(x.shape[0]), node.attrs["indices"]] = g
    return [gx]


register_op("take_rows", _take_rows_fwd, _take_rows_bwd)


def take_rows(x, indices):
    """out[i] = x[i, indices[i]] for a 2-d x."""
    idx = np.asarray(indices)
    if idx.dtype.kind not in "iu":
        raise ShapeError("indices must be integers")
    return _node("take_rows", [x], {"indices": idx})
