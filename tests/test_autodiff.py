import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biasloss import autodiff as ad
from biasloss import layers, train
from fdcheck import assert_grads_close


class TestUnfold:
    def test_row_major_flatten(self):
        x = ad.constant(np.arange(1, 9, dtype=np.float32).reshape(2, 1, 2, 2))
        u = ad.unfold(x)
        ad.forward(u)
        np.testing.assert_array_equal(u.value, [[1, 2, 3, 4], [5, 6, 7, 8]])

    def test_singleton(self):
        x = ad.constant(np.full((1, 1, 1, 1), 9.0))
        ad.forward(u := ad.unfold(x))
        np.testing.assert_array_equal(u.value, [[9.0]])

    def test_rank_2_rejected(self):
        x = ad.constant(np.zeros((2, 3)))
        with pytest.raises(ad.ShapeError):
            ad.forward(ad.unfold(x))

    def test_zero_copy(self):
        x = ad.constant(np.zeros((2, 3, 4, 5), dtype=np.float32))
        u = ad.unfold(x)
        ad.forward(u)
        assert u.value.base is x.value or u.value.base is x.value.base


class TestForward:
    def test_add(self):
        a, b = ad.leaf(np.array(2.0)), ad.leaf(np.array(3.0))
        assert ad.forward(a + b) == 5.0

    def test_unset_leaf(self):
        x = ad.leaf()
        with pytest.raises(ad.UninitializedValueError):
            ad.forward(x + ad.constant(np.array(1.0)))

    def test_cycle_detected(self):
        a = ad.leaf(np.array(1.0))
        b = a + a
        c = b + a
        b.inputs[0] = c  # deliberately corrupt the DAG
        with pytest.raises(ad.GraphError):
            ad.forward(c)

    def test_referential_transparency(self):
        rng = np.random.default_rng(0)
        x = ad.leaf(rng.normal(size=(4, 4)).astype(np.float32))
        y = ad.sum_(ad.exp(ad.mul(x, x)))
        v1 = ad.forward(y).copy()
        v2 = ad.forward(y)
        assert np.array_equal(v1, v2)

    def test_forward_pass_shares_prefix(self):
        calls = []
        orig = ad._FORWARD["exp"]

        def counting(node, xs):
            calls.append(node.id)
            return orig(node, xs)

        ad._FORWARD["exp"] = counting
        try:
            x = ad.leaf(np.array(1.0))
            e = ad.exp(x)
            fp = ad.ForwardPass()
            fp.run(e)
            fp.run(e + e)  # same pass: exp must not be recomputed
            assert len(calls) == 1
        finally:
            ad._FORWARD["exp"] = orig

    def test_validate_flag_traps_nonfinite(self):
        x = ad.leaf(np.array(1000.0))
        y = ad.exp(x)
        with np.errstate(over="ignore"):
            ad.forward(y)  # silent by default
            with pytest.raises(FloatingPointError):
                ad.forward(ad.exp(y), validate=True)


class TestInferencePass:
    @pytest.fixture(scope="class")
    def graph(self):
        """The default model in eval mode, wired on one batch, and the
        values a retaining pass gives its logits, feature map and probes."""
        model = layers.SkipblockNetMicro(seed=0)
        model.eval()
        images = np.random.default_rng(0).normal(
            size=(16, 1, 28, 28)).astype(np.float32)
        out = layers.GraphCache(model).get(images)
        ad.forward(out.logits)
        reads = {"logits": out.logits, "feature_map": out.feature_map,
                 **out.probes}
        return model, out, {k: n.value.copy() for k, n in reads.items()}

    def test_kept_values_match_a_retaining_pass(self, graph):
        _, out, want = graph
        fp = ad.ForwardPass(keep=(out.logits, out.feature_map))
        assert np.array_equal(fp.run(out.logits), want["logits"])
        assert np.array_equal(fp.run(out.feature_map), want["feature_map"])
        fp = ad.ForwardPass(keep=list(out.probes.values()))
        for name, node in out.probes.items():
            assert np.array_equal(fp.run(node), want[name]), name

    def test_probes_run_one_by_one(self, graph):
        # a later root reads ancestors that an earlier one shared
        _, out, want = graph
        names = ["head", "block2", "skip0_5", "stem"]
        fp = ad.ForwardPass(keep=[out.probes[n] for n in names])
        for name in names:
            assert np.array_equal(fp.run(out.probes[name]), want[name]), name

    def test_frees_all_but_kept_values_and_leaves(self, graph):
        model, out, _ = graph
        nodes = ad.topo_order(out.logits)
        leaves = {n.id: n.value for n in nodes if n.op == "leaf"}
        params = {id(p.node): p.node.value.copy() for p in model.parameters()}
        ad.ForwardPass(keep=(out.logits, out.feature_map)).run(out.logits)
        kept = {out.logits.id, out.feature_map.id}
        for node in nodes:
            assert node.ctx is None, node
            if node.op == "leaf":
                assert node.value is leaves[node.id], node
            else:
                assert (node.value is None) == (node.id not in kept), node
        for p in model.parameters():
            assert np.array_equal(p.node.value, params[id(p.node)])

    def test_shared_ancestor_computed_once(self, monkeypatch):
        calls = []
        orig = ad._FORWARD["exp"]

        def counting(node, xs):
            calls.append(node.id)
            return orig(node, xs)

        monkeypatch.setitem(ad._FORWARD, "exp", counting)
        x = ad.leaf(np.array([1.0, 2.0]))
        e = ad.exp(x)
        a, b = e * 2.0, e + 1.0
        fp = ad.ForwardPass(keep=(a, b))
        np.testing.assert_array_equal(fp.run(a), 2 * np.exp([1.0, 2.0]))
        np.testing.assert_array_equal(fp.run(b), np.exp([1.0, 2.0]) + 1)
        assert calls == [e.id]
        assert e.value is None and x.value is not None

    @pytest.mark.parametrize("order", ["depth", "reversed", "shuffled"])
    def test_each_node_computed_once_in_any_root_order(self, graph,
                                                       monkeypatch, order):
        # the first run computes every kept root's ancestry; later runs
        # only read, whatever order the roots come in
        _, out, want = graph
        names = list(out.probes)
        if order == "reversed":
            names.reverse()
        elif order == "shuffled":
            np.random.default_rng(0).shuffle(names)
        calls = []
        for op, fwd in list(ad._FORWARD.items()):
            def counting(node, xs, fwd=fwd):
                calls.append(node.id)
                return fwd(node, xs)
            monkeypatch.setitem(ad._FORWARD, op, counting)
        keep = [out.probes[n] for n in names]
        ancestry = {n.id for n in ad.topo_order(*keep) if n.op != "leaf"}
        fp = ad.ForwardPass(keep=keep)
        for i, name in enumerate(names):
            assert np.array_equal(fp.run(out.probes[name]), want[name]), name
            if not i:
                assert sorted(calls) == sorted(ancestry)
        assert sorted(calls) == sorted(ancestry)

    def test_unnamed_root_rejected(self):
        x = ad.leaf(np.array(1.0))
        e = ad.exp(x)
        fp = ad.ForwardPass(keep=(e,))
        with pytest.raises(ad.GraphError, match="not named"):
            fp.run(ad.neg(e))

    @staticmethod
    def _inference_peak(depth, n=1 << 18):
        """Peak bytes traced during an inference pass over a depth-long
        elementwise chain on 1 MiB arrays."""
        y = ad.leaf(np.full(n, 0.5, np.float32))
        for _ in range(depth):
            y = ad.exp(ad.neg(y))
        tracemalloc.start()
        try:
            assert ad.ForwardPass(keep=(y,)).run(y).nbytes == 4 * n
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_inference_memory_is_the_frontier(self):
        # each value is freed once its consumer ran: the peak is a few
        # arrays, whatever the depth (a retaining pass holds 2 * depth)
        mib = 1 << 20
        shallow, deep = self._inference_peak(4), self._inference_peak(32)
        assert deep <= 4 * mib
        assert deep - shallow < mib // 2


class TestBackward:
    def test_square(self):
        x = ad.parameter(np.array(3.0))
        y = ad.mul(x, x)
        ad.forward(y)
        assert ad.backward(y)[x] == 6.0

    def test_non_scalar_root(self):
        x = ad.parameter(np.array([1.0, 2.0]))
        y = x + x
        ad.forward(y)
        with pytest.raises(ValueError):
            ad.backward(y)

    def test_unreached_node_reads_zero(self):
        x = ad.parameter(np.array([1.0, 2.0]))
        other = ad.parameter(np.array(5.0))
        root = ad.sum_(x)
        ad.forward(other)
        ad.forward(root)
        g = ad.backward(root)
        assert g[other] == 0.0

    def test_non_leaf_lookup_raises(self):
        x = ad.parameter(np.array([1.0, 2.0]))
        h = ad.exp(x)
        root = ad.sum_(h)
        ad.forward(root)
        g = ad.backward(root)
        for node in (h, root):
            with pytest.raises(KeyError, match="leaves only"):
                g[node]
            assert node not in g and g.get(node) is None
        np.testing.assert_allclose(g[x], np.exp([1.0, 2.0]))

    @staticmethod
    def _backward_peak(depth, n=1 << 18):
        """Peak bytes traced during backward of a depth-long elementwise
        chain on 1 MiB arrays; the forward values exist beforehand."""
        y = x = ad.parameter(np.full(n, 0.5, np.float32))
        for _ in range(depth):
            y = ad.exp(ad.neg(y))
        root = ad.sum_(y)
        ad.forward(root)
        tracemalloc.start()
        try:
            assert ad.backward(root)[x].nbytes == 4 * n
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_backward_memory_is_the_frontier(self):
        # consumed gradients are freed: the peak is a few arrays, whatever
        # the depth
        mib = 1 << 20
        shallow, deep = self._backward_peak(4), self._backward_peak(32)
        assert deep <= 4 * mib
        assert deep - shallow < mib // 2

    def test_mlp_matches_finite_differences(self):
        # three dense layers with mixed nonlinearity, f64
        rng = np.random.default_rng(7)
        x = ad.constant(rng.uniform(-2, 2, (5, 6)))
        params = []
        h = x
        for i, (cin, cout) in enumerate([(6, 8), (8, 8), (8, 3)]):
            w = ad.parameter(rng.uniform(-1, 1, (cin, cout)) / np.sqrt(cin))
            b = ad.parameter(rng.uniform(-0.2, 0.2, (cout,)))
            params += [w, b]
            h = ad.matmul(h, w) + b
            if i < 2:
                h = ad.clamp(h, 0.0, 1.0)
        root = ad.mean(ad.exp(h * 0.3))
        assert_grads_close(root, params, eps=1e-4, rtol=1e-4)

class TestPrimitiveGradients:
    """Central differences over each primitive on random inputs in [-2, 2]."""

    @pytest.mark.parametrize("make", [
        lambda x: ad.exp(x * 0.5),
        lambda x: ad.mul(x, x),
        lambda x: ad.div(x, x + 3.0),
        lambda x: ad.neg(x),
        lambda x: ad.power(x + 3.0, 1.7),
        lambda x: ad.reshape(x, (-1,)),
        lambda x: ad.mean(x, axis=0, keepdims=True),
        lambda x: ad.sum_(x, axis=1),
    ], ids=["exp", "mul", "div", "neg", "power", "reshape", "mean_axis",
            "sum_axis"])
    def test_smooth_primitives(self, make):
        rng = np.random.default_rng(11)
        x = ad.parameter(rng.uniform(-2, 2, (3, 4)))
        root = ad.sum_(ad.mul(make(x), ad.constant(rng.normal(size=1))))
        assert_grads_close(root, [x], eps=1e-5, rtol=1e-4)

    def test_matmul(self):
        rng = np.random.default_rng(3)
        a = ad.parameter(rng.uniform(-2, 2, (3, 4)))
        b = ad.parameter(rng.uniform(-2, 2, (4, 2)))
        root = ad.sum_(ad.mul(ad.matmul(a, b),
                              ad.constant(rng.normal(size=(3, 2)))))
        assert_grads_close(root, [a, b], eps=1e-5, rtol=1e-4)

    def test_broadcast_binary(self):
        rng = np.random.default_rng(4)
        a = ad.parameter(rng.uniform(-2, 2, (3, 1, 5)))
        b = ad.parameter(rng.uniform(1, 2, (4, 5)))
        root = ad.sum_(ad.div(ad.mul(a, b), b + 1.0))
        assert_grads_close(root, [a, b], eps=1e-5, rtol=1e-4)

    def test_clamp_interior(self):
        rng = np.random.default_rng(6)
        x = ad.parameter(rng.uniform(-2, 2, (4, 4)))
        # keep inputs off the clamp thresholds so FD is valid
        x.value[np.abs(np.abs(x.value) - 1.0) < 0.05] = 0.5
        root = ad.sum_(ad.clamp(x, -1.0, 1.0))
        assert_grads_close(root, [x], eps=1e-5, rtol=1e-4)

    def test_log_softmax_and_take_rows(self):
        rng = np.random.default_rng(8)
        x = ad.parameter(rng.uniform(-2, 2, (6, 5)))
        labels = rng.integers(0, 5, size=6)
        root = ad.mean(ad.neg(ad.take_rows(ad.log_softmax(x), labels)))
        assert_grads_close(root, [x], eps=1e-5, rtol=1e-4)


class TestReductionOracles:
    """sum/mean against naive scalar loops (f64)."""

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_sum_mean_max_match_loop(self, values):
        arr = np.array(values, dtype=np.float64)
        node = ad.constant(arr)
        s = ad.forward(ad.sum_(node))
        m = ad.forward(ad.mean(node))
        acc = 0.0
        mag = 0.0
        for v in values:
            acc += v
            mag += abs(v)
        loop_mean = acc / len(values)
        # summation-order roundoff scales with the summand magnitudes
        assert abs(s - acc) <= 1e-12 * max(1.0, mag)
        assert abs(m - loop_mean) <= 1e-12 * max(1.0, mag / len(values))


class TestDtypeDiscipline:
    def test_f32_stays_f32_through_scalar_sugar(self):
        x = ad.leaf(np.ones((2, 2), dtype=np.float32))
        y = (x + 1.0) * 0.5 - 2.0
        ad.forward(y)
        assert y.value.dtype == np.float32

    def test_f64_mode(self):
        x = ad.leaf(np.ones((2, 2), dtype=np.float64))
        y = ad.exp(x / 3.0)
        ad.forward(y)
        assert y.value.dtype == np.float64


class TestOpRegistry:
    def test_engine_graphs_reach_every_registered_op(self):
        # an op that no training graph reaches is dead code
        model = layers.SkipblockNetMicro(
            layers.MicroNetSpec(width_multiplier=0.25), seed=0)
        rng = np.random.default_rng(0)
        out = layers.GraphCache(model).get(
            rng.normal(size=(4, 1, 8, 8)).astype(np.float32))
        labels = np.arange(4)
        reached = set()
        for loss, detach in (("ce", True), ("focal", True), ("bias", True),
                             ("bias", False)):
            cfg = train.TrainConfig(loss=loss, detach_weight=detach)
            root = train._batch_loss(cfg, out.logits, out.feature_map,
                                     labels, train._epoch_stats(), loss)
            reached |= {n.op for n in ad.topo_order(root)}
        assert reached - {"leaf"} == set(ad._FORWARD) - {"leaf"}
