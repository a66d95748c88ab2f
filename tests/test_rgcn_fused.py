"""Equivalence tests: the fused R-GCN kernels vs. the per-type loop.

The fused path (``typed_linear`` + ``segment_sum``) replaced a Python
loop over edge types (gather -> matmul -> scatter_add per type).  These
tests keep a reference implementation of that loop and assert the fused
ops match it to ~1e-10 in both outputs and parameter gradients, plus
numerical gradchecks on small random graphs.

The fused ops' sums run as planned sparse products
(:class:`~repro.autograd.segments.SparseSum`, cached per snapshot in a
:class:`~repro.graph.plan.MessagePlan`).  Those must equal the numpy
calls they replaced (``np.add.at``, ``np.add.reduceat``, kept in
``tests/oracles.py``) bit for bit, with or without a cached plan.
"""

import pickle

import numpy as np
import pytest

from repro.autograd import DtypePolicy, Tensor
from repro.autograd import functional as F
from repro.autograd import segments
from repro.autograd.segments import PAIRWISE_BLOCK, PLAIN_RUN, SparseSum
from repro.core.rgcn import RGCNLayer, RGCNStack
from repro.graph.plan import MessagePlan

from tests.oracles import reference_segment_sum, reference_typed_linear
from tests.test_autograd_tensor import numerical_grad

RNG = np.random.default_rng


def random_graph(rng, num_nodes=11, num_edge_types=6, num_edges=40, dim=5):
    nodes = rng.normal(size=(num_nodes, dim))
    edge_emb = rng.normal(size=(num_edge_types, dim))
    edges = np.stack(
        [
            rng.integers(0, num_nodes, size=num_edges),
            rng.integers(0, num_edge_types, size=num_edges),
            rng.integers(0, num_nodes, size=num_edges),
        ],
        axis=1,
    )
    edge_norm = rng.uniform(0.1, 1.0, size=num_edges)
    return nodes, edge_emb, edges, edge_norm


def loop_forward(layer, nodes, edge_embeddings, edges, edge_norm):
    """The pre-fusion per-edge-type reference implementation."""
    num_nodes = nodes.shape[0]
    out = nodes @ layer.self_weight
    edges = np.asarray(edges, dtype=np.int64)
    for edge_type in np.unique(edges[:, 1]):
        mask = edges[:, 1] == edge_type
        src = edges[mask, 0]
        dst = edges[mask, 2]
        norm = Tensor(edge_norm[mask][:, None])
        messages = nodes.gather_rows(src) + edge_embeddings[int(edge_type)]
        transformed = messages @ layer.weight[int(edge_type)]
        out = out + F.scatter_add(transformed * norm, dst, num_nodes)
    return out


def type_layout(rng, layout, num_rows, num_types):
    """Edge types: sorted, unsorted, or skewed (90 % on one hub type, sorted)."""
    if layout == "skewed":
        hub = np.full(int(0.9 * num_rows), 3)
        rest = rng.integers(0, num_types, size=num_rows - len(hub))
        return np.sort(np.concatenate([hub, rest]))
    types = rng.integers(0, num_types, size=num_rows)
    return np.sort(types) if layout == "sorted" else types


def run_typed_linear(kernel, x, w, types, coeff):
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    out = kernel(xt, wt, types)
    (out * Tensor(coeff)).sum().backward()
    return out.data, xt.grad, wt.grad


class TestTypedLinear:
    def test_matches_per_type_matmul(self):
        rng = RNG(0)
        x = rng.normal(size=(9, 4))
        weight = rng.normal(size=(3, 4, 6))
        types = rng.integers(0, 3, size=9)
        out = F.typed_linear(Tensor(x), Tensor(weight), types)
        expected = np.stack([x[i] @ weight[types[i]] for i in range(9)])
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    @pytest.mark.parametrize("sort_types", [True, False])
    def test_gradients_match_numerical(self, sort_types):
        rng = RNG(1)
        x_data = rng.normal(size=(7, 3))
        w_data = rng.normal(size=(4, 3, 3))
        types = rng.integers(0, 4, size=7)
        if sort_types:
            types = np.sort(types)
        coeff = rng.normal(size=(7, 3))

        x = Tensor(x_data.copy(), requires_grad=True)
        w = Tensor(w_data.copy(), requires_grad=True)
        (F.typed_linear(x, w, types) * Tensor(coeff)).sum().backward()

        expected_x = numerical_grad(
            lambda arr: (F.typed_linear(Tensor(arr), Tensor(w_data), types) * Tensor(coeff))
            .sum()
            .item(),
            x_data.copy(),
        )
        expected_w = numerical_grad(
            lambda arr: (F.typed_linear(Tensor(x_data), Tensor(arr), types) * Tensor(coeff))
            .sum()
            .item(),
            w_data.copy(),
        )
        np.testing.assert_allclose(x.grad, expected_x, atol=1e-5)
        np.testing.assert_allclose(w.grad, expected_w, atol=1e-5)

    @pytest.mark.parametrize("layout", ["sorted", "unsorted", "skewed"])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_bitwise_equal_to_the_numpy_kernels(self, layout, dtype):
        rng = RNG(7)
        types = type_layout(rng, layout, 300, 12)
        with DtypePolicy(dtype):
            x = rng.normal(size=(300, 5)).astype(dtype)
            w = rng.normal(size=(12, 5, 4)).astype(dtype)
            coeff = rng.normal(size=(300, 4)).astype(dtype)
            fused = run_typed_linear(F.typed_linear, x, w, types, coeff)
            numpy_kernels = run_typed_linear(reference_typed_linear, x, w, types, coeff)
        for got, want in zip(fused, numpy_kernels):
            assert got.dtype == np.dtype(dtype)
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("layout", ["sorted", "unsorted", "skewed"])
    def test_float32_matches_per_type_loop(self, layout):
        rng = RNG(8)
        types = type_layout(rng, layout, 200, 10)
        with DtypePolicy("float32"):
            x = rng.normal(size=(200, 6)).astype(np.float32)
            w = rng.normal(size=(10, 6, 3)).astype(np.float32)
            coeff = rng.normal(size=(200, 3)).astype(np.float32)
            out, grad_x, grad_w = run_typed_linear(F.typed_linear, x, w, types, coeff)
        # The per-type loop in float64: one matmul and one outer-product
        # sum per type.
        x64, w64, c64 = x.astype(np.float64), w.astype(np.float64), coeff.astype(np.float64)
        want_out = np.zeros((200, 3))
        want_x = np.zeros_like(x64)
        want_w = np.zeros_like(w64)
        for t in np.unique(types):
            rows = types == t
            want_out[rows] = x64[rows] @ w64[t]
            want_x[rows] = c64[rows] @ w64[t].T
            want_w[t] = x64[rows].T @ c64[rows]
        for got, want in ((out, want_out), (grad_x, want_x), (grad_w, want_w)):
            assert got.dtype == np.float32
            np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)

    def test_empty_edge_list(self):
        out = F.typed_linear(
            Tensor(np.zeros((0, 3)), requires_grad=True),
            Tensor(np.ones((2, 3, 3)), requires_grad=True),
            np.zeros(0, dtype=np.int64),
        )
        assert out.shape == (0, 3)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            F.typed_linear(Tensor(np.ones((3, 2))), Tensor(np.ones((2, 2, 2))), np.array([0]))
        with pytest.raises(ValueError):
            F.typed_linear(Tensor(np.ones((1, 2))), Tensor(np.ones((2, 2))), np.array([0]))


class TestSegmentSum:
    @pytest.mark.parametrize("sorted_ids", [True, False])
    def test_matches_scatter_add(self, sorted_ids):
        rng = RNG(2)
        src = rng.normal(size=(20, 4))
        ids = rng.integers(0, 7, size=20)
        if sorted_ids:
            ids = np.sort(ids)
        out = F.segment_sum(Tensor(src), ids, 7)
        ref = F.scatter_add(Tensor(src), ids, 7)
        np.testing.assert_allclose(out.data, ref.data, atol=1e-12)

    def test_backward_gathers(self):
        src = Tensor(np.ones((4, 2)), requires_grad=True)
        out = F.segment_sum(src, np.array([0, 0, 1, 2]), 3)
        (out * Tensor(np.arange(6.0).reshape(3, 2))).sum().backward()
        np.testing.assert_array_equal(src.grad, [[0, 1], [0, 1], [2, 3], [4, 5]])

    @pytest.mark.parametrize("sorted_ids", [True, False])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_bitwise_equal_to_the_numpy_kernels(self, sorted_ids, dtype):
        rng = RNG(9)
        ids = rng.integers(0, 30, size=400)
        if sorted_ids:
            ids = np.sort(ids)
        with DtypePolicy(dtype):
            src = Tensor(rng.normal(size=(400, 3)).astype(dtype))
            out = F.segment_sum(src, ids, 31)
            want = reference_segment_sum(src, ids, 31)
        assert out.data.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(out.data, want.data)

    def test_empty_segments_stay_zero(self):
        out = F.segment_sum(Tensor(np.ones((2, 3))), np.array([4, 4]), 6)
        np.testing.assert_array_equal(out.data[:4], np.zeros((4, 3)))
        np.testing.assert_array_equal(out.data[5], np.zeros(3))


class TestFusedLayerEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_forward_matches_loop(self, seed):
        rng = RNG(seed)
        nodes, edge_emb, edges, edge_norm = random_graph(rng)
        layer = RGCNLayer(6, 5, dropout=0.0, activation=False, rng=RNG(seed)).eval()
        fused = layer(Tensor(nodes), Tensor(edge_emb), edges, edge_norm)
        reference = loop_forward(layer, Tensor(nodes), Tensor(edge_emb), edges, edge_norm)
        np.testing.assert_allclose(fused.data, reference.data, atol=1e-10)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_gradients_match_loop(self, seed):
        rng = RNG(seed)
        nodes, edge_emb, edges, edge_norm = random_graph(rng)
        coeff = rng.normal(size=(11, 5))

        def run(path):
            layer = RGCNLayer(6, 5, dropout=0.0, activation=False, rng=RNG(seed))
            n = Tensor(nodes.copy(), requires_grad=True)
            e = Tensor(edge_emb.copy(), requires_grad=True)
            out = path(layer, n, e, edges, edge_norm)
            (out * Tensor(coeff)).sum().backward()
            return n.grad, e.grad, layer.weight.grad, layer.self_weight.grad

        fused_grads = run(lambda layer, *a: layer(*a))
        loop_grads = run(loop_forward)
        for got, want in zip(fused_grads, loop_grads):
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_stack_forward_matches_loop(self):
        rng = RNG(5)
        nodes, edge_emb, edges, edge_norm = random_graph(rng)
        stack = RGCNStack(6, 5, num_layers=2, dropout=0.0, rng=RNG(5)).eval()
        fused = stack(Tensor(nodes), Tensor(edge_emb), edges, edge_norm)
        out = Tensor(nodes)
        for i in range(2):
            layer = getattr(stack, f"layer{i}")
            out = loop_forward(layer, out, Tensor(edge_emb), edges, edge_norm)
            out = F.rrelu(out, training=False)
        np.testing.assert_allclose(fused.data, out.data, atol=1e-10)

    def test_unsorted_and_sorted_edges_agree(self):
        rng = RNG(6)
        nodes, edge_emb, edges, edge_norm = random_graph(rng)
        layer = RGCNLayer(6, 5, dropout=0.0, activation=False, rng=RNG(6)).eval()
        out_unsorted = layer(Tensor(nodes), Tensor(edge_emb), edges, edge_norm)
        order = np.argsort(edges[:, 1], kind="stable")
        out_sorted = layer(Tensor(nodes), Tensor(edge_emb), edges[order], edge_norm[order])
        np.testing.assert_allclose(out_unsorted.data, out_sorted.data, atol=1e-12)

    def test_unseeded_layer_is_reproducible(self):
        a = RGCNLayer(4, 3)
        b = RGCNLayer(4, 3)
        np.testing.assert_array_equal(a.weight.data, b.weight.data)
        np.testing.assert_array_equal(a.self_weight.data, b.self_weight.data)

    @pytest.mark.parametrize("training", [False, True])
    def test_cached_plan_and_bare_edges_agree_exactly(self, training):
        rng = RNG(10)
        nodes, edge_emb, edges, edge_norm = random_graph(rng, num_edges=60)
        coeff = rng.normal(size=(11, 5))
        plan = MessagePlan.build(edges, edge_norm)

        def run(**kwargs):
            stack = RGCNStack(6, 5, num_layers=2, dropout=0.2, rng=RNG(11))
            stack.train(training)
            n = Tensor(nodes.copy(), requires_grad=True)
            e = Tensor(edge_emb.copy(), requires_grad=True)
            out = stack(n, e, edges, edge_norm, **kwargs)
            (out * Tensor(coeff)).sum().backward()
            grads = [n.grad, e.grad] + [p.grad for p in stack.parameters()]
            return out.data, grads

        cached_out, cached_grads = run(plan=plan)
        bare_out, bare_grads = run()
        np.testing.assert_array_equal(cached_out, bare_out)
        assert len(cached_grads) == len(bare_grads) == 2 + 2 * 2
        for got, want in zip(cached_grads, bare_grads):
            np.testing.assert_array_equal(got, want)

    def test_plan_sorts_edges_by_type_stably(self):
        rng = RNG(12)
        _, _, edges, edge_norm = random_graph(rng)
        plan = MessagePlan.build(edges, edge_norm)
        order = np.argsort(edges[:, 1], kind="stable")
        np.testing.assert_array_equal(plan.edges, edges[order])
        np.testing.assert_array_equal(plan.edge_norm, edge_norm[order])
        assert len(plan) == len(edges)
        with pytest.raises(ValueError):
            MessagePlan.build(edges, edge_norm[:-1])


def add_at(values, index, num_rows):
    out = np.zeros((num_rows,) + values.shape[1:], dtype=values.dtype)
    np.add.at(out, index, values)
    return out


class TestSparseSum:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "index, num_rows",
        [
            # Duplicate targets; rows 1, 4 and 6 get no entries.
            (np.array([5, 0, 5, 2, 3, 0, 5, 2]), 7),
            # Every entry on one row.
            (np.full(12, 3), 4),
            # Nothing at all (an empty snapshot).
            (np.zeros(0, dtype=np.int64), 5),
        ],
    )
    def test_add_at_is_bitwise_np_add_at(self, dtype, index, num_rows):
        rng = RNG(13)
        values = rng.normal(size=(len(index), 4, 2)).astype(dtype)
        values[:, 0] = -0.0  # signed zeros must survive too
        got = SparseSum.add_at(index)(values, num_rows)
        want = add_at(values, index, num_rows)
        assert got.dtype == dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_reduceat_equals_np_add_reduceat(self, dtype):
        # Runs around the plain-loop limit, through numpy's 8-lane
        # pairwise block (with and without remaining terms) and on both
        # sides of its 128-term split.
        lengths = [1, 2, 3, 7, PLAIN_RUN, PLAIN_RUN + 1, 16, 17, 23, 41]
        lengths += [PAIRWISE_BLOCK + 1, PAIRWISE_BLOCK + 2, 300, 1, 5]
        rng = RNG(14)
        ids = np.repeat(np.sort(rng.choice(1000, size=len(lengths), replace=False)), lengths)
        # Mixed magnitudes, so any other summation order shows.
        scale = 10.0 ** rng.integers(-4, 5, size=(len(ids), 6))
        values = (rng.normal(size=(len(ids), 6)) * scale).astype(dtype)
        starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
        want = np.zeros((1000, 6), dtype=dtype)
        want[ids[starts]] = np.add.reduceat(values, starts, axis=0)
        got = SparseSum.reduceat(ids)(values, 1000)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)

    def test_reduceat_rejects_unsorted_ids(self):
        with pytest.raises(ValueError):
            SparseSum.reduceat(np.array([0, 2, 1]))

    @pytest.mark.parametrize("ids", [np.array([0, 0, 1, 3]), np.array([3, 0, 0, 1])])
    def test_segments_follows_the_numpy_kernel_for_the_order(self, ids):
        values = RNG(15).normal(size=(4, 3))
        want = np.zeros((4, 3))
        if np.all(ids[1:] >= ids[:-1]):
            starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
            want[ids[starts]] = np.add.reduceat(values, starts, axis=0)
        else:
            np.add.at(want, ids, values)
        np.testing.assert_array_equal(SparseSum.segments(ids)(values, 4), want)

    def test_rejects_bad_index_and_values(self):
        with pytest.raises(ValueError):
            SparseSum.add_at(np.array([0, -1]))
        with pytest.raises(ValueError):
            SparseSum.add_at(np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            SparseSum.add_at(np.array([0, 1]))(np.ones((3, 2)), 2)

    @pytest.mark.parametrize("build", [SparseSum.add_at, SparseSum.reduceat])
    def test_pickled_plan_sums_the_same(self, build):
        ids = np.array([0, 1, 1, 2] + [4] * 12)
        values = RNG(16).normal(size=(len(ids), 3)).astype(np.float32)
        plan = build(ids)
        clone = pickle.loads(pickle.dumps(plan))
        np.testing.assert_array_equal(clone(values, 5), plan(values, 5))


class TestAddAt:
    """``segments.add_at``, the unplanned index sum, against ``np.add.at``."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "shape, index",
        [
            # Duplicate and negative rows.
            ((7, 3), np.array([5, 0, 5, 2, -1, 0, -7])),
            # A 2-D index array, and a narrow dtype whose offsets pass 127.
            ((5, 2, 2), np.array([[1, 1], [4, 0]])),
            ((40, 5), np.array([39, 3, 39, -40], dtype=np.int8)),
            # A broadcast tuple over two leading axes, as the decoder gathers.
            ((3, 6, 2), (np.arange(3)[:, None], np.array([[5, 0, 5, -2]]))),
            # A 1-D target and an empty index.
            ((4,), np.array([3, 3, 0])),
            ((4, 3), np.zeros(0, dtype=np.int64)),
            # A basic index goes to np.add.at as given.
            ((4, 3), (slice(1, 3),)),
        ],
    )
    def test_bitwise_np_add_at(self, dtype, shape, index):
        values = RNG(17).normal(size=np.zeros(shape)[index].shape).astype(dtype)
        values.flat[::3] = -0.0  # signed zeros must survive too
        want = np.zeros(shape, dtype=dtype)
        np.add.at(want, index, values)
        got = np.zeros(shape, dtype=dtype)
        segments.add_at(got, index, values)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "index, values_shape",
        [
            (np.array([0, 3]), (2, 3)),
            (np.array([0, -4]), (2, 3)),
            ((np.array([0, 2]), np.array([1, 3])), (2,)),
        ],
    )
    def test_out_of_range_raises(self, index, values_shape):
        with pytest.raises(IndexError):
            np.add.at(np.zeros((3, 3)), index, np.ones(values_shape))
        with pytest.raises(IndexError):
            segments.add_at(np.zeros((3, 3)), index, np.ones(values_shape))

    def test_non_contiguous_target(self):
        values = RNG(18).normal(size=(5, 3))
        index = np.array([2, 0, 2, 1, 2])
        want = np.zeros((3, 3))
        np.add.at(want, index, values)
        got = np.zeros((3, 3)).T
        segments.add_at(got, index, values)
        np.testing.assert_array_equal(got, want)
