"""Unit and property tests for composite autograd ops."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import DtypePolicy, Tensor
from repro.autograd import functional as F

from tests.oracles import reference_conv2d, reference_rrelu_slope, reference_sigmoid
from tests.test_autograd_tensor import numerical_grad


class TestConcatStack:
    def test_concat_forward_backward(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((3, 2)) * 2, requires_grad=True)
        out = F.concat([a, b], axis=0)
        assert out.shape == (5, 2)
        (out * Tensor(np.arange(10.0).reshape(5, 2))).sum().backward()
        np.testing.assert_array_equal(a.grad, [[0.0, 1.0], [2.0, 3.0]])
        np.testing.assert_array_equal(b.grad, [[4.0, 5.0], [6.0, 7.0], [8.0, 9.0]])

    def test_concat_axis1(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        out = F.concat([a, b], axis=1)
        assert out.shape == (2, 5)
        out.sum().backward()
        np.testing.assert_array_equal(a.grad, np.ones((2, 2)))

    def test_stack(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        out = F.stack([a, b], axis=0)
        assert out.shape == (2, 3)
        (out[0]).sum().backward()
        np.testing.assert_array_equal(a.grad, np.ones(3))
        np.testing.assert_array_equal(b.grad, np.zeros(3))


class TestSoftmax:
    def test_softmax_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 7)))
        out = F.softmax(x, axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4), atol=1e-12)

    def test_softmax_gradient_matches_numerical(self):
        rng = np.random.default_rng(1)
        x_data = rng.normal(size=(3, 5))
        x = Tensor(x_data.copy(), requires_grad=True)
        weights = rng.normal(size=(3, 5))
        (F.softmax(x) * Tensor(weights)).sum().backward()
        expected = numerical_grad(
            lambda arr: (F.softmax(Tensor(arr)) * Tensor(weights)).sum().item(),
            x_data.copy(),
        )
        np.testing.assert_allclose(x.grad, expected, atol=1e-5)

    def test_log_softmax_gradient(self):
        rng = np.random.default_rng(2)
        x_data = rng.normal(size=(2, 4))
        x = Tensor(x_data.copy(), requires_grad=True)
        weights = rng.normal(size=(2, 4))
        (F.log_softmax(x) * Tensor(weights)).sum().backward()
        expected = numerical_grad(
            lambda arr: (F.log_softmax(Tensor(arr)) * Tensor(weights)).sum().item(),
            x_data.copy(),
        )
        np.testing.assert_allclose(x.grad, expected, atol=1e-5)

    def test_softmax_large_logits_stable(self):
        x = Tensor(np.array([[1000.0, 1000.0, -1000.0]]))
        out = F.softmax(x).data
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out[0, :2], [0.5, 0.5])

    def test_log_softmax_equals_log_of_softmax(self):
        x = Tensor(np.random.default_rng(3).normal(size=(3, 6)))
        np.testing.assert_allclose(
            F.log_softmax(x).data, np.log(F.softmax(x).data), atol=1e-12
        )


class TestScatterSegment:
    def test_scatter_add_forward(self):
        src = Tensor(np.arange(8.0).reshape(4, 2))
        out = F.scatter_add(src, np.array([0, 1, 0, 2]), 3)
        np.testing.assert_array_equal(out.data, [[4.0, 6.0], [2.0, 3.0], [6.0, 7.0]])

    def test_scatter_add_backward(self):
        src = Tensor(np.ones((4, 2)), requires_grad=True)
        out = F.scatter_add(src, np.array([0, 1, 0, 2]), 3)
        (out * Tensor(np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]))).sum().backward()
        np.testing.assert_array_equal(src.grad[:, 0], [1.0, 2.0, 1.0, 3.0])

    def test_scatter_add_empty_segment_is_zero(self):
        src = Tensor(np.ones((2, 3)))
        out = F.scatter_add(src, np.array([0, 0]), 4)
        np.testing.assert_array_equal(out.data[1:], np.zeros((3, 3)))

    def test_scatter_add_rejects_bad_index(self):
        with pytest.raises(ValueError):
            F.scatter_add(Tensor(np.ones((3, 2))), np.array([0, 1]), 2)

    def test_segment_mean(self):
        src = Tensor(np.array([[2.0], [4.0], [10.0]]))
        out = F.segment_mean(src, np.array([0, 0, 1]), 3)
        np.testing.assert_array_equal(out.data, [[3.0], [10.0], [0.0]])

    def test_segment_mean_backward(self):
        src = Tensor(np.ones((2, 1)), requires_grad=True)
        F.segment_mean(src, np.array([0, 0]), 1).sum().backward()
        np.testing.assert_allclose(src.grad, [[0.5], [0.5]])

    @given(
        n_edges=st.integers(min_value=1, max_value=30),
        n_nodes=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_scatter_add_conserves_mass(self, n_edges, n_nodes, seed):
        """Property: total message mass is conserved by scatter_add."""
        rng = np.random.default_rng(seed)
        src = rng.normal(size=(n_edges, 3))
        index = rng.integers(0, n_nodes, size=n_edges)
        out = F.scatter_add(Tensor(src), index, n_nodes)
        np.testing.assert_allclose(out.data.sum(axis=0), src.sum(axis=0), atol=1e-9)


class TestDropoutRReLU:
    def test_dropout_eval_identity(self):
        x = Tensor(np.ones((5, 5)))
        out = F.dropout(x, 0.5, training=False)
        assert out is x

    def test_dropout_preserves_expectation(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.3, training=True, rng=rng)
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_dropout_p_one_rejected(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), 1.0, training=True)

    def test_rrelu_eval_uses_mean_slope(self):
        x = Tensor(np.array([-8.0, 8.0]))
        out = F.rrelu(x, lower=0.25, upper=0.25, training=False)
        np.testing.assert_allclose(out.data, [-2.0, 8.0])

    def test_rrelu_training_slope_in_range(self):
        rng = np.random.default_rng(0)
        x = Tensor(-np.ones(1000))
        out = F.rrelu(x, lower=0.1, upper=0.3, training=True, rng=rng)
        assert np.all(out.data <= -0.1 + 1e-12)
        assert np.all(out.data >= -0.3 - 1e-12)

    def test_rrelu_gradient(self):
        x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        F.rrelu(x, lower=0.2, upper=0.2, training=False).sum().backward()
        np.testing.assert_allclose(x.grad, [0.2, 1.0])


def special_values(dtype) -> np.ndarray:
    """±0, ±inf, NaN, ±subnormals, ±tiny, ±max, |z| > 100 and a normal spread."""
    info = np.finfo(dtype)
    edges = [0.0, -0.0, np.inf, -np.inf, np.nan, info.smallest_subnormal,
             -info.smallest_subnormal, info.tiny, -info.tiny, info.max, -info.max,
             100.5, -100.5, 750.0, -750.0, 1e4, -1e4, 1.0, -1.0]
    spread = 40.0 * np.random.default_rng(7).normal(size=4000)
    return np.concatenate([np.array(edges), spread]).astype(dtype)


def assert_bits_equal(got, expected):
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)  # NaN equals NaN here
    np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestBranchFreeSelects:
    """``np.maximum`` forms equal the ``np.where`` selects they replaced."""

    def test_sigmoid(self, dtype):
        z = special_values(dtype)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = reference_sigmoid(z)
            got = F._sigmoid_(z.copy())
        assert_bits_equal(got, expected)

    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    def test_rrelu(self, dtype, training):
        x = special_values(dtype)
        slope = reference_rrelu_slope(x, 0.125, 1 / 3, training, np.random.default_rng(3))
        with DtypePolicy(dtype), np.errstate(invalid="ignore"):
            t = Tensor(x, requires_grad=True)
            out = F.rrelu(t, training=training, rng=np.random.default_rng(3))
            out.backward(np.ones_like(x))
            assert_bits_equal(out.data, x * slope)
        assert_bits_equal(t.grad, slope)

    def test_rrelu_slopes_outside_unit_interval_rejected(self, dtype):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            F.rrelu(Tensor(np.ones(3, dtype=dtype)), lower=0.5, upper=1.5)


class TestLayerNorm:
    def test_layer_norm_zero_mean_unit_var(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 16)) * 5 + 3)
        out = F.layer_norm(x).data
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros(4), atol=1e-8)
        np.testing.assert_allclose(out.std(axis=-1), np.ones(4), atol=1e-3)

    def test_layer_norm_gradient(self):
        rng = np.random.default_rng(5)
        x_data = rng.normal(size=(2, 6))
        x = Tensor(x_data.copy(), requires_grad=True)
        weights = rng.normal(size=(2, 6))
        (F.layer_norm(x) * Tensor(weights)).sum().backward()
        expected = numerical_grad(
            lambda arr: (F.layer_norm(Tensor(arr)) * Tensor(weights)).sum().item(),
            x_data.copy(),
        )
        np.testing.assert_allclose(x.grad, expected, atol=1e-4)


class TestConv2d:
    def test_conv2d_known_values(self):
        # 1x1x3x3 input, 1x1x2x2 kernel of ones = sliding window sums.
        x = Tensor(np.arange(9.0).reshape(1, 1, 3, 3))
        w = Tensor(np.ones((1, 1, 2, 2)))
        out = F.conv2d(x, w)
        np.testing.assert_array_equal(out.data[0, 0], [[8.0, 12.0], [20.0, 24.0]])

    def test_conv2d_padding(self):
        x = Tensor(np.ones((1, 1, 2, 2)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        out = F.conv2d(x, w, padding=(1, 1))
        assert out.shape == (1, 1, 2, 2)
        np.testing.assert_array_equal(out.data[0, 0], [[4.0, 4.0], [4.0, 4.0]])

    def test_conv2d_bias(self):
        x = Tensor(np.zeros((2, 1, 2, 2)))
        w = Tensor(np.zeros((3, 1, 1, 1)))
        b = Tensor(np.array([1.0, 2.0, 3.0]))
        out = F.conv2d(x, w, bias=b)
        np.testing.assert_array_equal(out.data[0, :, 0, 0], [1.0, 2.0, 3.0])

    def test_conv2d_gradients_match_numerical(self):
        rng = np.random.default_rng(7)
        x_data = rng.normal(size=(2, 2, 4, 3))
        w_data = rng.normal(size=(3, 2, 2, 2))
        b_data = rng.normal(size=3)
        x = Tensor(x_data.copy(), requires_grad=True)
        w = Tensor(w_data.copy(), requires_grad=True)
        b = Tensor(b_data.copy(), requires_grad=True)
        F.conv2d(x, w, bias=b, padding=(1, 0)).sum().backward()

        def loss_x(arr):
            return F.conv2d(Tensor(arr), Tensor(w_data), Tensor(b_data), (1, 0)).sum().item()

        def loss_w(arr):
            return F.conv2d(Tensor(x_data), Tensor(arr), Tensor(b_data), (1, 0)).sum().item()

        def loss_b(arr):
            return F.conv2d(Tensor(x_data), Tensor(w_data), Tensor(arr), (1, 0)).sum().item()

        np.testing.assert_allclose(x.grad, numerical_grad(loss_x, x_data.copy()), atol=1e-5)
        np.testing.assert_allclose(w.grad, numerical_grad(loss_w, w_data.copy()), atol=1e-5)
        np.testing.assert_allclose(b.grad, numerical_grad(loss_b, b_data.copy()), atol=1e-5)

    @pytest.mark.parametrize("batch", [1, 3, 12, 37, 432])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_conv2d_bitwise_equal_to_batch_first_einsum(self, batch, dtype):
        # The Conv-TransE shape; the batch-last einsum must repeat the
        # batch-first one's sums exactly and hand back the same layout.
        rng = np.random.default_rng(batch)
        x = rng.normal(size=(batch, 1, 2, 20)).astype(dtype)
        w = rng.normal(size=(10, 1, 2, 3)).astype(dtype)
        b = rng.normal(size=10).astype(dtype)
        grad = rng.normal(size=(batch, 10, 1, 20)).astype(dtype)
        results = []
        with DtypePolicy(dtype):
            for kernel in (F.conv2d, reference_conv2d):
                xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
                out = kernel(xt, wt, bt, padding=(0, 1))
                out.backward(grad)
                results.append((out.data, xt.grad, wt.grad, bt.grad))
        for got, want in zip(*results):
            assert got.dtype == np.dtype(dtype)
            assert got.strides == want.strides
            np.testing.assert_array_equal(got, want)
        assert results[0][0].flags.c_contiguous

    def test_conv2d_convtranse_shape(self):
        # Conv-TransE setting: 2 rows (s;r), kernel 2x3, padding (0,1).
        batch, d, channels = 5, 16, 50
        x = Tensor(np.random.default_rng(0).normal(size=(batch, 1, 2, d)))
        w = Tensor(np.random.default_rng(1).normal(size=(channels, 1, 2, 3)))
        out = F.conv2d(x, w, padding=(0, 1))
        assert out.shape == (batch, channels, 1, d)


@given(
    rows=st.integers(min_value=1, max_value=6),
    cols=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=30, deadline=None)
def test_property_chain_rule_linear(rows, cols, seed):
    """Property: gradient of sum(W x) w.r.t. x equals column sums of W."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(rows, cols))
    x = Tensor(rng.normal(size=(cols,)), requires_grad=True)
    (Tensor(w) @ x).sum().backward()
    np.testing.assert_allclose(x.grad, w.sum(axis=0), atol=1e-9)
