"""Tests for feed-forward layers, RNN cells, optimizers, and losses."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.autograd import Tensor
from repro.nn import losses

from tests.test_autograd_tensor import numerical_grad


class TestLinear:
    def test_shapes(self):
        layer = nn.Linear(5, 7)
        out = layer(Tensor(np.ones((3, 5))))
        assert out.shape == (3, 7)

    def test_no_bias(self):
        layer = nn.Linear(2, 2, bias=False)
        assert layer.bias is None
        layer.weight.data[...] = np.eye(2)
        out = layer(Tensor(np.array([[1.0, 2.0]])))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0]])

    def test_gradients_flow_to_weight_and_bias(self):
        layer = nn.Linear(3, 2)
        layer(Tensor(np.ones((4, 3)))).sum().backward()
        assert layer.weight.grad is not None
        np.testing.assert_array_equal(layer.bias.grad, [4.0, 4.0])

    def test_deterministic_with_rng(self):
        a = nn.Linear(4, 4, rng=np.random.default_rng(42))
        b = nn.Linear(4, 4, rng=np.random.default_rng(42))
        np.testing.assert_array_equal(a.weight.data, b.weight.data)


class TestEmbedding:
    def test_lookup(self):
        emb = nn.Embedding(10, 4)
        out = emb([1, 1, 5])
        assert out.shape == (3, 4)
        np.testing.assert_array_equal(out.data[0], out.data[1])

    def test_gradient_accumulates_on_repeats(self):
        emb = nn.Embedding(5, 2)
        emb([2, 2, 2]).sum().backward()
        np.testing.assert_array_equal(emb.weight.grad[2], [3.0, 3.0])
        np.testing.assert_array_equal(emb.weight.grad[0], [0.0, 0.0])

    def test_all_returns_weight(self):
        emb = nn.Embedding(5, 2)
        assert emb.all() is emb.weight


class TestConv2dLayer:
    def test_convtranse_geometry(self):
        conv = nn.Conv2d(1, 50, kernel_size=(2, 3), padding=(0, 1))
        out = conv(Tensor(np.zeros((4, 1, 2, 32))))
        assert out.shape == (4, 50, 1, 32)

    def test_bias_flag(self):
        conv = nn.Conv2d(1, 2, kernel_size=(1, 1), bias=False)
        assert conv.bias is None


class TestLayerNormLayer:
    def test_affine_identity_at_init(self):
        ln = nn.LayerNorm(8)
        x = Tensor(np.random.default_rng(0).normal(size=(3, 8)))
        out = ln(x).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-8)

    def test_affine_params_learnable(self):
        ln = nn.LayerNorm(4)
        ln(Tensor(np.random.default_rng(0).normal(size=(2, 4)))).sum().backward()
        assert ln.weight.grad is not None
        assert ln.bias.grad is not None


class TestRReLUModule:
    def test_eval_deterministic(self):
        act = nn.RReLU().eval()
        x = Tensor(-np.ones((2, 2)))
        np.testing.assert_array_equal(act(x).data, act(x).data)


class TestSequential:
    def test_runs_in_order(self):
        seq = nn.Sequential(nn.Linear(3, 4), nn.Linear(4, 2))
        assert seq(Tensor(np.ones((1, 3)))).shape == (1, 2)
        assert len(seq) == 2
        assert len(list(iter(seq))) == 2

    def test_registers_parameters(self):
        seq = nn.Sequential(nn.Linear(3, 4), nn.Linear(4, 2))
        assert len(seq.parameters()) == 4


class TestGRUCell:
    def test_output_shape(self):
        cell = nn.GRUCell(6, 4)
        out = cell(Tensor(np.ones((5, 6))), Tensor(np.zeros((5, 4))))
        assert out.shape == (5, 4)

    def test_interpolates_between_candidate_and_hidden(self):
        # With update gate z≈1 the output should stay at h.
        cell = nn.GRUCell(2, 2, rng=np.random.default_rng(0))
        cell.bias_ih.data[2:4] = 100.0  # huge update-gate bias -> z≈1
        h = Tensor(np.full((1, 2), 0.7))
        out = cell(Tensor(np.zeros((1, 2))), h)
        np.testing.assert_allclose(out.data, h.data, atol=1e-3)

    def test_gradients_flow(self):
        cell = nn.GRUCell(3, 3)
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        h = Tensor(np.zeros((2, 3)), requires_grad=True)
        cell(x, h).sum().backward()
        assert x.grad is not None
        assert h.grad is not None
        assert cell.weight_ih.grad is not None

    def test_gradient_matches_numerical(self):
        rng = np.random.default_rng(3)
        cell = nn.GRUCell(3, 2, rng=rng)
        x_data = rng.normal(size=(2, 3))
        h_data = rng.normal(size=(2, 2))
        x = Tensor(x_data.copy(), requires_grad=True)
        cell(x, Tensor(h_data)).sum().backward()
        expected = numerical_grad(
            lambda arr: cell(Tensor(arr), Tensor(h_data)).sum().item(), x_data.copy()
        )
        np.testing.assert_allclose(x.grad, expected, atol=1e-5)


class TestLSTMCell:
    def test_shapes_with_wide_input(self):
        # TIM setting: input 2d, hidden d.
        cell = nn.LSTMCell(16, 8)
        h, c = cell(Tensor(np.ones((3, 16))))
        assert h.shape == (3, 8)
        assert c.shape == (3, 8)

    def test_init_state_zeros(self):
        cell = nn.LSTMCell(4, 4)
        h, c = cell.init_state(2)
        np.testing.assert_array_equal(h.data, np.zeros((2, 4)))
        np.testing.assert_array_equal(c.data, np.zeros((2, 4)))

    def test_state_threading(self):
        cell = nn.LSTMCell(4, 4, rng=np.random.default_rng(0))
        x = Tensor(np.ones((1, 4)))
        state = None
        outputs = []
        for _ in range(3):
            h, c = cell(x, state)
            state = (h, c)
            outputs.append(h.data.copy())
        # Recurrent state must change the output over steps.
        assert not np.allclose(outputs[0], outputs[2])

    def test_forget_bias_initialized_to_one(self):
        cell = nn.LSTMCell(4, 4)
        np.testing.assert_array_equal(cell.bias_ih.data[4:8], np.ones(4))

    def test_gradient_matches_numerical(self):
        rng = np.random.default_rng(4)
        cell = nn.LSTMCell(3, 2, rng=rng)
        x_data = rng.normal(size=(2, 3))
        x = Tensor(x_data.copy(), requires_grad=True)
        h, _ = cell(x)
        h.sum().backward()
        expected = numerical_grad(
            lambda arr: cell(Tensor(arr))[0].sum().item(), x_data.copy()
        )
        np.testing.assert_allclose(x.grad, expected, atol=1e-5)


class TestOptimizers:
    def _quadratic_problem(self):
        target = np.array([3.0, -2.0])
        w = nn.Parameter(np.zeros(2))
        return w, target

    def test_sgd_converges_on_quadratic(self):
        w, target = self._quadratic_problem()
        opt = nn.SGD([w], lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            loss = ((w - Tensor(target)) ** 2).sum()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(w.data, target, atol=1e-3)

    def test_adam_converges_on_quadratic(self):
        w, target = self._quadratic_problem()
        opt = nn.Adam([w], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            ((w - Tensor(target)) ** 2).sum().backward()
            opt.step()
        np.testing.assert_allclose(w.data, target, atol=1e-2)

    def test_sgd_momentum(self):
        w, target = self._quadratic_problem()
        opt = nn.SGD([w], lr=0.05, momentum=0.9)
        for _ in range(200):
            opt.zero_grad()
            ((w - Tensor(target)) ** 2).sum().backward()
            opt.step()
        np.testing.assert_allclose(w.data, target, atol=5e-2)

    def test_weight_decay_shrinks(self):
        w = nn.Parameter(np.array([10.0]))
        opt = nn.SGD([w], lr=0.1, weight_decay=1.0)
        opt.zero_grad()
        (w * 0.0).sum().backward()
        opt.step()
        assert abs(w.data[0]) < 10.0

    def test_skips_params_without_grad(self):
        w = nn.Parameter(np.array([1.0]))
        opt = nn.Adam([w], lr=0.1)
        opt.step()  # no grad yet; must not crash
        np.testing.assert_array_equal(w.data, [1.0])

    def test_empty_parameter_list_rejected(self):
        with pytest.raises(ValueError):
            nn.Adam([])

    def test_clip_grad_norm(self):
        w = nn.Parameter(np.array([3.0, 4.0]))
        w.grad = np.array([3.0, 4.0])
        pre = nn.clip_grad_norm([w], max_norm=1.0)
        assert pre == pytest.approx(5.0)
        assert np.linalg.norm(w.grad) == pytest.approx(1.0)


class TestLosses:
    def test_cross_entropy_known_value(self):
        logits = Tensor(np.array([[0.0, 0.0]]), requires_grad=True)
        loss = losses.cross_entropy(logits, [0])
        assert loss.item() == pytest.approx(np.log(2.0))

    def test_cross_entropy_perfect_prediction(self):
        logits = Tensor(np.array([[100.0, 0.0, 0.0]]))
        assert losses.cross_entropy(logits, [0]).item() == pytest.approx(0.0, abs=1e-6)

    def test_nll_summed_probs_matches_single_snapshot_ce(self):
        from repro.autograd import functional as F

        logits = Tensor(np.random.default_rng(0).normal(size=(4, 6)))
        targets = np.array([0, 1, 2, 3])
        single = losses.nll_of_summed_probs([F.softmax(logits)], targets)
        ce = losses.cross_entropy(logits, targets)
        assert single.item() == pytest.approx(ce.item(), abs=1e-6)

    def test_nll_summed_probs_rewards_any_snapshot(self):
        # If one snapshot is confident and another is wrong, the summed
        # probability still gives low loss — the CEN ensemble effect.
        good = Tensor(np.array([[0.99, 0.01]]))
        bad = Tensor(np.array([[0.01, 0.99]]))
        loss = losses.nll_of_summed_probs([good, bad], [0])
        assert loss.item() == pytest.approx(-np.log(1.0), abs=1e-6)

    def test_nll_summed_probs_empty_rejected(self):
        with pytest.raises(ValueError):
            losses.nll_of_summed_probs([], [0])

    def test_bce_with_logits(self):
        logits = Tensor(np.zeros((2, 2)))
        loss = losses.binary_cross_entropy_with_logits(logits, np.eye(2))
        assert loss.item() == pytest.approx(np.log(2.0))


@given(
    batch=st.integers(min_value=1, max_value=6),
    classes=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=999),
)
@settings(max_examples=25, deadline=None)
def test_property_cross_entropy_nonnegative(batch, classes, seed):
    rng = np.random.default_rng(seed)
    logits = Tensor(rng.normal(size=(batch, classes)))
    targets = rng.integers(0, classes, size=batch)
    assert losses.cross_entropy(logits, targets).item() >= 0.0


@given(seed=st.integers(min_value=0, max_value=999))
@settings(max_examples=20, deadline=None)
def test_property_gru_output_bounded(seed):
    """GRU output is a convex combination of tanh candidate and hidden,
    so with |h| <= 1 the output stays in [-1, 1]."""
    rng = np.random.default_rng(seed)
    cell = nn.GRUCell(4, 4, rng=rng)
    x = Tensor(rng.normal(size=(3, 4)) * 5)
    h = Tensor(np.clip(rng.normal(size=(3, 4)), -1, 1))
    out = cell(x, h)
    assert np.all(out.data <= 1.0 + 1e-9)
    assert np.all(out.data >= -1.0 - 1e-9)
