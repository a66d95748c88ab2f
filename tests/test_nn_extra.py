"""Additional invariants for the nn substrate (cheap, CPU-light)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.autograd import Tensor
from repro.autograd import functional as F
from repro.nn import losses


class TestLinearAlgebraicProperties:
    def test_linear_is_affine(self):
        """f(ax + by) == a f(x) + b f(y) for bias-free Linear."""
        layer = nn.Linear(4, 3, bias=False, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
        lhs = layer(Tensor(2.0 * x + 3.0 * y)).data
        rhs = 2.0 * layer(Tensor(x)).data + 3.0 * layer(Tensor(y)).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_embedding_rows_independent_gradients(self):
        emb = nn.Embedding(6, 3, rng=np.random.default_rng(0))
        emb([0]).sum().backward()
        np.testing.assert_array_equal(emb.weight.grad[1:], np.zeros((5, 3)))


class TestGRUCellInvariants:
    @given(seed=st.integers(0, 300))
    @settings(max_examples=15, deadline=None)
    def test_property_fixed_point_when_update_gate_saturated(self, seed):
        """z == 1 (huge update-gate bias) makes h a fixed point."""
        cell = nn.GRUCell(3, 3, rng=np.random.default_rng(seed))
        cell.bias_ih.data[3:6] = 60.0
        cell.bias_hh.data[3:6] = 60.0
        rng = np.random.default_rng(seed + 1)
        h = Tensor(np.clip(rng.normal(size=(2, 3)), -1, 1))
        out = cell(Tensor(rng.normal(size=(2, 3))), h)
        np.testing.assert_allclose(out.data, h.data, atol=1e-6)


class TestLSTMCellInvariants:
    def test_cell_state_bounded_by_gates(self):
        """With forget and input gates closed, the cell state resets to ~0."""
        cell = nn.LSTMCell(3, 3, rng=np.random.default_rng(0))
        cell.bias_ih.data[0:3] = -60.0  # input gate ~0
        cell.bias_ih.data[3:6] = -60.0  # forget gate ~0
        cell.bias_hh.data[0:6] = 0.0
        h = Tensor(np.ones((1, 3)))
        c = Tensor(np.full((1, 3), 5.0))
        _, c_next = cell(Tensor(np.ones((1, 3))), (h, c))
        np.testing.assert_allclose(c_next.data, np.zeros((1, 3)), atol=1e-6)

    def test_output_bounded_by_tanh(self):
        cell = nn.LSTMCell(4, 4, rng=np.random.default_rng(1))
        h, _ = cell(Tensor(np.random.default_rng(2).normal(size=(5, 4)) * 10))
        assert np.all(np.abs(h.data) <= 1.0)


class TestAdamInvariance:
    def test_adam_step_size_bounded_by_lr(self):
        """Adam's per-coordinate step is bounded by ~lr regardless of
        gradient magnitude (its scale invariance)."""
        w = nn.Parameter(np.zeros(3))
        opt = nn.Adam([w], lr=0.1)
        w.grad = np.array([1e-8, 1.0, 1e8])
        before = w.data.copy()
        opt.step()
        steps = np.abs(w.data - before)
        assert np.all(steps <= 0.1 * 1.1)

    def test_sgd_scales_with_gradient(self):
        w = nn.Parameter(np.zeros(2))
        opt = nn.SGD([w], lr=0.5)
        w.grad = np.array([1.0, 2.0])
        opt.step()
        np.testing.assert_allclose(w.data, [-0.5, -1.0])


class TestLossesExtra:
    def test_cross_entropy_invariant_to_logit_shift(self):
        logits = np.random.default_rng(0).normal(size=(4, 6))
        a = losses.cross_entropy(Tensor(logits), [0, 1, 2, 3]).item()
        b = losses.cross_entropy(Tensor(logits + 100.0), [0, 1, 2, 3]).item()
        assert a == pytest.approx(b, abs=1e-9)

    def test_nll_summed_probs_decreases_with_more_good_snapshots(self):
        good = Tensor(np.array([[0.9, 0.1]]))
        one = losses.nll_of_summed_probs(F.stack([good]), [0]).item()
        two = losses.nll_of_summed_probs(F.stack([good, good]), [0]).item()
        assert two < one
