"""Tests for small shared helpers."""

import numpy as np

from repro.autograd import Tensor
from repro.utils import l2_normalize_rows, seeded_rng


class TestL2Normalize:
    def test_unit_rows(self):
        x = Tensor(np.random.default_rng(0).normal(size=(5, 7)) * 3)
        out = l2_normalize_rows(x)
        np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), np.ones(5), atol=1e-9)

    def test_zero_row_stays_finite(self):
        x = Tensor(np.zeros((2, 4)))
        out = l2_normalize_rows(x)
        assert np.all(np.isfinite(out.data))

    def test_differentiable(self):
        x = Tensor(np.random.default_rng(1).normal(size=(3, 4)), requires_grad=True)
        l2_normalize_rows(x).sum().backward()
        assert x.grad is not None
        assert np.all(np.isfinite(x.grad))

    def test_direction_preserved(self):
        x = Tensor(np.array([[3.0, 4.0]]))
        out = l2_normalize_rows(x).data
        np.testing.assert_allclose(out, [[0.6, 0.8]])


class TestSeededRng:
    def test_deterministic(self):
        assert seeded_rng(5).integers(0, 1000) == seeded_rng(5).integers(0, 1000)

    def test_different_seeds_diverge(self):
        draws_a = seeded_rng(1).integers(0, 10**9)
        draws_b = seeded_rng(2).integers(0, 10**9)
        assert draws_a != draws_b
