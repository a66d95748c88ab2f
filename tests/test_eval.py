"""Tests for ranking metrics, filters, and the evaluation driver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RETIA, RETIAConfig
from repro.datasets import SyntheticTKGConfig, generate_tkg
from repro.eval import (
    EvaluationResult,
    FilterIndex,
    RankAccumulator,
    evaluate_extrapolation,
    ranks_from_scores,
)
from repro.graph import TemporalKG

from tests.oracles import reference_evaluate


class TestRanksFromScores:
    def test_best_score_rank_one(self):
        scores = np.array([[0.1, 0.9, 0.5]])
        np.testing.assert_array_equal(ranks_from_scores(scores, [1]), [1.0])

    def test_worst_score_rank_last(self):
        scores = np.array([[0.9, 0.1, 0.5]])
        np.testing.assert_array_equal(ranks_from_scores(scores, [1]), [3.0])

    def test_ties_get_average_rank(self):
        scores = np.array([[1.0, 1.0, 1.0, 1.0]])
        # Tied across all 4 -> average rank (1+4)/2 = 2.5.
        np.testing.assert_array_equal(ranks_from_scores(scores, [0]), [2.5])

    def test_filter_mask_removes_competitors(self):
        scores = np.array([[0.9, 0.8, 0.7]])
        mask = np.array([[True, False, False]])
        np.testing.assert_array_equal(ranks_from_scores(scores, [1], mask), [1.0])

    def test_filter_never_removes_target(self):
        scores = np.array([[0.9, 0.8]])
        mask = np.array([[True, True]])  # tries to exclude the target too
        ranks = ranks_from_scores(scores, [0], mask)
        np.testing.assert_array_equal(ranks, [1.0])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ranks_from_scores(np.zeros(3), [0])
        with pytest.raises(ValueError):
            ranks_from_scores(np.zeros((2, 3)), [0])

    @given(
        batch=st.integers(min_value=1, max_value=8),
        classes=st.integers(min_value=2, max_value=20),
        seed=st.integers(min_value=0, max_value=999),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_rank_bounds(self, batch, classes, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=(batch, classes))
        targets = rng.integers(0, classes, size=batch)
        ranks = ranks_from_scores(scores, targets)
        assert np.all(ranks >= 1.0)
        assert np.all(ranks <= classes)


class TestRankAccumulator:
    def test_summary_percentages(self):
        acc = RankAccumulator()
        acc.update(np.array([1.0, 2.0, 10.0]))
        summary = acc.summary()
        assert summary["Hits@1"] == pytest.approx(100.0 / 3)
        assert summary["Hits@10"] == pytest.approx(100.0)
        assert summary["MRR"] == pytest.approx((1 + 0.5 + 0.1) / 3 * 100)
        assert summary["MR"] == pytest.approx(13.0 / 3)
        assert summary["count"] == 3

    def test_empty_summary(self):
        summary = RankAccumulator().summary()
        assert summary["MRR"] == 0.0
        assert summary["MR"] == 0.0
        assert summary["count"] == 0

    def test_streaming_equals_batch(self):
        acc1, acc2 = RankAccumulator(), RankAccumulator()
        ranks = np.arange(1.0, 11.0)
        acc1.update(ranks)
        acc2.update(ranks[:5])
        acc2.update(ranks[5:])
        assert acc1.summary() == acc2.summary()

    def test_count_property(self):
        acc = RankAccumulator()
        acc.update(np.ones(4))
        assert acc.count == 4


def tiny_graph():
    facts = [
        (0, 0, 1, 0),
        (0, 0, 2, 0),
        (1, 1, 2, 1),
        (0, 0, 1, 1),
        (2, 1, 0, 2),
        (0, 0, 1, 2),
    ]
    return TemporalKG(facts, num_entities=3, num_relations=2)


class TestFilterIndex:
    def test_static_filter_excludes_known_objects(self):
        index = FilterIndex(tiny_graph())
        # Query (0, 0, ?): objects 1 and 2 are known somewhere in time.
        mask = index.mask(np.array([[0, 0]]), ts=5, setting="static")
        np.testing.assert_array_equal(mask[0], [False, True, True])

    def test_time_filter_scoped_to_timestamp(self):
        index = FilterIndex(tiny_graph())
        mask_t0 = index.mask(np.array([[0, 0]]), ts=0, setting="time")
        mask_t2 = index.mask(np.array([[0, 0]]), ts=2, setting="time")
        np.testing.assert_array_equal(mask_t0[0], [False, True, True])
        np.testing.assert_array_equal(mask_t2[0], [False, True, False])

    def test_inverse_queries_filtered(self):
        index = FilterIndex(tiny_graph())
        # Subject query (?, 0, 1) arrives as (1, 0 + M=2).
        mask = index.mask(np.array([[1, 2]]), ts=0, setting="static")
        assert mask[0, 0]  # entity 0 is a known subject

    def test_raw_returns_none(self):
        index = FilterIndex(tiny_graph())
        assert index.mask(np.array([[0, 0]]), 0, "raw") is None

    def test_unknown_setting_rejected(self):
        index = FilterIndex(tiny_graph())
        with pytest.raises(ValueError):
            index.mask(np.array([[0, 0]]), 0, "bogus")


class OracleModel:
    """Scores the true answers of the evaluated snapshot highest."""

    def __init__(self, graph: TemporalKG):
        self.graph = graph
        self.observed = []

    def predict_entities(self, queries, ts):
        snapshot = self.graph.snapshot(ts)
        scores = np.zeros((len(queries), self.graph.num_entities))
        truth = {}
        for s, r, o in snapshot.triples:
            truth.setdefault((int(s), int(r)), set()).add(int(o))
            truth.setdefault((int(o), int(r) + self.graph.num_relations), set()).add(int(s))
        for i, (s, r) in enumerate(queries):
            for o in truth.get((int(s), int(r)), ()):
                scores[i, o] = 1.0
        return scores

    def predict_relations(self, pairs, ts):
        snapshot = self.graph.snapshot(ts)
        scores = np.zeros((len(pairs), self.graph.num_relations))
        truth = {}
        for s, r, o in snapshot.triples:
            truth.setdefault((int(s), int(o)), set()).add(int(r))
        for i, (s, o) in enumerate(pairs):
            for r in truth.get((int(s), int(o)), ()):
                scores[i, r] = 1.0
        return scores

    def observe(self, snapshot):
        self.observed.append(snapshot.time)


class RandomModel:
    def __init__(self, num_entities, num_relations, seed=0):
        self.num_entities = num_entities
        self.num_relations = num_relations
        self.rng = np.random.default_rng(seed)

    def predict_entities(self, queries, ts):
        return self.rng.normal(size=(len(queries), self.num_entities))

    def predict_relations(self, pairs, ts):
        return self.rng.normal(size=(len(pairs), self.num_relations))

    def observe(self, snapshot):
        pass


class TestEvaluateExtrapolation:
    def test_oracle_gets_high_mrr(self):
        graph = tiny_graph()
        result = evaluate_extrapolation(OracleModel(graph), graph)
        assert result.entity["MRR"] > 80.0
        assert result.relation["MRR"] > 80.0

    def test_random_model_near_chance(self):
        graph = tiny_graph()
        model = RandomModel(3, 2)
        result = evaluate_extrapolation(model, graph)
        # With 3 entities, chance MRR is (1 + 1/2 + 1/3)/3 ≈ 61%.
        assert 20.0 < result.entity["MRR"] < 95.0

    def test_observe_called_in_order(self):
        graph = tiny_graph()
        model = OracleModel(graph)
        evaluate_extrapolation(model, graph)
        assert model.observed == [0, 1, 2]

    def test_observe_disabled(self):
        graph = tiny_graph()
        model = OracleModel(graph)
        evaluate_extrapolation(model, graph, observe=False)
        assert model.observed == []

    def test_entity_queries_count_both_directions(self):
        graph = tiny_graph()
        result = evaluate_extrapolation(OracleModel(graph), graph)
        assert result.entity["count"] == 2 * len(graph)

    def test_filtered_setting_requires_index(self):
        graph = tiny_graph()
        with pytest.raises(ValueError):
            evaluate_extrapolation(OracleModel(graph), graph, setting="static")

    def test_filtered_no_worse_than_raw(self):
        graph = tiny_graph()
        index = FilterIndex(graph)
        raw = evaluate_extrapolation(OracleModel(graph), graph, "raw")
        filt = evaluate_extrapolation(OracleModel(graph), graph, "time", index)
        assert filt.entity["MRR"] >= raw.entity["MRR"] - 1e-9

    def test_relation_task_optional(self):
        graph = tiny_graph()
        result = evaluate_extrapolation(OracleModel(graph), graph, evaluate_relations=False)
        assert result.relation["count"] == 0

    def test_result_row(self):
        result = EvaluationResult(entity={"MRR": 50.0, "Hits@1": 25.0})
        row = result.row(("MRR", "Hits@1"))
        assert row == {"MRR": 50.0, "Hits@1": 25.0}


# ----------------------------------------------------------------------
# evaluate_extrapolation against the serial oracle in tests/oracles.py
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def retia_data():
    graph = generate_tkg(
        SyntheticTKGConfig(
            num_entities=20,
            num_relations=4,
            num_timestamps=14,
            events_per_step=18,
            base_pool_size=40,
            seed=11,
        )
    )
    return graph, graph.split((0.6, 0.15, 0.25))


def revealed_retia(train, valid):
    model = RETIA(
        RETIAConfig(
            num_entities=20, num_relations=4, dim=8, history_length=2,
            num_kernels=4, seed=0,
        )
    )
    model.set_history(train)
    for ts in valid.timestamps:
        model.record_snapshot(valid.snapshot(int(ts)))
    model.eval()
    return model


class TestEvaluateMatchesReference:
    def test_summary_bit_identical_to_serial(self, retia_data):
        _, (train, valid, test) = retia_data
        want = reference_evaluate(revealed_retia(train, valid), test)
        got = evaluate_extrapolation(revealed_retia(train, valid), test)
        # Exact ==, no tolerance: the scored timestamps are folded in
        # timestamp order, the oracle's float-accumulation chain.
        assert got.entity == want.entity
        assert got.relation == want.relation

    def test_sequential_only_models_match_reference(self, retia_data):
        # A model exposing only ``observe`` (the OnlineAdapter shape: no
        # record_snapshot / history_before) gets the sequential reveal
        # schedule and matches the oracle.
        _, (train, valid, test) = retia_data

        class SequentialOnly:
            def __init__(self, inner):
                self._inner = inner

            def observe(self, snapshot):
                self._inner.observe(snapshot)

            def predict_entities(self, queries, ts):
                return self._inner.predict_entities(queries, ts)

            def predict_relations(self, pairs, ts):
                return self._inner.predict_relations(pairs, ts)

        want = reference_evaluate(revealed_retia(train, valid), test)
        got = evaluate_extrapolation(SequentialOnly(revealed_retia(train, valid)), test)
        assert got.entity == want.entity
        assert got.relation == want.relation

    def test_filtered_setting_requires_index(self, retia_data):
        full, (train, valid, test) = retia_data
        with pytest.raises(ValueError, match="FilterIndex"):
            evaluate_extrapolation(revealed_retia(train, valid), test, setting="static")
        index = FilterIndex(full)
        for setting in ("static", "time"):
            want = reference_evaluate(revealed_retia(train, valid), test, setting, index)
            got = evaluate_extrapolation(revealed_retia(train, valid), test, setting, index)
            assert got.entity == want.entity
            assert got.relation == want.relation
