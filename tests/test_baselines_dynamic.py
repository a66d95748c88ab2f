"""Tests for the extrapolation baselines (history + recurrent families)."""

import numpy as np
import pytest

from repro.baselines import CEN, REGCN, RENet, RGCRN, CyGNet, HistoryFrequency, TiRGN
from repro.baselines.history import _HistoryVocabulary
from repro.core import Trainer, TrainerConfig
from repro.core import decoder as decoder_module
from repro.datasets import SyntheticTKGConfig, generate_tkg
from repro.eval import evaluate_extrapolation
from repro.eval.filters import FilterIndex
from repro.eval.metrics import dedup_rows, ranks_from_scores
from repro.graph import Snapshot

N, M = 15, 3


def small_split():
    graph = generate_tkg(
        SyntheticTKGConfig(
            num_entities=N,
            num_relations=M,
            num_timestamps=10,
            events_per_step=15,
            base_pool_size=30,
            seed=4,
        )
    )
    return graph.split((0.7, 0.15, 0.15))


class TestHistoryVocabulary:
    def test_counts_both_directions(self):
        vocab = _HistoryVocabulary(N, M)
        vocab.add_snapshot(Snapshot(np.array([[0, 1, 2]]), N, M, 0))
        assert vocab.entity_vector(0, 1)[2] == 1
        assert vocab.entity_vector(2, 1 + M)[0] == 1  # inverse
        assert vocab.relation_vector(0, 2)[1] == 1

    def test_counts_accumulate(self):
        vocab = _HistoryVocabulary(N, M)
        snap = Snapshot(np.array([[0, 1, 2]]), N, M, 0)
        vocab.add_snapshot(snap)
        vocab.add_snapshot(snap)
        assert vocab.entity_vector(0, 1)[2] == 2

    def test_popularity(self):
        vocab = _HistoryVocabulary(N, M)
        vocab.add_snapshot(Snapshot(np.array([[0, 1, 2], [0, 2, 3]]), N, M, 0))
        pop = vocab.popularity_vector()
        assert pop[0] == 2
        assert pop[3] == 1


class TestHistoryFrequency:
    def test_predicts_recurring_fact(self):
        train, _, _ = small_split()
        model = HistoryFrequency(N, M).fit(train)
        # The most frequent object for a (s, r) seen in training should
        # be ranked first among entities.
        s, r, o, _ = train.facts[0]
        scores = model.predict_entities(np.array([[s, r]]), ts=99)
        assert scores[0, o] > 0

    def test_observe_updates_counts(self):
        model = HistoryFrequency(N, M)
        before = model.predict_entities(np.array([[0, 1]]), 0)[0, 2]
        model.observe(Snapshot(np.array([[0, 1, 2]]), N, M, 0))
        after = model.predict_entities(np.array([[0, 1]]), 1)[0, 2]
        assert after > before

    def test_unseen_query_falls_back_to_popularity(self):
        model = HistoryFrequency(N, M)
        model.observe(Snapshot(np.array([[5, 0, 7]]), N, M, 0))
        scores = model.predict_entities(np.array([[0, 1]]), 1)
        assert scores[0, 5] > scores[0, 1]  # popular entity scores higher


DYNAMIC_FACTORIES = [
    ("CyGNet", lambda: CyGNet(N, M, dim=8, history_length=2, seed=0)),
    ("RENet", lambda: RENet(N, M, dim=8, history_length=2, seed=0)),
    ("RGCRN", lambda: RGCRN(N, M, dim=8, history_length=2, num_kernels=4, seed=0)),
    ("REGCN", lambda: REGCN(N, M, dim=8, history_length=2, num_kernels=4, seed=0)),
    ("CEN", lambda: CEN(N, M, dim=8, history_length=2, num_kernels=4, seed=0)),
    ("TiRGN", lambda: TiRGN(N, M, dim=8, history_length=2, num_kernels=4, seed=0)),
]


class TestDynamicBaselines:
    @pytest.mark.parametrize("name,factory", DYNAMIC_FACTORIES)
    def test_trainable_and_evaluable(self, name, factory):
        train, _, test = small_split()
        model = factory()
        trainer = Trainer(model, TrainerConfig(epochs=1, patience=10))
        log = trainer.fit(train)
        assert np.isfinite(log[0].loss_joint)
        result = evaluate_extrapolation(model, test)
        assert result.entity["count"] == 2 * len(test)
        assert np.all(np.isfinite(result.entity["MRR"]))

    @pytest.mark.parametrize("name,factory", DYNAMIC_FACTORIES)
    def test_observe_rejects_out_of_vocabulary_ids(self, name, factory):
        # The snapshot's own vocabulary is larger than the model's.
        model = factory()
        with pytest.raises(ValueError, match=r"entity ids \[20\] outside \[0, 15\)"):
            model.observe(Snapshot(np.array([[0, 1, 20]]), 30, M, 0))
        with pytest.raises(ValueError, match=r"relation ids \[5\] outside \[0, 3\)"):
            model.observe(Snapshot(np.array([[0, 5, 2]]), N, 6, 0))

    @pytest.mark.parametrize("name,factory", DYNAMIC_FACTORIES)
    def test_loss_decreases(self, name, factory):
        train, _, _ = small_split()
        model = factory()
        trainer = Trainer(model, TrainerConfig(epochs=3, patience=10))
        log = trainer.fit(train)
        assert log[-1].loss_joint < log[0].loss_joint

    def test_rgcrn_relations_static(self):
        train, _, _ = small_split()
        model = RGCRN(N, M, dim=8, history_length=2, num_kernels=4).eval()
        model.set_history(train)
        history = model.history_before(int(train.timestamps[-1]) + 1)
        _, relation_list = model.evolve(history)
        np.testing.assert_array_equal(relation_list[0].data, relation_list[-1].data)

    def test_regcn_relations_evolve(self):
        train, _, _ = small_split()
        model = REGCN(N, M, dim=8, history_length=2, num_kernels=4).eval()
        model.set_history(train)
        history = model.history_before(int(train.timestamps[-1]) + 1)
        _, relation_list = model.evolve(history)
        assert not np.allclose(relation_list[0].data, relation_list[-1].data)

    @pytest.mark.parametrize("cls", [REGCN, CEN])
    def test_evaluation_evolves_once_per_timestamp(self, cls):
        train, _, test = small_split()
        model = cls(N, M, dim=8, history_length=2, num_kernels=4, seed=0)
        model.set_history(train)
        calls = []
        evolve = model.evolve

        def counting(history):
            calls.append(len(history))
            return evolve(history)

        model.evolve = counting
        evaluate_extrapolation(model, test)
        # Entity ranks and relation scores share one encoder pass.
        assert len(calls) == len(test.timestamps)

    @pytest.mark.parametrize("name,factory", DYNAMIC_FACTORIES[2:])
    @pytest.mark.parametrize("setting", ["raw", "time"])
    def test_rank_entities_equals_ranks_of_predicted_scores(
        self, name, factory, setting, monkeypatch
    ):
        train, valid, test = small_split()
        model = factory().eval()
        model.set_history(train)
        for ts in valid.timestamps:
            model.observe(valid.snapshot(int(ts)))
        if name == "TiRGN":
            model.history_gate.data[...] = 0.3  # both distributions count
        ts = int(test.timestamps[0])
        s, r, o = test.snapshot(ts).triples.T
        queries = np.concatenate([np.stack([s, r], 1), np.stack([o, r + M], 1)])
        targets = np.concatenate([o, s])
        mask = FilterIndex(test).mask(queries, ts, setting)
        unique, inverse = dedup_rows(queries)
        expected = ranks_from_scores(
            model.predict_entities(unique, ts), targets, mask, rows=inverse
        )
        # Two decoder rows per streamed block.
        snaps = 2 if model.time_variability else 1
        monkeypatch.setattr(decoder_module, "SUM_BLOCK_BYTES", 2 * snaps * N * 8)
        got = model.rank_entities(queries, targets, ts, mask=mask)
        np.testing.assert_array_equal(got, expected)

    def test_cen_uses_time_variability(self):
        assert CEN.time_variability is True
        assert REGCN.time_variability is False

    def test_cygnet_copy_mode_boosts_repeats(self):
        train, _, _ = small_split()
        model = CyGNet(N, M, dim=8, history_length=2, seed=0)
        model.set_history(train)
        model.copy_gate.data[...] = 10.0  # alpha ~ 1: pure copy mode
        s, r, o, _ = train.facts[0]
        scores = model.predict_entities(np.array([[s, r]]), 99)
        counts = model.vocab.entity_vector(int(s), int(r))
        assert np.argmax(scores[0]) == np.argmax(counts)

    def test_tirgn_gate_blends_history(self):
        train, _, _ = small_split()
        model = TiRGN(N, M, dim=8, history_length=2, num_kernels=4, seed=0).eval()
        model.set_history(train)
        t = int(train.timestamps[-1]) + 1
        queries = np.array([[int(train.facts[0][0]), int(train.facts[0][1])]])
        model.history_gate.data[...] = -10.0  # phi ~ 0: pure global history
        pure_history = model.predict_entities(queries, t)
        expected = model.vocab.entity_distribution(queries)
        # phi = sigmoid(-10) ~ 4.5e-5 still leaks a sliver of the local
        # distribution, hence the loose tolerance.
        np.testing.assert_allclose(pure_history, expected, atol=1e-3)

    def test_tirgn_observe_updates_vocab(self):
        model = TiRGN(N, M, dim=8, history_length=2, num_kernels=4, seed=0)
        model.observe(Snapshot(np.array([[0, 1, 2]]), N, M, 0))
        assert model.vocab.entity_vector(0, 1)[2] == 1

    def test_renet_context_shape(self):
        train, _, _ = small_split()
        model = RENet(N, M, dim=8, history_length=2).eval()
        model.set_history(train)
        context = model._context(model.history_before(5))
        assert context.shape == (N, 8)

    def test_dynamic_beats_static_embedding_on_temporal_data(self):
        """The paper's core comparison shape: an evolution model beats a
        time-unaware one on recurrent temporal data."""
        from repro.baselines import DistMult, StaticTrainer, StaticTrainerConfig

        train, _, test = small_split()
        static = DistMult(N, M, dim=8, seed=3)
        StaticTrainer(static, StaticTrainerConfig(epochs=4)).fit(train)
        static_result = evaluate_extrapolation(static, test)

        dynamic = REGCN(N, M, dim=8, history_length=2, num_kernels=4, seed=3)
        Trainer(dynamic, TrainerConfig(epochs=4, patience=10)).fit(train)
        dynamic_result = evaluate_extrapolation(dynamic, test)
        assert dynamic_result.entity["MRR"] > static_result.entity["MRR"]
