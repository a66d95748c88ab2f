"""Decoder fast path and precision policy.

Covers the PR's claims head on: the batched time-variability Conv-TransE
decode is *bit-identical* to the per-snapshot reference loop kept in
``tests/oracles.py`` (losses, gradients and predictions), float32
models train to the same place as float64 within tolerance, the dtype
survives a RunState round-trip (and a cross-dtype resume fails
loudly), the stacked ``nll_of_summed_probs``
matches the oracle's sequential list sum, the logits-space BCE stays exact at extreme
logits, evaluation-protocol query dedup leaves every rank unchanged, and
the previously unseeded default generators (Dropout / RReLU /
ConvTransE) make two identical constructions bit-equal.
"""

import tracemalloc

import numpy as np
import pytest

from repro.autograd import DtypePolicy, Tensor, default_dtype, no_grad
from repro.autograd import functional as F
from repro.baselines import TiRGN
from repro.core import RETIA, RETIAConfig, Trainer, TrainerConfig
from repro.core import decoder as decoder_module
from repro.core.decoder import SUM_BLOCK_BYTES, ConvTransE, logit_workspace
from repro.datasets import SyntheticTKGConfig, generate_tkg
from repro.eval import evaluate_extrapolation
from repro.eval import metrics as metrics_module
from repro.eval.filters import FilterIndex
from repro.eval.metrics import RANK_BLOCK_BYTES, dedup_rows, ranks_from_scores
from repro.graph import TemporalKG
from repro.nn.layers import Dropout, RReLU
from repro.nn.losses import binary_cross_entropy_with_logits, nll_of_summed_probs
from repro.resilience import ResilienceConfig, RunState, RunStateError
from tests.oracles import (
    forbidden,
    reference_nll_of_summed_probs,
    reference_probabilities,
    reference_ranks,
    reference_softmax,
    use_reference_decoder,
)


def tiny_graph():
    facts = [
        (0, 0, 1, 0),
        (1, 1, 2, 0),
        (2, 0, 3, 1),
        (0, 0, 1, 1),
        (3, 1, 4, 2),
        (0, 1, 2, 2),
        (1, 0, 3, 3),
        (0, 0, 1, 3),
        (4, 1, 0, 3),
    ]
    return TemporalKG(facts, num_entities=5, num_relations=2)


def make_model(**overrides):
    defaults = dict(
        num_entities=5,
        num_relations=2,
        dim=8,
        history_length=3,
        num_kernels=4,
        seed=0,
    )
    defaults.update(overrides)
    return RETIA(RETIAConfig(**defaults))


def small_dataset():
    config = SyntheticTKGConfig(
        num_entities=20,
        num_relations=4,
        num_timestamps=12,
        events_per_step=20,
        base_pool_size=40,
        seed=9,
    )
    return generate_tkg(config).split((0.7, 0.15, 0.15))


def make_trainer(model, *, checkpoint_dir=None, epochs=1):
    resilience = ResilienceConfig(
        checkpoint_dir=checkpoint_dir, checkpoint_every_batches=1, handle_signals=False
    )
    return Trainer(
        model, TrainerConfig(epochs=epochs, patience=10), resilience=resilience
    )


# ----------------------------------------------------------------------
# Batched decode is bit-identical to the per-snapshot reference loop
# ----------------------------------------------------------------------
class TestBatchedVsLoop:
    def _pair(self, **overrides):
        graph = tiny_graph()
        batched = make_model(**overrides)
        loop = use_reference_decoder(make_model(**overrides))
        # The loop oracle must never reach the stacked kernels.
        for decoder in (loop.entity_decoder, loop.relation_decoder):
            object.__setattr__(decoder, "probabilities_multi", forbidden)
            object.__setattr__(decoder, "summed_probabilities", forbidden)
        for model in (batched, loop):
            model.set_history(graph)
        return graph, batched, loop

    def test_losses_bitwise_equal(self):
        graph, batched, loop = self._pair()
        target = graph.snapshot(3)
        for a, b in zip(batched.loss_on_snapshot(target), loop.loss_on_snapshot(target)):
            np.testing.assert_array_equal(a.data, b.data)

    def test_gradients_match_to_accumulation_order(self):
        # The forward losses are bitwise equal; gradients may differ in
        # the last ulp because the batched GEMM and the per-snapshot
        # accumulation sum partial products in different orders.
        graph, batched, loop = self._pair(dtype="float64")
        target = graph.snapshot(3)
        batched.loss_on_snapshot(target)[0].backward()
        loop.loss_on_snapshot(target)[0].backward()
        loop_grads = dict(loop.named_parameters())
        for name, param in batched.named_parameters():
            other = loop_grads[name].grad
            if param.grad is None or other is None:
                assert param.grad is None and other is None, name
                continue
            np.testing.assert_allclose(
                param.grad, other, rtol=1e-10, atol=1e-14, err_msg=name
            )

    def test_predictions_bitwise_equal(self):
        graph, batched, loop = self._pair()
        queries = np.array([[0, 0], [1, 1], [2, 2], [0, 3]])
        pairs = np.array([[0, 1], [1, 2], [3, 4]])
        np.testing.assert_array_equal(
            batched.eval().predict_entities(queries, 3),
            loop.eval().predict_entities(queries, 3),
        )
        np.testing.assert_array_equal(
            batched.predict_relations(pairs, 3), loop.predict_relations(pairs, 3)
        )

    def test_served_scores_bitwise_equal(self):
        from repro.serve import capture, score_entities

        graph, batched, loop = self._pair()
        queries = np.array([[0, 0], [1, 1], [2, 2], [0, 3]])
        served = [score_entities(m, capture(m, 3, version=1), queries) for m in (batched, loop)]
        np.testing.assert_array_equal(served[0], served[1])

    def test_holds_in_train_mode_with_dropout(self):
        graph, batched, loop = self._pair()
        batched.train()
        loop.train()
        target = graph.snapshot(3)
        np.testing.assert_array_equal(
            batched.loss_on_snapshot(target)[0].data,
            loop.loss_on_snapshot(target)[0].data,
        )

    def test_holds_without_time_variability(self):
        graph, batched, loop = self._pair(time_variability=False)
        target = graph.snapshot(3)
        np.testing.assert_array_equal(
            batched.loss_on_snapshot(target)[0].data,
            loop.loss_on_snapshot(target)[0].data,
        )

    def test_holds_under_float32(self):
        graph, batched, loop = self._pair(dtype="float32")
        target = graph.snapshot(3)
        np.testing.assert_array_equal(
            batched.loss_on_snapshot(target)[0].data,
            loop.loss_on_snapshot(target)[0].data,
        )


# ----------------------------------------------------------------------
# No-grad decode-to-rank kernels are bitwise equal to their oracles
# ----------------------------------------------------------------------
WIDE = 5003  # candidates: wide enough for several rows per block, not a round number
DTYPES = [np.float32, np.float64]
# Batch sizes relative to a kernel's rows per block.
BATCHES = {
    "one": lambda block: 1,
    "below": lambda block: block - 1,
    "at": lambda block: block,
    "ragged": lambda block: 2 * block + 3,
}
# The same, plus the first batch past the decoder's one-block threshold.
SUM_BATCHES = {**BATCHES, "above": lambda block: block + 1}


class TestSoftmaxKernel:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("axis", [-1, 0])
    def test_forward_and_grad_bitwise(self, dtype, axis):
        rng = np.random.default_rng(1)
        data = (4.0 * rng.normal(size=(3, 5, WIDE))).astype(dtype)
        data[..., 100:200] = data[..., :100]  # tied logits
        grad = rng.normal(size=data.shape).astype(dtype)
        with DtypePolicy(dtype):
            x = Tensor(data, requires_grad=True)
            y = Tensor(data.copy(), requires_grad=True)
            out, ref = F.softmax(x, axis=axis), reference_softmax(y, axis=axis)
            out.backward(grad)
            ref.backward(grad)
        assert out.data.dtype == x.grad.dtype == dtype
        np.testing.assert_array_equal(out.data, ref.data)
        np.testing.assert_array_equal(data, x.data)  # input untouched
        np.testing.assert_array_equal(x.grad, y.grad)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_in_place_form_matches(self, dtype):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(4, WIDE)).astype(dtype)
        with DtypePolicy(dtype):
            expected = reference_softmax(Tensor(data)).data
        buffer = data.copy()
        assert F.softmax_array(buffer, out=buffer) is buffer
        np.testing.assert_array_equal(buffer, expected)


def visited_sums(decoder, *args):
    """The rows ``summed_probabilities`` shows ``visit``, checked to come once each, in order."""
    seen, starts = [], []

    def visit(start, sums):
        starts.append(start)
        seen.append(sums.copy())

    assert decoder.summed_probabilities(*args, visit=visit) is None
    assert starts == list(np.cumsum([0] + [len(rows) for rows in seen[:-1]]))
    return np.concatenate(seen)


class TestSummedProbabilities:
    def _case(self, dtype, batch, snaps=3, dim=8):
        rng = np.random.default_rng(batch)
        with DtypePolicy(dtype):
            decoder = ConvTransE(dim, num_kernels=4).eval()
            firsts = Tensor(rng.normal(size=(snaps, batch, dim)))
            seconds = Tensor(rng.normal(size=(snaps, batch, dim)))
            table = rng.normal(size=(snaps, WIDE, dim))
            table[:, 100:200] = table[:, :100]  # tied candidates
            candidates = Tensor(table)
        return decoder, firsts, seconds, candidates

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("batch_of", BATCHES.values(), ids=BATCHES.keys())
    def test_matches_summed_probabilities_multi(self, dtype, batch_of):
        snaps = 3
        block = SUM_BLOCK_BYTES // (snaps * WIDE * np.dtype(dtype).itemsize)
        assert block > 2  # several rows per block, so every case is distinct
        decoder, firsts, seconds, candidates = self._case(dtype, batch_of(block), snaps)
        with no_grad(), DtypePolicy(dtype):
            expected = decoder.probabilities_multi(firsts, seconds, candidates).data.sum(0)
            got = decoder.summed_probabilities(firsts, seconds, candidates)
        assert got.dtype == dtype and got.shape == expected.shape
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(got[:, 100:200], got[:, :100])

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("batch_of", SUM_BATCHES.values(), ids=SUM_BATCHES.keys())
    @pytest.mark.parametrize("snaps", [1, 3, 5])
    @pytest.mark.parametrize("visit", [False, True], ids=["result", "visit"])
    def test_one_block_and_per_snapshot_decodes_match(self, dtype, batch_of, snaps, visit):
        # ``block`` is the largest batch whose T·B·C logits fit one sum
        # block; larger batches decode snapshot by snapshot.
        block = SUM_BLOCK_BYTES // (snaps * WIDE * np.dtype(dtype).itemsize)
        assert block > 2
        decoder, firsts, seconds, candidates = self._case(dtype, batch_of(block), snaps)
        with no_grad(), DtypePolicy(dtype):
            expected = decoder.probabilities_multi(firsts, seconds, candidates).data.sum(0)
            if visit:
                got = visited_sums(decoder, firsts, seconds, candidates)
            else:
                got = decoder.summed_probabilities(firsts, seconds, candidates)
        assert got.dtype == dtype and got.shape == expected.shape
        np.testing.assert_array_equal(got, expected)


class TestBlockedRanks:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("batch_of", BATCHES.values(), ids=BATCHES.keys())
    @pytest.mark.parametrize("masked", [False, True], ids=["raw", "filtered"])
    def test_rows_match_reference(self, dtype, batch_of, masked):
        block = RANK_BLOCK_BYTES // (WIDE * np.dtype(dtype).itemsize)
        count = batch_of(block)
        rng = np.random.default_rng(count)
        unique = max(1, count // 2)
        # Three decimals over 5k candidates: ties are everywhere, and
        # every target gets at least one tied rival.
        scores = np.round(rng.random((unique, WIDE)), 3).astype(dtype)
        rows = rng.integers(0, unique, size=count)
        targets = rng.integers(0, WIDE - 1, size=count)
        scores[rows, targets + 1] = scores[rows, targets]
        mask = rng.random((count, WIDE)) < 0.3 if masked else None
        got = ranks_from_scores(scores, targets, mask, rows=rows)
        np.testing.assert_array_equal(got, reference_ranks(scores, targets, mask, rows=rows))
        np.testing.assert_array_equal(got, ranks_from_scores(scores[rows], targets, mask))

    def test_rows_length_must_match_targets(self):
        with pytest.raises(ValueError):
            ranks_from_scores(np.zeros((2, 3)), [0, 1, 2], rows=[0, 1])


class TestLogitWorkspace:
    def _decode(self, dtype, batch, snaps=2, width=301, dim=8, visit=False):
        rng = np.random.default_rng(batch)
        with DtypePolicy(dtype):
            decoder = ConvTransE(dim, num_kernels=4).eval()
            args = [Tensor(rng.normal(size=shape)) for shape in (
                (snaps, batch, dim), (snaps, batch, dim), (snaps, width, dim)
            )]
        with no_grad(), DtypePolicy(dtype):
            got = visited_sums(decoder, *args) if visit else decoder.summed_probabilities(*args)
            expected = decoder.probabilities_multi(*args).data.sum(0)
        np.testing.assert_array_equal(got, expected)  # no stale logits leak in

    def test_reused_across_batch_sizes_and_dtypes(self):
        logit_workspace.clear()
        steps = [
            (np.float64, 8, 0),  # first float64 buffer
            (np.float64, 5, 1),  # a smaller batch fits it
            (np.float32, 8, 1),  # float32 has its own buffer
            (np.float64, 16, 1),  # a larger batch grows the float64 one
            (np.float64, 8, 2),  # ... which later batches reuse
            (np.float32, 3, 3),  # the float32 buffer survived the switch
        ]
        for taken, (dtype, batch, reused) in enumerate(steps, start=1):
            self._decode(dtype, batch)
            stats = logit_workspace.stats()
            assert (stats["taken"], stats["reused"]) == (taken, reused), (dtype, batch)
        assert logit_workspace.stats()["bytes"] == 2 * 301 * (16 * 8 + 8 * 4)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("visit", [False, True], ids=["result", "visit"])
    def test_per_snapshot_decode_keeps_at_most_two_slabs(self, dtype, visit):
        snaps, batch, width = 5, 37, WIDE
        slab = batch * width * np.dtype(dtype).itemsize
        assert snaps * slab > SUM_BLOCK_BYTES  # past the one-block threshold
        logit_workspace.clear()
        for _ in range(2):  # the second decode reuses what the first kept
            self._decode(dtype, batch, snaps=snaps, width=width, visit=visit)
        stats = logit_workspace.stats()
        assert stats["bytes"] <= 2 * slab  # whatever T is; the one-GEMM decode kept 5
        # The scratch slab, and with ``visit`` the running sum as well.
        assert stats["bytes"] == (2 if visit else 1) * slab
        assert (stats["taken"], stats["reused"]) == (2, 1)

    def test_held_buffer_is_never_shared(self):
        logit_workspace.clear()
        with logit_workspace.hold((2, 3), np.float64) as kept:
            pass
        with logit_workspace.hold((2, 3), np.float64) as first:
            assert np.shares_memory(first, kept)
            with logit_workspace.hold((2, 3), np.float64) as second:
                assert not np.shares_memory(first, second)


class TestFusedRanks:
    """``rank_entities`` ranks inside the decoder's row blocks, bit for bit."""

    @pytest.fixture(scope="class")
    def revealed(self):
        train, valid, test = small_dataset()
        model = make_model(num_entities=20, num_relations=4)
        model.set_history(train)
        for ts in valid.timestamps:
            model.record_snapshot(valid.snapshot(int(ts)))
        ts = int(test.timestamps[0])
        triples = test.snapshot(ts).triples
        s, r, o = triples.T
        queries = np.concatenate([np.stack([s, r], 1), np.stack([o, r + 4], 1)])
        targets = np.concatenate([o, s])
        return model.eval(), FilterIndex(test), ts, queries, targets

    @staticmethod
    def expected(model, queries, targets, ts, mask, dedup):
        unique, inverse = dedup_rows(queries, dedup)
        return ranks_from_scores(model.predict_entities(unique, ts), targets, mask, rows=inverse)

    @staticmethod
    def small_blocks(monkeypatch, model, snaps=3, width=20):
        # At most two decoder rows fit one sum block, so a larger batch
        # decodes snapshot by snapshot; three ranked rows per count.
        itemsize = np.dtype(model.config.dtype).itemsize
        monkeypatch.setattr(decoder_module, "SUM_BLOCK_BYTES", 2 * snaps * width * itemsize)
        monkeypatch.setattr(metrics_module, "RANK_BLOCK_BYTES", 3 * width * itemsize)

    @pytest.mark.parametrize("dedup", [True, False], ids=["dedup", "rows"])
    @pytest.mark.parametrize("setting", ["raw", "time"])
    @pytest.mark.parametrize("case", ["protocol", "straddle", "one"])
    def test_equals_ranks_of_predicted_scores(self, revealed, monkeypatch, dedup, setting, case):
        model, filters, ts, queries, targets = revealed
        if case == "straddle":
            # Every query twice, each pair split by a two-row block boundary.
            queries = np.concatenate([queries[-1:], np.repeat(queries, 2, axis=0)])
            targets = np.concatenate([targets[-1:], np.repeat(targets, 2)])
        elif case == "one":
            queries, targets = queries[:1], targets[:1]
        mask = filters.mask(queries, ts, setting)
        expected = self.expected(model, queries, targets, ts, mask, dedup)
        self.small_blocks(monkeypatch, model)
        got = model.rank_entities(queries, targets, ts, mask=mask, dedup=dedup)
        assert got.dtype == expected.dtype and got.shape == (len(queries),)
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("dedup", [True, False], ids=["dedup", "rows"])
    def test_all_tied_scores(self, monkeypatch, dedup):
        train, valid, test = small_dataset()
        model = make_model(num_entities=20, num_relations=4)
        model.set_history(train)
        # A zero projection makes every query zero: uniform scores, all tied.
        model.entity_decoder.project.weight.data[...] = 0.0
        model.entity_decoder.project.bias.data[...] = 0.0
        queries = np.array([[0, 0], [3, 1], [0, 0], [5, 6]])
        targets = np.array([1, 2, 3, 19])
        expected = self.expected(model, queries, targets, 9, None, dedup)
        self.small_blocks(monkeypatch, model)
        got = model.rank_entities(queries, targets, 9, dedup=dedup)
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(got, np.full(4, 10.5))  # (20 + 1) / 2

    def test_targets_must_match_queries(self, revealed):
        model, _, ts, queries, targets = revealed
        with pytest.raises(ValueError):
            model.rank_entities(queries, targets[:-1], ts)

    @staticmethod
    def wide_vocabulary(entities=20_000, batch=64):
        rng = np.random.default_rng(0)
        pairs = rng.integers(0, entities, (3, 50, 2))
        facts = [(int(s), 0, int(o), t) for t in range(3) for s, o in pairs[t]]
        graph = TemporalKG(facts, num_entities=entities, num_relations=2)
        model = make_model(num_entities=entities, num_relations=2, history_length=2)
        model.set_history(graph)
        queries = np.stack([np.arange(batch), np.arange(batch) % 4], axis=1)
        targets = rng.integers(0, entities, batch)
        return model, queries, targets

    @pytest.mark.parametrize("filtered", [False, True], ids=["raw", "filtered"])
    def test_per_snapshot_decode_equals_ranks_of_predicted_scores(self, filtered):
        model, queries, targets = self.wide_vocabulary()
        itemsize = np.dtype(model.config.dtype).itemsize
        # Unpatched block size: the two snapshots' logits are far past one
        # sum block, so the decoder goes snapshot by snapshot.
        snaps = model.config.history_length
        assert snaps * len(queries) * model.num_entities * itemsize > SUM_BLOCK_BYTES
        mask = None
        if filtered:
            mask = np.random.default_rng(1).random((len(queries), model.num_entities)) < 0.3
            mask[np.arange(len(queries)), targets] = False
        expected = ranks_from_scores(model.predict_entities(queries, 3), targets, mask)
        got = model.rank_entities(queries, targets, 3, mask=mask, dedup=False)
        np.testing.assert_array_equal(got, expected)

    def test_wide_vocabulary_builds_no_score_matrix(self):
        model, queries, targets = self.wide_vocabulary()
        entities, batch = model.num_entities, len(queries)
        model.rank_entities(queries, targets, 3)  # evolve once, grow the workspace
        score_bytes = model.predict_entities(queries, 3).nbytes
        assert score_bytes == batch * entities * np.dtype(model.config.dtype).itemsize
        peaks = {}
        for name, call in (
            ("rank", lambda: model.rank_entities(queries, targets, 3)),
            ("predict", lambda: model.predict_entities(queries, 3)),
        ):
            tracemalloc.start()
            try:
                call()
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["rank"] < score_bytes <= peaks["predict"]


class TestZeroQueries:
    """No query rows decode to an empty matrix and rank to nothing."""

    @pytest.mark.parametrize("kind", ["retia", "tirgn"])
    def test_empty_batches(self, kind):
        train, _, _ = small_dataset()
        if kind == "retia":
            model = make_model(num_entities=20, num_relations=4)
        else:
            model = TiRGN(20, 4, dim=8, history_length=2, num_kernels=4)
        model.set_history(train)
        ts = int(train.timestamps[-1])
        none = np.empty((0, 2), dtype=np.int64)
        assert model.predict_entities(none, ts).shape == (0, 20)
        assert model.predict_relations(none, ts).shape == (0, 4)
        no_targets = np.empty(0, dtype=np.int64)
        for mask in (None, np.zeros((0, 20), dtype=bool)):
            ranks = model.rank_entities(none, no_targets, ts, mask=mask)
            assert ranks.shape == (0,) and ranks.dtype == np.float64


# ----------------------------------------------------------------------
# Precision policy: float32 models train, float64 stays the ambient default
# ----------------------------------------------------------------------
class TestFloat32Policy:
    def test_parameters_activations_and_grads_are_float32(self):
        graph = tiny_graph()
        model = make_model(dtype="float32")
        model.set_history(graph)
        assert all(p.data.dtype == np.float32 for p in model.parameters())
        joint, _, _ = model.loss_on_snapshot(graph.snapshot(3))
        assert joint.data.dtype == np.float32
        joint.backward()
        assert all(
            p.grad is None or p.grad.dtype == np.float32 for p in model.parameters()
        )

    def test_ambient_default_dtype_survives_model_use(self):
        graph = tiny_graph()
        model = make_model(dtype="float32")
        model.set_history(graph)
        model.loss_on_snapshot(graph.snapshot(3))[0].backward()
        assert default_dtype() == np.float64

    def test_float32_loss_matches_float64_within_tolerance(self):
        graph = tiny_graph()
        losses = {}
        for dtype in ("float64", "float32"):
            model = make_model(dtype=dtype)
            model.set_history(graph)
            losses[dtype] = float(model.loss_on_snapshot(graph.snapshot(3))[0].data)
        assert losses["float32"] == pytest.approx(losses["float64"], rel=1e-4)

    def test_float32_training_tracks_float64(self):
        train, valid, _ = small_dataset()
        finals = {}
        for dtype in ("float64", "float32"):
            model = RETIA(
                RETIAConfig(
                    num_entities=20,
                    num_relations=4,
                    dim=8,
                    history_length=2,
                    num_kernels=4,
                    seed=0,
                    dtype=dtype,
                )
            )
            log = make_trainer(model, epochs=2).fit(train, valid)
            assert model.parameters_finite()
            finals[dtype] = log[-1].loss_joint
        assert finals["float32"] == pytest.approx(finals["float64"], rel=1e-2)

    def test_bad_dtype_rejected(self):
        with pytest.raises((ValueError, TypeError)):
            RETIAConfig(5, 2, dtype="float16")


# ----------------------------------------------------------------------
# RunState carries the dtype; cross-dtype resume fails loudly
# ----------------------------------------------------------------------
class TestRunStateDtype:
    def _checkpointed(self, tmp_path, dtype):
        train, valid, _ = small_dataset()
        model = RETIA(
            RETIAConfig(
                num_entities=20,
                num_relations=4,
                dim=8,
                history_length=2,
                num_kernels=4,
                seed=0,
                dtype=dtype,
            )
        )
        trainer = make_trainer(model, checkpoint_dir=str(tmp_path), epochs=1)
        trainer.fit(train, valid)
        return train, valid, trainer

    def test_dtype_round_trips_and_same_dtype_resume_works(self, tmp_path):
        train, valid, trainer = self._checkpointed(tmp_path, "float32")
        state, _ = trainer.checkpoints.load_latest()
        assert state.dtype == "float32"

        resumed_model = RETIA(
            RETIAConfig(
                num_entities=20,
                num_relations=4,
                dim=8,
                history_length=2,
                num_kernels=4,
                seed=0,
                dtype="float32",
            )
        )
        resumed = make_trainer(resumed_model, checkpoint_dir=str(tmp_path), epochs=2)
        resumed.fit(train, valid, resume=True)
        assert all(p.data.dtype == np.float32 for p in resumed_model.parameters())

    def test_cross_dtype_resume_fails_loudly(self, tmp_path):
        train, valid, _ = self._checkpointed(tmp_path, "float32")
        f64_model = RETIA(
            RETIAConfig(
                num_entities=20,
                num_relations=4,
                dim=8,
                history_length=2,
                num_kernels=4,
                seed=0,
                dtype="float64",
            )
        )
        trainer = make_trainer(f64_model, checkpoint_dir=str(tmp_path), epochs=2)
        with pytest.raises(RunStateError, match="float32"):
            trainer.fit(train, valid, resume=True)

    def test_legacy_payload_defaults_to_float64(self):
        # Pre-dtype archives have no "dtype" in the meta blob.
        payload = RunState(epoch=1).to_payload()
        import json

        meta = json.loads(bytes(payload["meta"]).decode("utf-8"))
        meta.pop("dtype", None)
        payload["meta"] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        )
        assert RunState.from_payload(payload).dtype == "float64"


# ----------------------------------------------------------------------
# Stacked nll_of_summed_probs matches the oracle's sequential sum
# ----------------------------------------------------------------------
class TestStackedNLL:
    def test_stacked_equals_list(self):
        rng = np.random.default_rng(3)
        raw = rng.random((3, 4, 6))
        raw /= raw.sum(axis=-1, keepdims=True)
        targets = np.array([0, 2, 5, 1])

        as_list = [Tensor(raw[t], requires_grad=True) for t in range(3)]
        loss_list = reference_nll_of_summed_probs(as_list, targets)
        loss_list.backward()

        stacked = Tensor(raw.copy(), requires_grad=True)
        loss_stacked = nll_of_summed_probs(stacked, targets)
        loss_stacked.backward()

        np.testing.assert_array_equal(loss_stacked.data, loss_list.data)
        for t in range(3):
            np.testing.assert_array_equal(stacked.grad[t], as_list[t].grad)

    def test_stacked_requires_three_dims(self):
        with pytest.raises(ValueError):
            nll_of_summed_probs(Tensor(np.ones((2, 3))), np.array([0, 1]))

    def test_stacked_requires_a_snapshot(self):
        with pytest.raises(ValueError):
            nll_of_summed_probs(Tensor(np.ones((0, 2, 3))), np.array([0, 1]))


# ----------------------------------------------------------------------
# BCE-with-logits is exact at extreme logits
# ----------------------------------------------------------------------
class TestStableBCE:
    def test_matches_naive_formula_at_moderate_logits(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 5))
        targets = (rng.random((4, 5)) > 0.5).astype(np.float64)
        loss = binary_cross_entropy_with_logits(Tensor(x), targets)
        sig = 1.0 / (1.0 + np.exp(-x))
        naive = -np.mean(targets * np.log(sig) + (1 - targets) * np.log(1 - sig))
        assert float(loss.data) == pytest.approx(naive, rel=1e-12)

    def test_extreme_logits_stay_finite_and_exact(self):
        x = np.array([[50.0, -50.0], [-50.0, 50.0]])
        targets = np.array([[1.0, 0.0], [0.0, 1.0]])
        logits = Tensor(x, requires_grad=True)
        loss = binary_cross_entropy_with_logits(logits, targets)
        # Every cell is correctly classified with huge margin: the exact
        # loss is softplus(-50) = log1p(e^-50) ~ 1.93e-22 per cell — tiny
        # but nonzero, where sigmoid().clip().log() would round to 0 or
        # blow up to log(clip_floor).
        assert float(loss.data) == pytest.approx(np.log1p(np.exp(-50.0)), rel=1e-12)
        loss.backward()
        assert np.all(np.isfinite(logits.grad))

    def test_gradient_is_mean_sigmoid_minus_target(self):
        x = np.array([[2.0, -3.0, 0.5]])
        targets = np.array([[1.0, 0.0, 1.0]])
        logits = Tensor(x, requires_grad=True)
        binary_cross_entropy_with_logits(logits, targets).backward()
        expected = (1.0 / (1.0 + np.exp(-x)) - targets) / x.size
        np.testing.assert_allclose(logits.grad, expected, rtol=1e-12)

    def test_worst_case_logits_no_overflow_warning(self):
        x = np.array([[750.0, -750.0]])  # exp(750) overflows float64
        targets = np.array([[0.0, 1.0]])
        with np.errstate(over="raise"):
            loss = binary_cross_entropy_with_logits(Tensor(x, requires_grad=True), targets)
        assert float(loss.data) == pytest.approx(750.0, rel=1e-12)


# ----------------------------------------------------------------------
# Evaluation-protocol dedup: fewer model calls, identical ranks
# ----------------------------------------------------------------------
class RecordingModel:
    """Deterministic stand-in that logs how many rows it was asked for."""

    def __init__(self, num_entities, num_relations):
        self.num_entities = num_entities
        self.num_relations = num_relations
        self.entity_rows = 0
        self.relation_rows = 0

    def _scores(self, keys, num_classes):
        # Any deterministic function of the query row works; mix the
        # columns so different queries get different score vectors.
        base = np.arange(num_classes)[None, :]
        mix = (keys[:, :1] * 31 + keys[:, 1:2] * 17) % num_classes
        return np.sin(0.1 * (base + mix)).astype(np.float64)

    def predict_entities(self, queries, ts):
        self.entity_rows += len(queries)
        return self._scores(np.asarray(queries), self.num_entities)

    def predict_relations(self, pairs, ts):
        self.relation_rows += len(pairs)
        return self._scores(np.asarray(pairs), self.num_relations)

    def observe(self, snapshot):
        pass


class TestEvalDedup:
    def duplicated_graph(self):
        # (0, 0, ?) appears three times at t=0 → the (s, r) query repeats.
        facts = [
            (0, 0, 1, 0),
            (0, 0, 2, 0),
            (0, 0, 3, 0),
            (0, 1, 1, 0),  # (0, 1) entity pair repeats with both relations
            (1, 1, 2, 0),
            (0, 0, 1, 1),
            (0, 0, 4, 1),
            (2, 1, 3, 1),
        ]
        return TemporalKG(facts, num_entities=5, num_relations=2)

    def reference_result(self, model, graph):
        """The pre-dedup protocol, inlined: score every row directly."""
        from repro.eval.metrics import RankAccumulator, ranks_from_scores

        entity_acc, relation_acc = RankAccumulator(), RankAccumulator()
        for ts in graph.timestamps:
            triples = graph.snapshot(int(ts)).triples
            s, r, o = triples[:, 0], triples[:, 1], triples[:, 2]
            queries = np.concatenate(
                [np.stack([s, r], axis=1), np.stack([o, r + 2], axis=1)]
            )
            targets = np.concatenate([o, s])
            scores = model.predict_entities(queries, int(ts))
            entity_acc.update(ranks_from_scores(scores, targets))
            pairs = np.stack([s, o], axis=1)
            relation_acc.update(ranks_from_scores(model.predict_relations(pairs, int(ts)), r))
        return entity_acc.summary(), relation_acc.summary()

    def test_ranks_identical_and_fewer_rows_scored(self):
        graph = self.duplicated_graph()
        deduped = RecordingModel(5, 2)
        result = evaluate_extrapolation(deduped, graph, observe=False)

        reference = RecordingModel(5, 2)
        entity_ref, relation_ref = self.reference_result(reference, graph)

        assert result.entity == entity_ref
        assert result.relation == relation_ref
        assert deduped.entity_rows < reference.entity_rows
        assert deduped.relation_rows < reference.relation_rows


# ----------------------------------------------------------------------
# DtypePolicy mechanics
# ----------------------------------------------------------------------
class TestDtypePolicy:
    def test_policy_scopes_tensor_creation(self):
        from repro.autograd import DtypePolicy

        assert Tensor(np.ones(3)).data.dtype == np.float64
        with DtypePolicy("float32"):
            assert Tensor(np.ones(3)).data.dtype == np.float32
            with DtypePolicy("float64"):
                assert Tensor(np.ones(3)).data.dtype == np.float64
            assert Tensor(np.ones(3)).data.dtype == np.float32
        assert Tensor(np.ones(3)).data.dtype == np.float64

    def test_policy_restores_on_exception(self):
        from repro.autograd import DtypePolicy

        with pytest.raises(RuntimeError):
            with DtypePolicy("float32"):
                raise RuntimeError("boom")
        assert default_dtype() == np.float64

    def test_set_default_dtype_returns_previous(self):
        from repro.autograd import set_default_dtype

        previous = set_default_dtype("float32")
        try:
            assert previous == np.float64
            assert default_dtype() == np.float32
        finally:
            set_default_dtype(previous)
        assert default_dtype() == np.float64

    def test_unsupported_dtypes_rejected(self):
        from repro.autograd import resolve_dtype

        for bad in ("float16", "int64", "complex128"):
            with pytest.raises((ValueError, TypeError)):
                resolve_dtype(bad)

    def test_gradients_follow_the_owning_tensor(self):
        from repro.autograd import DtypePolicy

        with DtypePolicy("float32"):
            a = Tensor(np.ones((2, 2)), requires_grad=True)
        (a * 2.0).sum().backward()
        assert a.grad.dtype == np.float32


# ----------------------------------------------------------------------
# Previously unseeded default generators are now deterministic
# ----------------------------------------------------------------------
class TestSeededDefaults:
    def test_dropout_default_rng_is_deterministic(self):
        x = Tensor(np.arange(24.0).reshape(4, 6))
        outs = [Dropout(0.5).train()(x).data for _ in range(2)]
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_rrelu_default_rng_is_deterministic(self):
        x = Tensor(np.linspace(-3, 3, 24).reshape(4, 6))
        outs = [RReLU().train()(x).data for _ in range(2)]
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_convtranse_default_rng_is_deterministic(self):
        rng = np.random.default_rng(7)
        first = Tensor(rng.normal(size=(3, 8)))
        second = Tensor(rng.normal(size=(3, 8)))
        candidates = Tensor(rng.normal(size=(5, 8)))
        outs = [
            reference_probabilities(
                ConvTransE(8, num_kernels=4).train(), first, second, candidates
            ).data
            for _ in range(2)
        ]
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_two_model_constructions_are_bit_identical(self):
        graph = tiny_graph()
        losses = []
        for _ in range(2):
            model = make_model().train()
            model.set_history(graph)
            losses.append(model.loss_on_snapshot(graph.snapshot(3))[0].data.copy())
        assert make_model().fingerprint() == make_model().fingerprint()
        np.testing.assert_array_equal(losses[0], losses[1])
