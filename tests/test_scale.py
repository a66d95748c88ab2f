"""Tests for the entity-axis scaling seam (repro.scale).

The load-bearing claims: blocked candidate scoring is **bitwise**
identical to the unblocked ``BlockedScorer(None, None)`` oracle at any
block size (the einsum kernel's reduction order is
blocking-invariant); memmap-backed embedding stores round-trip through
checkpoints, pickling and sharded evaluation without changing a single
bit; and the run-health gate refuses reports that mix scoring
strategies.
"""

import importlib.util
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.core import RETIA, RETIAConfig
from repro.datasets import SyntheticTKGConfig, generate_tkg
from repro.eval import evaluate_extrapolation
from repro.eval.metrics import ranks_from_scores
from repro.io import load_checkpoint, save_checkpoint
from repro.obs import RunReporter, read_events
from repro.scale import (
    BlockedScorer,
    EmbeddingStore,
    FrozenWindowModel,
    HistoryCandidateIndex,
    HistoryFilteredScorer,
    get_scorer,
    select_topk,
)

_HEALTH_PATH = Path(__file__).resolve().parent.parent / "scripts" / "check_run_health.py"
_spec = importlib.util.spec_from_file_location("check_run_health_scale", _HEALTH_PATH)
check_run_health = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_run_health)


def unblocked():
    """The exact one-pass oracle: one block over queries and candidates."""
    return BlockedScorer(query_block=None, candidate_block=None)


def random_problem(seed=0, snaps=2, unique=23, dim=6, candidates=37):
    rng = np.random.default_rng(seed)
    queries = rng.normal(size=(snaps, unique, dim))
    tables = [rng.normal(size=(candidates, dim)) for _ in range(snaps)]
    rows = 40
    inverse = rng.integers(0, unique, size=rows)
    targets = rng.integers(0, candidates, size=rows)
    mask = rng.random((rows, candidates)) < 0.2
    return queries, tables, targets, mask, inverse


def small_dataset(num_timestamps=12):
    config = SyntheticTKGConfig(
        num_entities=24,
        num_relations=4,
        num_timestamps=num_timestamps,
        events_per_step=18,
        base_pool_size=40,
        seed=7,
    )
    return generate_tkg(config).split((0.6, 0.15, 0.25))


def revealed_model(train, valid, seed=0, **overrides):
    params = dict(
        num_entities=24, num_relations=4, dim=8, history_length=2,
        num_kernels=4, seed=seed,
    )
    params.update(overrides)
    model = RETIA(RETIAConfig(**params))
    model.set_history(train)
    for ts in valid.timestamps:
        model.record_snapshot(valid.snapshot(int(ts)))
    model.eval()
    return model


@pytest.fixture(scope="module")
def splits():
    return small_dataset()


class TestBlockedBitIdentity:
    @pytest.mark.parametrize("qb,cb", [(1, 1), (5, 7), (23, 37), (64, 8192)])
    def test_scores_and_ranks_equal_dense_to_last_ulp(self, qb, cb):
        queries, tables, targets, mask, inverse = random_problem()
        oracle, blocked = unblocked(), BlockedScorer(qb, cb)
        assert np.array_equal(
            blocked.sum_probs(queries, tables), oracle.sum_probs(queries, tables)
        )
        for m in (None, mask):
            assert np.array_equal(
                blocked.ranks(queries, tables, targets, mask=m, inverse=inverse),
                oracle.ranks(queries, tables, targets, mask=m, inverse=inverse),
            )

    def test_ranks_reproduce_the_reference_counting(self):
        queries, tables, targets, mask, inverse = random_problem(seed=3)
        oracle = unblocked()
        scores = oracle.sum_probs(queries, tables)[inverse]
        assert np.array_equal(
            oracle.ranks(queries, tables, targets, mask=mask, inverse=inverse),
            ranks_from_scores(scores, targets, mask),
        )
        # Identity inverse: passing None must mean "one row per query".
        rows = queries.shape[1]
        assert np.array_equal(
            oracle.ranks(queries, tables, targets[:rows], mask=mask[:rows]),
            ranks_from_scores(
                oracle.sum_probs(queries, tables), targets[:rows], mask[:rows]
            ),
        )

    def test_topk_selection_matches_full_sort(self):
        queries, tables, _, _, _ = random_problem(seed=5)
        scores = BlockedScorer(query_block=6).sum_probs(queries, tables)
        assert np.array_equal(scores, unblocked().sum_probs(queries, tables))
        for row in scores:
            reference = np.lexsort((np.arange(row.size), -row))[:4]
            assert np.array_equal(select_topk(row, 4), reference)


class TestSelectTopK:
    def test_threshold_ties_resolved_by_smallest_index(self):
        scores = np.array([1.0, 3.0, 3.0, 2.0, 3.0, 0.5])
        assert np.array_equal(select_topk(scores, 3), [1, 2, 4])
        assert np.array_equal(select_topk(scores, 4), [1, 2, 4, 3])

    def test_k_bounds(self):
        scores = np.array([2.0, 1.0, 3.0])
        assert np.array_equal(select_topk(scores, 10), [2, 0, 1])
        assert select_topk(scores, 0).size == 0
        with pytest.raises(ValueError):
            select_topk(np.zeros((2, 2)), 1)


class TestGetScorer:
    def test_specs_round_trip(self):
        for spec in ("blocked", "blocked:16", "blocked:16:256", "history:32"):
            scorer = get_scorer(spec)
            assert get_scorer(scorer) is scorer
            reparsed = get_scorer(scorer.spec())
            assert reparsed.spec() == scorer.spec()
        assert get_scorer("blocked").spec() == "blocked:128:8192"

    def test_legacy_and_none_mean_no_scorer(self):
        assert get_scorer(None) is None
        assert get_scorer("legacy") is None
        assert get_scorer("") is None

    @pytest.mark.parametrize(
        "bad", ["nope", "topk", "blocked:1:2:3", "history", "topk:x", "dense", "topk:5"]
    )
    def test_bad_specs_raise(self, bad):
        with pytest.raises(ValueError):
            get_scorer(bad)

    def test_exactness_contract(self):
        assert get_scorer("blocked").exact and get_scorer("blocked:3").exact
        assert not get_scorer("history:8").exact
        assert get_scorer("history:8").needs_history


class TestEmbeddingStore:
    def test_roundtrip_backends_and_pickle(self, tmp_path):
        table = np.random.default_rng(1).normal(size=(12, 5))
        ram = EmbeddingStore.from_array(table)
        assert ram.backend == "ram" and ram.data is table

        saved = EmbeddingStore.save(str(tmp_path / "t.npy"), table)
        assert saved.backend == "memmap"
        assert np.array_equal(saved.data, table)
        assert isinstance(saved.data, np.memmap)

        reopened = EmbeddingStore.open(str(tmp_path / "t.npy"))
        clone = pickle.loads(pickle.dumps(reopened))
        assert clone._data is None  # path-only pickle: reopens lazily
        assert np.array_equal(clone.data, table)
        assert clone.shape == (12, 5)
        assert np.array_equal(clone.materialize(), table)

    def test_two_d_enforced(self, tmp_path):
        with pytest.raises(ValueError):
            EmbeddingStore.from_array(np.zeros(3))
        with pytest.raises(ValueError):
            EmbeddingStore.save(str(tmp_path / "bad.npy"), np.zeros(3))
        with pytest.raises(ValueError):
            EmbeddingStore(array=np.zeros((2, 2)), path="both")


class TestCheckpointSidecars:
    def test_external_roundtrip_eager_and_mmap(self, tmp_path):
        table = np.random.default_rng(2).normal(size=(30, 4))
        state = {"embedding.weight": table, "bias": np.arange(3.0)}
        path = save_checkpoint(
            str(tmp_path / "ck.npz"), state, config={"dim": 4},
            external_dir=str(tmp_path), external_keys=("embedding.weight",),
        )
        eager, config = load_checkpoint(path)
        assert config == {"dim": 4}
        assert np.array_equal(eager["embedding.weight"], table)
        assert not isinstance(eager["embedding.weight"], np.memmap)

        lazy, _ = load_checkpoint(path, mmap_external=True)
        assert isinstance(lazy["embedding.weight"], np.memmap)
        assert np.array_equal(np.asarray(lazy["embedding.weight"]), table)
        assert np.array_equal(lazy["bias"], state["bias"])

    def test_missing_sidecar_and_missing_key_fail_loudly(self, tmp_path):
        state = {"w": np.zeros((2, 2))}
        path = save_checkpoint(
            str(tmp_path / "ck.npz"), state,
            external_dir=str(tmp_path), external_keys=("w",),
        )
        (tmp_path / "w.npy").unlink()
        with pytest.raises(FileNotFoundError):
            load_checkpoint(path)
        with pytest.raises(KeyError):
            save_checkpoint(
                str(tmp_path / "ck2.npz"), state,
                external_dir=str(tmp_path), external_keys=("absent",),
            )
        with pytest.raises(ValueError):
            save_checkpoint(str(tmp_path / "ck3.npz"), state, external_keys=("w",))


class TestModelScorerSeam:
    def test_seam_strategies_reproduce_legacy_metrics(self, splits):
        train, valid, test = splits
        metrics = {}
        for spec in (None, unblocked(), "blocked", "blocked:7:11"):
            model = revealed_model(train, valid)
            model.set_scorer(spec)
            result = evaluate_extrapolation(model, test, evaluate_relations=False)
            metrics[model.scorer.spec() if model.scorer else None] = result.entity
        assert len(metrics) == 4
        assert all(entity == metrics[None] for entity in metrics.values())

    def test_history_budget_covering_vocab_is_exact(self, splits):
        train, valid, test = splits
        exact = revealed_model(train, valid)
        exact.set_scorer(unblocked())
        approx = revealed_model(train, valid)
        approx.set_scorer("history:1000")  # budget >= N: delegates to blocked
        assert (
            evaluate_extrapolation(approx, test, evaluate_relations=False).entity
            == evaluate_extrapolation(exact, test, evaluate_relations=False).entity
        )

    def test_small_history_budget_is_a_declared_approximation(self, splits):
        train, valid, test = splits
        model = revealed_model(train, valid)
        model.set_scorer("history:4")
        result = evaluate_extrapolation(model, test, evaluate_relations=False)
        assert np.isfinite(list(result.entity.values())).all()
        assert result.entity["MRR"] > 0

    def test_history_scorer_demands_query_ids(self):
        queries, tables, targets, _, _ = random_problem()
        scorer = HistoryFilteredScorer(budget=3)
        with pytest.raises(ValueError):
            scorer.ranks(queries, tables, targets[: queries.shape[1]])


class TestHistoryCandidateIndex:
    def test_frequency_then_recency_then_id_ordering(self, splits):
        train, valid, _ = splits
        index = HistoryCandidateIndex()
        snapshots = [train.snapshot(int(t)) for t in train.timestamps]
        index.record(snapshots, train.num_relations)
        # Idempotent: re-recording the same snapshots changes nothing.
        before = index.candidates(0, 0, 10).tolist()
        index.record(snapshots, train.num_relations)
        assert index.candidates(0, 0, 10).tolist() == before
        candidates = index.candidates(0, 0, 8)
        assert candidates.dtype == np.int64
        assert len(set(candidates.tolist())) == len(candidates) <= 8


class TestFrozenWindowModel:
    def test_memmap_and_ram_windows_are_bit_identical(self, splits, tmp_path):
        train, valid, test = splits
        model = revealed_model(train, valid)
        first_ts = int(test.timestamps[0])
        ram = FrozenWindowModel.freeze(model, first_ts)
        spilled = FrozenWindowModel.freeze(model, first_ts, spill_dir=str(tmp_path))
        assert {s.backend for s in ram.entity_stores} == {"ram"}
        assert {s.backend for s in spilled.entity_stores} == {"memmap"}
        ram_result = evaluate_extrapolation(ram, test)
        mm_result = evaluate_extrapolation(spilled, test)
        assert ram_result.entity == mm_result.entity
        assert ram_result.relation == mm_result.relation

    def test_sharded_workers_match_and_emit_scorer_telemetry(
        self, splits, tmp_path
    ):
        train, valid, test = splits
        model = revealed_model(train, valid)
        frozen = FrozenWindowModel.freeze(
            model, int(test.timestamps[0]), spill_dir=str(tmp_path), scorer=get_scorer("blocked:9:13")
        )
        report_path = str(tmp_path / "run.jsonl")
        reporter = RunReporter(report_path)
        try:
            serial = evaluate_extrapolation(frozen, test, workers=1)
            parallel = evaluate_extrapolation(frozen, test, workers=2, reporter=reporter)
        finally:
            reporter.close()
        assert serial.entity == parallel.entity
        workers = [e for e in read_events(report_path) if e["event"] == "worker"]
        assert workers and all(e.get("scorer") == "blocked:9:13" for e in workers)

    def test_frozen_respects_scorer_swap_and_predicts(self, splits, tmp_path):
        train, valid, test = splits
        model = revealed_model(train, valid)
        frozen = FrozenWindowModel.freeze(model, int(test.timestamps[0]))
        queries = np.array([[0, 1], [3, 2]])
        dense_probs = frozen.predict_entities(queries, ts=0)
        frozen.set_scorer("blocked:1:3")
        assert frozen.scorer.spec() == "blocked:1:3"
        assert np.array_equal(frozen.predict_entities(queries, ts=0), dense_probs)
        assert frozen.predict_relations(queries, ts=0).shape == (2, train.num_relations)


class TestServeScorerSeam:
    def test_spilled_capture_scores_match_ram_capture(self, splits, tmp_path):
        from repro.serve import capture, score_entities

        train, valid, _ = splits
        model = revealed_model(train, valid)
        ts = int(valid.timestamps[-1]) + 1
        queries = np.array([[0, 1], [3, 0], [5, 2]], dtype=np.int64)
        ram_snapshot = capture(model, ts, version=1)
        spilled = capture(model, ts, version=2, spill_dir=str(tmp_path))
        assert (tmp_path / "entity_v2_t0.npy").exists()

        legacy = score_entities(model, ram_snapshot, queries)
        # The scorer seam (einsum kernel) is blocking-invariant: blocked
        # and unblocked agree bitwise, on RAM and memmap snapshots alike.
        dense = score_entities(model, ram_snapshot, queries, scorer=unblocked())
        blocked = score_entities(model, spilled, queries, scorer="blocked:2:5")
        assert np.array_equal(blocked, dense)
        # Against the legacy matmul path only last-bits logit rounding
        # may differ, a few ulp of the model's own dtype.
        assert legacy.dtype == dense.dtype == np.dtype(model.config.dtype)
        if legacy.dtype == np.float64:
            np.testing.assert_allclose(dense, legacy, rtol=1e-12, atol=1e-15)
        else:
            np.testing.assert_allclose(dense, legacy, rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_capture_keeps_the_model_dtype(self, splits, tmp_path, dtype):
        from repro.serve import capture

        train, valid, _ = splits
        model = revealed_model(train, valid, dtype=dtype)
        ts = int(valid.timestamps[-1]) + 1
        for snapshot in (
            capture(model, ts, version=1),
            capture(model, ts, version=2, spill_dir=str(tmp_path)),
        ):
            stacks = snapshot.entity_list + snapshot.relation_list
            assert {t.data.dtype for t in stacks} == {np.dtype(dtype)}


class TestMixedScorerRefusal:
    def _events(self, specs):
        events = [{"event": "run_start", "seq": 0}]
        for i, spec in enumerate(specs):
            event = {"event": "worker", "seq": i + 1, "scope": "eval"}
            if spec is not None:
                event["scorer"] = spec
            events.append(event)
        return events

    def test_mixed_strategies_fail(self):
        problems = check_run_health.check_scorers(
            self._events(["legacy", "history:5"])
        )
        assert len(problems) == 1 and "mixed candidate scoring" in problems[0]

    def test_uniform_or_absent_strategies_pass(self):
        assert check_run_health.check_scorers(self._events(["legacy", "legacy"])) == []
        assert check_run_health.check_scorers(self._events([None, None])) == []
        assert check_run_health.check_scorers(self._events(["legacy", None])) == []
