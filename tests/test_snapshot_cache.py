"""Tests for the per-snapshot preprocessing cache."""

import copy
import pickle
import threading

import numpy as np
import pytest

from repro.core import RETIA, RETIAConfig
from repro.graph import Snapshot, SnapshotCache, TemporalKG, build_hyperrelation_graph


def make_snapshot(ts=0, triples=((0, 0, 1), (1, 1, 2), (2, 0, 0))):
    return Snapshot(np.array(triples), num_entities=4, num_relations=2, ts=ts)


class TestSnapshotCache:
    def test_hit_returns_same_artifacts(self):
        cache = SnapshotCache()
        snap = make_snapshot()
        first = cache.artifacts(snap)
        second = cache.artifacts(make_snapshot())  # equal content, new object
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_artifacts_match_direct_computation(self):
        cache = SnapshotCache()
        snap = make_snapshot()
        art = cache.artifacts(snap)
        hyper = build_hyperrelation_graph(snap)
        np.testing.assert_array_equal(np.sort(art.hyper.edges, axis=0), np.sort(hyper.edges, axis=0))
        # Plan edges are type-sorted permutations of the snapshot's own.
        assert np.all(np.diff(art.entity_plan.edges[:, 1]) >= 0)
        assert np.all(np.diff(art.hyper_plan.edges[:, 1]) >= 0)
        assert len(art.entity_plan.edge_norm) == len(snap.edges_with_inverse)
        order = np.argsort(snap.edges_with_inverse[:, 1], kind="stable")
        np.testing.assert_array_equal(art.entity_plan.edges, snap.edges_with_inverse[order])
        np.testing.assert_allclose(art.entity_plan.edge_norm, snap.edge_norm[order])

    def test_content_change_misses(self):
        cache = SnapshotCache()
        cache.artifacts(make_snapshot(ts=5))
        cache.artifacts(make_snapshot(ts=5, triples=((0, 0, 1), (1, 1, 2), (3, 1, 0))))
        assert cache.misses == 2

    def test_lru_eviction_bound(self):
        cache = SnapshotCache(max_entries=2)
        for t in range(5):
            cache.artifacts(make_snapshot(ts=t))
        assert len(cache) == 2

    def test_zero_entries_disables_caching(self):
        cache = SnapshotCache(max_entries=0)
        a = cache.artifacts(make_snapshot())
        b = cache.artifacts(make_snapshot())
        assert a is not b
        assert len(cache) == 0 and cache.misses == 2

    def test_invalidate_time(self):
        cache = SnapshotCache()
        cache.artifacts(make_snapshot(ts=3))
        cache.artifacts(make_snapshot(ts=4))
        assert cache.invalidate_time(3) == 1
        assert len(cache) == 1

    def test_clear(self):
        cache = SnapshotCache()
        cache.artifacts(make_snapshot())
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_rejects_negative_bound(self):
        with pytest.raises(ValueError):
            SnapshotCache(max_entries=-1)

    def test_empty_snapshot(self):
        cache = SnapshotCache()
        art = cache.artifacts(Snapshot(np.zeros((0, 3)), 4, 2, ts=9))
        assert art.hyper.is_empty
        assert len(art.entity_plan) == 0


class TestModelCacheWiring:
    def _model(self):
        cfg = RETIAConfig(num_entities=5, num_relations=2, dim=8, history_length=2, seed=0)
        return RETIA(cfg)

    def _graph(self):
        facts = np.array(
            [
                [0, 0, 1, 0],
                [1, 1, 2, 0],
                [2, 0, 3, 1],
                [3, 1, 4, 1],
                [0, 1, 2, 2],
                [4, 0, 1, 2],
            ]
        )
        return TemporalKG(facts, num_entities=5, num_relations=2)

    def test_epochs_hit_the_cache(self):
        model = self._model()
        graph = self._graph()
        model.set_history(graph)
        for _ in range(2):
            joint, _, _ = model.loss_on_snapshot(graph.snapshot(2))
            joint.backward()
            model.mark_updated()
        # Two passes over the same history: second pass is all hits.
        assert model.snapshot_cache.hits > 0
        assert model.snapshot_cache.misses == 2  # t=0 and t=1, built once

    def test_record_snapshot_invalidates_stale_entry(self):
        model = self._model()
        graph = self._graph()
        model.set_history(graph)
        model.loss_on_snapshot(graph.snapshot(2))
        # Reveal different facts for an already-cached timestamp.
        replacement = Snapshot(np.array([[4, 1, 0]]), 5, 2, ts=1)
        model.record_snapshot(replacement)
        before = model.snapshot_cache.misses
        model.loss_on_snapshot(graph.snapshot(2))
        # The replaced t=1 entry was dropped, so it must rebuild (a miss).
        assert model.snapshot_cache.misses == before + 1
        art = model.snapshot_cache.artifacts(replacement)
        np.testing.assert_array_equal(
            np.unique(art.entity_plan.edges[:, [0, 2]]), np.array([0, 4])
        )

    def test_predictions_unaffected_by_cache_bound(self):
        graph = self._graph()
        queries = np.array([[0, 0], [1, 1]])

        def scores(max_entries):
            model = self._model()
            model.snapshot_cache = SnapshotCache(max_entries=max_entries)
            model.set_history(graph)
            return model.predict_entities(queries, ts=2)

        np.testing.assert_allclose(scores(512), scores(0), atol=1e-12)


# ----------------------------------------------------------------------
# SnapshotCache thread-safety and copies
# ----------------------------------------------------------------------
def _cache_snapshot(ts, shift=0):
    return make_snapshot(ts, triples=((0, 0, 1), (1, 1, 2), ((2 + shift) % 4, 0, 0)))


class TestSnapshotCacheConcurrency:
    def test_hammering_threads_cannot_corrupt_the_lru(self):
        cache = SnapshotCache(max_entries=8)
        errors = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(200):
                    ts = int(rng.integers(0, 12))
                    cache.artifacts(_cache_snapshot(ts, shift=ts % 2))
                    if rng.random() < 0.05:
                        cache.invalidate_time(ts)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 8
        # Counter totals are consistent under the lock (1200 lookups).
        assert cache.hits + cache.misses == 6 * 200

    def test_racing_builds_converge_on_one_entry(self):
        cache = SnapshotCache()
        results = []
        barrier = threading.Barrier(4)

        def worker():
            barrier.wait()
            results.append(cache.artifacts(_cache_snapshot(3)))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # First insert wins; every later caller gets the same object.
        assert all(r is cache.artifacts(_cache_snapshot(3)) for r in results)
        assert len(cache) == 1

    def test_deepcopy_and_pickle_recreate_the_lock(self):
        cache = SnapshotCache()
        cache.artifacts(_cache_snapshot(1))
        for clone in (copy.deepcopy(cache), pickle.loads(pickle.dumps(cache))):
            assert clone._lock is not cache._lock
            assert len(clone) == 1
            # The clone is immediately usable (lock functional).
            clone.artifacts(_cache_snapshot(2))
            assert len(clone) == 2
        assert len(cache) == 1

    def test_pickled_model_evolves_identically_from_its_cached_plans(self):
        # A pickled model carries its cache and so the cached message
        # plans to its new home.
        config = RETIAConfig(num_entities=4, num_relations=2, dim=6, history_length=2, seed=0)
        model = RETIA(config).eval()
        history = [_cache_snapshot(1), _cache_snapshot(2, shift=1)]
        before = model.evolve(history)  # builds and caches the plans
        clone = pickle.loads(pickle.dumps(model))
        after = clone.evolve(history)
        assert clone.snapshot_cache.misses == model.snapshot_cache.misses == 2
        assert clone.snapshot_cache.hits == model.snapshot_cache.hits + 2
        for want, got in zip(before[0] + before[1], after[0] + after[1]):
            np.testing.assert_array_equal(got.data, want.data)
