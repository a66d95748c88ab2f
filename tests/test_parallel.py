"""Tests for deterministic parallel execution (repro.parallel).

The contract under test: **the math is defined by the plan, never by
the execution**.  The evaluation drivers must be bit-identical to the
serial reference drivers in ``tests/oracles.py`` for every worker
count; the concurrency-hardened pieces the runtime rests on
(SnapshotCache locking, GracefulInterrupt escalation) are covered here
too.
"""

import copy
import importlib.util
import io
import os
import pickle
import signal
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core import RETIA, RETIAConfig
from repro.datasets import SyntheticTKGConfig, generate_tkg
from repro.eval import (
    diagnose_extrapolation,
    evaluate_extrapolation,
    known_entities_of,
)
from repro.graph import Snapshot, SnapshotCache
from repro.obs import RunReporter, read_events
from repro.parallel import ShardedEvalError, shard_bounds, shard_sequence
from repro.resilience import GracefulInterrupt

from tests.oracles import reference_diagnose, reference_evaluate

_HEALTH_PATH = Path(__file__).resolve().parent.parent / "scripts" / "check_run_health.py"
_spec = importlib.util.spec_from_file_location("check_run_health_parallel", _HEALTH_PATH)
check_run_health = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_run_health)


def small_dataset(num_timestamps=14):
    config = SyntheticTKGConfig(
        num_entities=20,
        num_relations=4,
        num_timestamps=num_timestamps,
        events_per_step=18,
        base_pool_size=40,
        seed=11,
    )
    return generate_tkg(config).split((0.6, 0.15, 0.25))


def make_model(seed=0):
    return RETIA(
        RETIAConfig(
            num_entities=20, num_relations=4, dim=8, history_length=2,
            num_kernels=4, seed=seed,
        )
    )


def revealed_model(train, valid, seed=0):
    model = make_model(seed)
    model.set_history(train)
    for ts in valid.timestamps:
        model.record_snapshot(valid.snapshot(int(ts)))
    model.eval()
    return model


@pytest.fixture(scope="module")
def splits():
    return small_dataset()


# ----------------------------------------------------------------------
# Plan primitives
# ----------------------------------------------------------------------
class TestShardBounds:
    def test_matches_array_split_convention(self):
        for n_items in (0, 1, 7, 16, 23):
            for n_shards in (1, 2, 3, 5, 8):
                items = np.arange(n_items)
                expected = [list(part) for part in np.array_split(items, n_shards)]
                got = [list(items[a:b]) for a, b in shard_bounds(n_items, n_shards)]
                assert got == expected

    def test_empty_shards_keep_stable_indices(self):
        bounds = shard_bounds(2, 4)
        assert len(bounds) == 4
        assert bounds[2] == bounds[3] == (2, 2)

    def test_bounds_are_contiguous_and_cover(self):
        bounds = shard_bounds(17, 5)
        assert bounds[0][0] == 0 and bounds[-1][1] == 17
        for (_, stop), (start, _) in zip(bounds, bounds[1:]):
            assert stop == start

    def test_validation(self):
        with pytest.raises(ValueError):
            shard_bounds(3, 0)
        with pytest.raises(ValueError):
            shard_bounds(-1, 2)

    def test_shard_sequence_preserves_order(self):
        blocks = shard_sequence(list("abcdefg"), 3)
        assert blocks == [["a", "b", "c"], ["d", "e"], ["f", "g"]]
        assert [x for block in blocks for x in block] == list("abcdefg")


# ----------------------------------------------------------------------
# Sharded evaluation
# ----------------------------------------------------------------------
class TestShardedEvaluation:
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_summary_bit_identical_to_serial(self, splits, workers):
        train, valid, test = splits
        serial = reference_evaluate(revealed_model(train, valid), test)
        sharded = evaluate_extrapolation(revealed_model(train, valid), test, workers=workers)
        # Exact ==, no tolerance: folding the scored timestamps in
        # timestamp order replays the serial float-accumulation chain
        # operation for operation.
        assert sharded.entity == serial.entity
        assert sharded.relation == serial.relation

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_diagnostics_bit_identical_to_serial(self, splits, workers):
        train, valid, test = splits
        known = known_entities_of(train, valid)
        serial = reference_diagnose(revealed_model(train, valid), test, known_entities=known)
        sharded = diagnose_extrapolation(
            revealed_model(train, valid), test, known_entities=known, workers=workers
        )
        assert sharded.aggregate == serial.aggregate
        assert sharded.relation_aggregate == serial.relation_aggregate
        assert sharded.to_dict() == serial.to_dict()

    def test_caller_model_ends_with_test_horizon_revealed(self, splits):
        train, valid, test = splits
        serial_model = revealed_model(train, valid)
        reference_evaluate(serial_model, test)
        sharded_model = revealed_model(train, valid)
        evaluate_extrapolation(sharded_model, test, workers=2)
        last = int(test.timestamps[-1]) + 1
        assert len(sharded_model.history_before(last)) == len(
            serial_model.history_before(last)
        )

    def test_refuses_sequential_only_models_at_workers_above_one(self):
        class OnlineOnly:
            def observe(self, snapshot):
                pass

        with pytest.raises(ShardedEvalError, match="inherently sequential"):
            evaluate_extrapolation(OnlineOnly(), None, workers=2, observe=True)

    def test_workers_one_admits_sequential_only_models(self, splits):
        # At workers=1 the driver replays the *sequential* reveal
        # schedule, so a model exposing only ``observe`` (the
        # OnlineAdapter shape — no record_snapshot / history_before)
        # evaluates fine and matches the serial reference.
        train, valid, test = splits

        class SequentialOnly:
            def __init__(self, inner):
                self._inner = inner

            def observe(self, snapshot):
                self._inner.observe(snapshot)

            def predict_entities(self, queries, ts):
                return self._inner.predict_entities(queries, ts)

            def predict_relations(self, pairs, ts):
                return self._inner.predict_relations(pairs, ts)

        serial = reference_evaluate(revealed_model(train, valid), test)
        sharded = evaluate_extrapolation(
            SequentialOnly(revealed_model(train, valid)), test, workers=1
        )
        assert sharded.entity == serial.entity
        assert sharded.relation == serial.relation

    def test_refuses_invalid_worker_count(self, splits):
        train, valid, test = splits
        with pytest.raises(ShardedEvalError):
            evaluate_extrapolation(revealed_model(train, valid), test, workers=0)

    def test_filtered_setting_requires_index(self, splits):
        train, valid, test = splits
        with pytest.raises(ValueError, match="FilterIndex"):
            evaluate_extrapolation(
                revealed_model(train, valid), test, setting="static", workers=2
            )

    def test_worker_telemetry_reaches_reporter(self, splits):
        # Both drivers emit one worker event per block at every worker
        # count; diagnose then adds its diagnostic event.
        train, valid, test = splits
        non_empty = sum(1 for ts in test.timestamps if len(test.snapshot(int(ts)).triples))
        for workers in (1, 2):
            for driver, tail in (
                (evaluate_extrapolation, []),
                (diagnose_extrapolation, ["diagnostic"]),
            ):
                buf = io.StringIO()
                with RunReporter(buf) as reporter:
                    driver(revealed_model(train, valid), test, workers=workers, reporter=reporter)
                events = [
                    e
                    for e in read_events(buf.getvalue().splitlines())
                    if e["event"] in ("worker", "diagnostic")
                ]
                assert [e["event"] for e in events] == ["worker"] * workers + tail
                assert [e["worker"] for e in events[:workers]] == list(range(workers))
                assert all(e["scope"] == "eval" for e in events[:workers])
                assert sum(e["shards"] for e in events[:workers]) == non_empty

    def test_reports_carrying_a_scorer_field_stay_healthy(self, splits):
        # Eval reports written while a candidate-scorer choice existed
        # tag worker and diagnostic events with its spec; the field is
        # now ignored, whatever values it holds.
        train, valid, test = splits
        buf = io.StringIO()
        with RunReporter(buf) as reporter:
            reporter.emit("run_start", schema_version=1, command="diagnose", config={})
            diagnose_extrapolation(
                revealed_model(train, valid), test, workers=2, reporter=reporter
            )
            reporter.emit("run_end", status="completed", epochs_completed=0)
        events = read_events(buf.getvalue().splitlines())
        tagged = [e for e in events if e["event"] in ("worker", "diagnostic")]
        for event, spec in zip(tagged, ("legacy", "blocked:128:8192", "history:32")):
            event["scorer"] = spec
        problems = check_run_health.check_events(
            events, max_encoder_share=1.0, allowed_statuses={"completed"}
        )
        assert problems == []


# ----------------------------------------------------------------------
# SnapshotCache thread-safety (the concurrency bugfix sweep)
# ----------------------------------------------------------------------
def _cache_snapshot(ts, shift=0):
    triples = np.array([[0, 0, 1], [1, 1, 2], [(2 + shift) % 4, 0, 0]])
    return Snapshot(triples, num_entities=4, num_relations=2, ts=ts)


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
        # Sharded evaluation ships the model, its cache and so the cached
        # message plans to pool workers by pickling.
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


# ----------------------------------------------------------------------
# GracefulInterrupt escalation and thread confinement
# ----------------------------------------------------------------------
class TestGracefulInterrupt:
    def test_first_signal_sets_flag_second_escalates(self):
        with GracefulInterrupt() as guard:
            signal.raise_signal(signal.SIGINT)
            assert guard.triggered
            assert guard.signal_number == signal.SIGINT
            # Second SIGINT restores the previous (default) handlers and
            # re-raises against them: Python's default turns it into
            # KeyboardInterrupt instead of being swallowed.
            with pytest.raises(KeyboardInterrupt):
                signal.raise_signal(signal.SIGINT)

    def test_handlers_restored_on_exit(self):
        before = signal.getsignal(signal.SIGINT)
        with GracefulInterrupt():
            assert signal.getsignal(signal.SIGINT) != before
        assert signal.getsignal(signal.SIGINT) == before

    def test_context_is_not_reentrant(self):
        guard = GracefulInterrupt(enabled=False)
        with guard:
            with pytest.raises(RuntimeError, match="not re-entrant"):
                guard.__enter__()
        # After a clean exit it is usable again.
        with guard:
            pass

    def test_off_main_thread_warns_and_stays_inert(self):
        captured = {}

        def worker():
            with pytest.warns(RuntimeWarning, match="off the main thread"):
                with GracefulInterrupt() as guard:
                    captured["triggered"] = guard.triggered
            captured["ok"] = True

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert captured == {"triggered": False, "ok": True}


# ----------------------------------------------------------------------
# Worker death and worker exceptions surface as ShardedEvalError
# ----------------------------------------------------------------------
class KilledInWorker(RETIA):
    """SIGKILLs its own process the first time it scores off the parent.

    Module-level (not a closure) so the pool can ship it to workers; the
    parent pid is captured at construction, so only forked children die.
    Both entity scoring entry points are covered: the protocol ranks
    RETIA's entities through ``rank_entities``, which does not call
    ``predict_entities``.
    """

    def __init__(self, config):
        super().__init__(config)
        self._parent_pid = os.getpid()

    def _fault(self):
        if os.getpid() != self._parent_pid:
            os.kill(os.getpid(), signal.SIGKILL)

    def predict_entities(self, queries, ts):
        self._fault()
        return super().predict_entities(queries, ts)

    def rank_entities(self, *args, **kwargs):
        self._fault()
        return super().rank_entities(*args, **kwargs)


class ExplodesInWorker(KilledInWorker):
    """Raises from ``predict_entities``/``rank_entities`` only inside a pool worker."""

    def _fault(self):
        if os.getpid() != self._parent_pid:
            raise RuntimeError("worker exploded on purpose")


def _revealed(klass, train, valid):
    model = klass(
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


class TestShardedEvalWorkerFailures:
    def test_killed_worker_raises_naming_shard_and_timeout(self, splits):
        # A SIGKILLed pool worker loses its task *silently* — pool.map
        # would hang forever.  The per-block timeout must convert that
        # into a ShardedEvalError naming the shard and its timestamps.
        train, valid, test = splits
        model = _revealed(KilledInWorker, train, valid)
        with pytest.raises(ShardedEvalError, match="produced no result within") as e:
            evaluate_extrapolation(model, test, workers=2, shard_timeout=2.0)
        message = str(e.value)
        assert "shard block" in message
        assert "timestamps" in message
        assert "workers=1" in message  # the remediation hint

    def test_worker_exception_wrapped_with_shard_context(self, splits):
        train, valid, test = splits
        model = _revealed(ExplodesInWorker, train, valid)
        with pytest.raises(
            ShardedEvalError, match="worker exploded on purpose"
        ) as e:
            evaluate_extrapolation(model, test, workers=2)
        assert "failed in a pool worker: RuntimeError" in str(e.value)
