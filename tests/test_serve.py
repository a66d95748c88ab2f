"""Tests for the resilient decoder-only serving layer (repro.serve).

The contract under test, rung by rung of the degradation ladder:
deadlines reject expired work before compute, bounded admission sheds
the oldest request, refresh failures degrade to *stale-marked* serving
(never downtime), a poisoned ingest stream trips the circuit breaker
(closed → open → half-open → closed), and drain terminates the run
report with reconciling totals.  The serve invariants that
``scripts/check_run_health.py`` replays over the event stream are
covered against both real servers and hand-built event streams.
"""

import importlib.util
import json
import sys
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core import RETIA, RETIAConfig, TrainerConfig
from repro.core.forecaster import validate_snapshot_ids
from repro.core.trainer import OnlineAdapter
from repro.datasets import SyntheticTKGConfig, generate_tkg
from repro.graph import Snapshot
from repro.obs import RunReporter, read_events
from repro.resilience import RefreshFault, ServeFaultInjector
from repro.serve import (
    SHED_DEADLINE,
    SHED_QUEUE_FULL,
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    STATUS_DEADLINE,
    STATUS_INVALID,
    STATUS_OK,
    STATUS_UNAVAILABLE,
    CircuitBreaker,
    DeadlineExceeded,
    LoadgenConfig,
    MicroBatcher,
    ModelServer,
    ServeConfig,
    ServeRequest,
    ServeResponse,
    Shed,
    SnapshotStore,
    SnapshotUnavailable,
    capture,
    loadgen,
    run_drill,
    score_entities,
    select_topk,
    summarize_responses,
    topk_entities,
)

_HEALTH_PATH = (
    Path(__file__).resolve().parent.parent / "scripts" / "check_run_health.py"
)
_spec = importlib.util.spec_from_file_location("check_run_health_serve", _HEALTH_PATH)
check_run_health = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_run_health)


def check_events(events):
    """Full health check with permissive training-side thresholds."""
    return check_run_health.check_events(
        events, max_encoder_share=1.0, allowed_statuses={"completed"}
    )


def tiny_dataset():
    config = SyntheticTKGConfig(
        num_entities=16,
        num_relations=3,
        num_timestamps=12,
        events_per_step=14,
        base_pool_size=30,
        seed=7,
    )
    return generate_tkg(config).split((0.6, 0.15, 0.25))


@pytest.fixture(scope="module")
def splits():
    return tiny_dataset()


def build_model(seed=0, **overrides):
    return RETIA(
        RETIAConfig(
            num_entities=16, num_relations=3, dim=8, history_length=2,
            num_kernels=4, seed=seed, **overrides,
        )
    )


def revealed_model(train, valid, seed=0, **overrides):
    model = build_model(seed, **overrides)
    model.set_history(train)
    for ts in valid.timestamps:
        model.record_snapshot(valid.snapshot(int(ts)))
    model.eval()
    return model


def make_server(splits, reporter=None, fault_injector=None, online_steps=1, **overrides):
    train, valid, _ = splits
    model = revealed_model(train, valid)
    adapter = OnlineAdapter(
        model, TrainerConfig(online_steps=online_steps, online_lr=1e-3, seed=0)
    )
    knobs = dict(
        max_batch=8,
        max_queue=16,
        batch_wait_ms=0.5,
        default_deadline_ms=2000.0,
        refresh_attempts=3,
        refresh_backoff_ms=1.0,
        breaker_failure_threshold=3,
        breaker_recovery_ms=30.0,
        seed=0,
    )
    knobs.update(overrides)
    return ModelServer(
        model,
        adapter=adapter,
        config=ServeConfig(**knobs),
        reporter=reporter,
        fault_injector=fault_injector,
    )


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# ----------------------------------------------------------------------
# Circuit breaker state machine
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def make(self, **kwargs):
        clock = FakeClock()
        transitions = []
        breaker = CircuitBreaker(
            failure_threshold=kwargs.pop("failure_threshold", 3),
            recovery_seconds=kwargs.pop("recovery_seconds", 1.0),
            clock=clock,
            on_transition=lambda old, new, why: transitions.append((old, new)),
            **kwargs,
        )
        return breaker, clock, transitions

    def test_trips_open_after_consecutive_failures(self):
        breaker, _, transitions = self.make()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == STATE_CLOSED
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        assert transitions == [(STATE_CLOSED, STATE_OPEN)]

    def test_interleaved_success_resets_consecutive_count(self):
        breaker, _, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == STATE_CLOSED

    def test_open_refuses_and_counts(self):
        breaker, clock, _ = self.make()
        for _ in range(3):
            breaker.record_failure()
        assert not breaker.allow()
        assert not breaker.allow()
        assert breaker.snapshot()["total_refused"] == 2
        clock.advance(0.5)
        assert not breaker.allow()

    def test_half_open_recovery_to_closed(self):
        breaker, clock, transitions = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        assert breaker.state == STATE_HALF_OPEN
        # Probe budget is 1: a second concurrent caller is refused.
        assert not breaker.allow()
        breaker.record_success()
        assert breaker.state == STATE_CLOSED
        assert transitions == [
            (STATE_CLOSED, STATE_OPEN),
            (STATE_OPEN, STATE_HALF_OPEN),
            (STATE_HALF_OPEN, STATE_CLOSED),
        ]

    def test_half_open_failure_reopens_and_restarts_clock(self):
        breaker, clock, _ = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        assert not breaker.allow()  # recovery clock restarted
        clock.advance(1.0)
        assert breaker.allow()
        assert breaker.state == STATE_HALF_OPEN

    def test_illegal_transition_rejected(self):
        breaker, _, _ = self.make()
        with pytest.raises(RuntimeError, match="illegal breaker transition"):
            breaker._transition(STATE_HALF_OPEN, "nope")

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(recovery_seconds=-1)
        with pytest.raises(ValueError):
            CircuitBreaker(half_open_probes=0)


# ----------------------------------------------------------------------
# Micro-batcher: coalescing, deadlines, bounded admission, drain
# ----------------------------------------------------------------------
def identity_scorer(rows):
    # (B, 2) -> (B, 2): each request gets its own rows back.
    return np.asarray(rows, dtype=np.float64)


def wait_in_thread(request, timeout=5.0):
    """Start a thread waiting on ``request``; returns it and its outcome list."""
    outcome = []
    thread = threading.Thread(
        target=lambda: outcome.append(request.wait(timeout=timeout))
    )
    thread.start()
    return thread, outcome


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached"
        time.sleep(0.001)


class TestMicroBatcher:
    def test_coalesces_and_splits_results(self):
        calls = []

        def scorer(rows):
            calls.append(len(rows))
            return identity_scorer(rows)

        batcher = MicroBatcher(scorer, max_batch=8, max_wait=0.05)
        try:
            requests = [
                ServeRequest(
                    np.array([[i, i + 1]]), deadline=None, now=time.monotonic()
                )
                for i in range(3)
            ]
            for request in requests:
                batcher.submit(request)
            for i, request in enumerate(requests):
                assert request.wait(timeout=5.0)
                np.testing.assert_array_equal(request.result, [[i, i + 1]])
            assert sum(calls) == 3
        finally:
            assert batcher.close(timeout=5.0)

    def test_expired_request_rejected_before_compute(self):
        scored = []
        sheds = []
        batcher = MicroBatcher(
            lambda rows: (scored.append(len(rows)), identity_scorer(rows))[1],
            max_wait=0.0,
            on_shed=lambda request, reason: sheds.append(reason),
        )
        try:
            request = ServeRequest(
                np.array([[0, 0]]),
                deadline=time.monotonic() - 0.01,
                now=time.monotonic(),
            )
            batcher.submit(request)
            assert request.wait(timeout=5.0)
            assert isinstance(request.error, DeadlineExceeded)
            assert scored == []  # no decoder time was burned
            assert sheds == [SHED_DEADLINE]
        finally:
            batcher.close(timeout=5.0)

    def test_full_queue_sheds_oldest(self):
        gate = threading.Event()
        sheds = []

        def blocked_scorer(rows):
            gate.wait(timeout=10.0)
            return identity_scorer(rows)

        batcher = MicroBatcher(
            blocked_scorer,
            max_batch=1,
            max_queue=1,
            max_wait=0.0,
            on_shed=lambda request, reason: sheds.append(reason),
        )
        first = ServeRequest(np.array([[0, 0]]), None, now=time.monotonic())
        helper = None
        try:
            batcher.submit(first)
            # A helper thread waits on `first`: it leads, dequeues it and
            # blocks inside the scorer, so the queue is empty again.
            helper, _ = wait_in_thread(first)
            deadline = time.monotonic() + 5.0
            while batcher.depth > 0 and time.monotonic() < deadline:
                time.sleep(0.001)
            oldest = ServeRequest(np.array([[1, 1]]), None, now=time.monotonic())
            newest = ServeRequest(np.array([[2, 2]]), None, now=time.monotonic())
            batcher.submit(oldest)
            batcher.submit(newest)  # queue full: `oldest` is shed
            assert oldest.wait(timeout=5.0)
            assert isinstance(oldest.error, Shed)
            assert oldest.error.reason == SHED_QUEUE_FULL
            assert sheds == [SHED_QUEUE_FULL]
            gate.set()
            assert newest.wait(timeout=5.0)
            np.testing.assert_array_equal(newest.result, [[2, 2]])
            np.testing.assert_array_equal(first.result, [[0, 0]])
        finally:
            gate.set()
            if helper is not None:
                helper.join(timeout=5.0)
            batcher.close(timeout=5.0)

    def test_scorer_exception_fails_waiters_but_batcher_survives(self):
        fail_next = [True]

        def scorer(rows):
            if fail_next[0]:
                fail_next[0] = False
                raise ValueError("decoder blew up")
            return identity_scorer(rows)

        batcher = MicroBatcher(scorer, max_wait=0.0)
        try:
            doomed = ServeRequest(np.array([[0, 0]]), None, now=time.monotonic())
            batcher.submit(doomed)
            assert doomed.wait(timeout=5.0)
            assert isinstance(doomed.error, ValueError)
            healthy = ServeRequest(np.array([[3, 1]]), None, now=time.monotonic())
            batcher.submit(healthy)
            assert healthy.wait(timeout=5.0)
            np.testing.assert_array_equal(healthy.result, [[3, 1]])
        finally:
            batcher.close(timeout=5.0)

    def test_close_refuses_new_submissions(self):
        batcher = MicroBatcher(identity_scorer)
        assert batcher.close(timeout=5.0)
        with pytest.raises(Shed) as excinfo:
            batcher.submit(
                ServeRequest(np.array([[0, 0]]), None, now=time.monotonic())
            )
        assert excinfo.value.reason == "draining"

    def test_validation(self):
        with pytest.raises(ValueError):
            MicroBatcher(identity_scorer, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(identity_scorer, max_queue=0)
        for max_wait in (-0.005, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                MicroBatcher(identity_scorer, max_wait=max_wait)


class TestCompanionWait:
    """A leader holds a batch (up to ``max_wait``) only for callers on their way.

    ``max_wait`` is 5 s throughout, so "did not wait" (well under 1 s)
    and "waited" (still unresolved after 0.2 s) are far apart.  Where a
    batch is held, a helper thread is the waiting caller that leads.
    """

    def make(self, calls):
        def scorer(rows):
            calls.append(len(rows))
            return identity_scorer(rows)

        return MicroBatcher(scorer, max_batch=8, max_wait=5.0)

    def test_lone_caller_is_not_held_for_max_wait(self):
        calls = []
        batcher = self.make(calls)
        try:
            for _ in range(3):
                request = ServeRequest(np.array([[1, 2]]), None, now=time.monotonic())
                begin = time.monotonic()
                with batcher.arrival() as arrival:
                    arrival.submit(request)
                assert request.wait(timeout=5.0)
                assert time.monotonic() - begin < 1.0
            assert calls == [1, 1, 1]
            assert batcher.arriving == 0
        finally:
            assert batcher.close(timeout=5.0)

    def test_announced_caller_is_waited_for(self):
        calls = []
        batcher = self.make(calls)
        try:
            with batcher.arrival() as late:
                early = ServeRequest(np.array([[0, 1]]), None, now=time.monotonic())
                batcher.submit(early)
                waiter, outcome = wait_in_thread(early)
                # `late` is still on its way: the leading waiter holds
                # the batch for it.
                time.sleep(0.2)
                assert not early.done and calls == []
                second = ServeRequest(np.array([[2, 3]]), None, now=time.monotonic())
                late.submit(second)
            waiter.join(timeout=5.0)
            assert outcome == [True] and second.wait(timeout=5.0)
            assert calls == [2]  # both rows in one scorer call
            np.testing.assert_array_equal(early.result, [[0, 1]])
            np.testing.assert_array_equal(second.result, [[2, 3]])
        finally:
            assert batcher.close(timeout=5.0)

    def test_caller_leaving_without_submitting_releases_the_batch(self):
        calls = []
        batcher = self.make(calls)
        try:
            request = ServeRequest(np.array([[0, 1]]), None, now=time.monotonic())
            with batcher.arrival():
                batcher.submit(request)
                waiter, outcome = wait_in_thread(request)
                time.sleep(0.2)
                assert not request.done
                begin = time.monotonic()
            # Leaving the block wakes the leader holding the batch.
            waiter.join(timeout=5.0)
            assert outcome == [True]
            assert time.monotonic() - begin < 1.0
            assert calls == [1]
            assert batcher.arriving == 0
        finally:
            assert batcher.close(timeout=5.0)

    def test_arrival_submits_once(self):
        batcher = MicroBatcher(identity_scorer)
        try:
            with batcher.arrival() as arrival:
                arrival.submit(ServeRequest(np.array([[0, 0]]), None, now=time.monotonic()))
                with pytest.raises(RuntimeError):
                    arrival.submit(
                        ServeRequest(np.array([[0, 0]]), None, now=time.monotonic())
                    )
            assert batcher.arriving == 0
        finally:
            assert batcher.close(timeout=5.0)

    def test_shed_on_submit_closes_the_arrival(self):
        batcher = MicroBatcher(identity_scorer)
        assert batcher.close(timeout=5.0)
        with batcher.arrival() as arrival:
            with pytest.raises(Shed):
                arrival.submit(ServeRequest(np.array([[0, 0]]), None, now=time.monotonic()))
        assert batcher.arriving == 0


class TestLeader:
    """The waiting callers run the scorer; no batcher thread exists."""

    def test_lone_caller_scores_on_its_own_thread(self):
        threads = []

        def scorer(rows):
            threads.append(threading.current_thread())
            return identity_scorer(rows)

        batcher = MicroBatcher(scorer, max_wait=5.0)
        try:
            request = ServeRequest(np.array([[1, 2]]), None, now=time.monotonic())
            with batcher.arrival() as arrival:
                arrival.submit(request)
            assert request.wait(timeout=5.0)
            assert threads == [threading.current_thread()]
            assert batcher._leader is None
        finally:
            assert batcher.close(timeout=5.0)

    def test_leader_timing_out_in_the_companion_hold_leaves_the_queue_served(self):
        threads = []

        def scorer(rows):
            threads.append((threading.current_thread(), len(rows)))
            return identity_scorer(rows)

        batcher = MicroBatcher(scorer, max_batch=8, max_wait=5.0)
        try:
            with batcher.arrival() as late:
                first = ServeRequest(np.array([[0, 1]]), None, now=time.monotonic())
                second = ServeRequest(np.array([[2, 3]]), None, now=time.monotonic())
                batcher.submit(first)
                batcher.submit(second)
                # The first waiter leads and holds for `late`, but its
                # own wait ends after 0.2 s, inside the 5 s hold.
                leader, led = wait_in_thread(first, timeout=0.2)
                wait_until(lambda: batcher._leader is leader)
                follower, followed = wait_in_thread(second)
                leader.join(timeout=5.0)
                assert led == [False]
                # The queue did not go leaderless: the second waiter
                # took over and holds for `late` in turn.
                wait_until(lambda: batcher._leader is follower)
                assert threads == []
                third = ServeRequest(np.array([[4, 5]]), None, now=time.monotonic())
                late.submit(third)
            follower.join(timeout=5.0)
            assert followed == [True]
            assert threads == [(follower, 3)]
            for request, rows in ((first, [[0, 1]]), (second, [[2, 3]]), (third, [[4, 5]])):
                np.testing.assert_array_equal(request.result, rows)
            assert batcher.depth == 0 and batcher._leader is None
        finally:
            assert batcher.close(timeout=5.0)

    def test_close_resolves_requests_nobody_waits_on(self):
        threads = []
        sheds = []

        def scorer(rows):
            threads.append(threading.current_thread())
            return identity_scorer(rows)

        batcher = MicroBatcher(
            scorer, max_batch=2, on_shed=lambda request, reason: sheds.append(reason)
        )
        live = [
            ServeRequest(np.array([[i, i]]), None, now=time.monotonic())
            for i in range(3)
        ]
        expired = ServeRequest(
            np.array([[9, 9]]), deadline=time.monotonic() - 0.01, now=time.monotonic()
        )
        for request in live + [expired]:
            batcher.submit(request)
        assert batcher.close(timeout=5.0)
        for i, request in enumerate(live):
            assert request.done
            np.testing.assert_array_equal(request.result, [[i, i]])
        assert expired.done and isinstance(expired.error, DeadlineExceeded)
        assert sheds == [SHED_DEADLINE]
        # Decoded on the closing thread, in max_batch-sized batches.
        assert threads == [threading.current_thread()] * 2
        assert batcher.depth == 0 and batcher._leader is None

    def test_stress_every_request_resolves_once_and_the_scorer_never_overlaps(self):
        threads, per_thread = 8, 40

        class CountedRequest(ServeRequest):
            __slots__ = ("outcomes",)

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.outcomes = 0

            def resolve(self, result):
                self.outcomes += 1
                super().resolve(result)

            def fail(self, error):
                self.outcomes += 1
                super().fail(error)

        inside = threading.Lock()
        overlaps = []

        def scorer(rows):
            if not inside.acquire(blocking=False):
                overlaps.append(len(rows))
                return identity_scorer(rows)
            try:
                time.sleep(0)
                return identity_scorer(rows)
            finally:
                inside.release()

        batcher = MicroBatcher(scorer, max_batch=4, max_queue=1024, max_wait=0.001)
        requests = []
        failures = []

        def client(c):
            try:
                for i in range(per_thread):
                    request = CountedRequest(
                        np.array([[c, i]]), None, now=time.monotonic()
                    )
                    requests.append(request)
                    with batcher.arrival() as arrival:
                        arrival.submit(request)
                    # Every 5th caller gives up at once and comes back, so
                    # leaders time out and hand the queue on.
                    if i % 5 == 0:
                        request.wait(timeout=1e-5)
                    if not request.wait(timeout=10.0):
                        failures.append(("unresolved", c, i))
                    elif not np.array_equal(request.result, [[c, i]]):
                        failures.append(("wrong rows", c, i))
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(repr(exc))

        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            pool = [threading.Thread(target=client, args=(c,)) for c in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        try:
            assert not any(thread.is_alive() for thread in pool)
            assert failures == [] and overlaps == []
            assert len(requests) == threads * per_thread
            assert all(request.outcomes == 1 for request in requests)
            assert batcher.depth == 0
            assert batcher._leader is None
            assert batcher.arriving == 0
            assert not any(
                t.name == "repro-serve-batcher" for t in threading.enumerate()
            )
        finally:
            assert batcher.close(timeout=5.0)

# ----------------------------------------------------------------------
# Snapshot store and decoder-only scoring
# ----------------------------------------------------------------------
class TestSnapshotStore:
    def test_unpublished_store_is_not_ready(self):
        store = SnapshotStore()
        assert not store.ready
        with pytest.raises(SnapshotUnavailable):
            store.current()
        assert store.describe() == {"published": False, "staleness": 0}

    def test_publish_resets_staleness(self, splits):
        train, valid, _ = splits
        model = revealed_model(train, valid)
        ts = int(valid.timestamps[-1]) + 1
        store = SnapshotStore()
        assert store.mark_stale() == 1
        assert store.mark_stale() == 2
        store.publish(capture(model, ts, version=1))
        assert store.staleness == 0
        snapshot, staleness = store.current()
        assert staleness == 0
        assert snapshot.ts == ts
        assert snapshot.version == 1
        description = store.describe()
        assert description["published"] and description["publishes"] == 1

    def test_captured_snapshot_is_decoupled_from_the_model(self, splits):
        train, valid, _ = splits
        model = revealed_model(train, valid)
        ts = int(valid.timestamps[-1]) + 1
        snapshot = capture(model, ts, version=1)
        queries = np.array([[0, 1], [3, 0]], dtype=np.int64)
        before = score_entities(model, snapshot, queries)
        # Mutating the live embeddings must not leak into the frozen stacks.
        model.entity_embedding.data += 123.0
        after = score_entities(model, snapshot, queries)
        model.entity_embedding.data -= 123.0
        np.testing.assert_array_equal(before, after)

    def test_score_entities_keeps_the_training_mode(self, splits, monkeypatch):
        train, valid, _ = splits
        model = revealed_model(train, valid)
        snapshot = capture(model, int(valid.timestamps[-1]) + 1, version=1)
        queries = np.array([[0, 1], [3, 0]], dtype=np.int64)
        walks = []
        module_eval = type(model).eval

        def counting_eval(self):
            walks.append(1)
            return module_eval(self)

        monkeypatch.setattr(type(model), "eval", counting_eval)
        served = score_entities(model, snapshot, queries)
        assert walks == []  # already in eval mode: no tree walk
        assert not any(m.training for m in model.modules())
        model.train()
        np.testing.assert_array_equal(score_entities(model, snapshot, queries), served)
        assert walks == [1]
        assert all(m.training for m in model.modules())
        # capture follows the same rule.
        recaptured = capture(model, snapshot.ts, version=2)
        assert walks == [1, 1]
        assert all(m.training for m in model.modules())
        for a, b in zip(recaptured.entity_list, snapshot.entity_list):
            np.testing.assert_array_equal(a.data, b.data)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_capture_keeps_the_model_dtype(self, splits, dtype):
        train, valid, _ = splits
        model = revealed_model(train, valid, dtype=dtype)
        snapshot = capture(model, int(valid.timestamps[-1]) + 1, version=1)
        stacks = snapshot.entity_list + snapshot.relation_list
        assert {t.data.dtype for t in stacks} == {np.dtype(dtype)}

    def test_topk_entities_orders_by_score(self):
        scores = np.array([0.1, 0.9, 0.5, 0.7])
        assert topk_entities(scores, 2) == [1, 3]

    def test_topk_selection_matches_full_sort(self):
        rng = np.random.default_rng(5)
        # Coarse integer scores force ties at the k-th value.
        for scores in (rng.normal(size=(8, 37)), rng.integers(0, 4, size=(8, 37)) * 1.0):
            for row in scores:
                for k in (1, 4, 36, 37):
                    reference = np.lexsort((np.arange(row.size), -row))[:k]
                    assert np.array_equal(select_topk(row, k), reference)


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


# ----------------------------------------------------------------------
# The server end to end
# ----------------------------------------------------------------------
class TestServeConfig:
    @pytest.mark.parametrize(
        "knobs",
        [
            dict(max_batch=0),
            dict(max_queue=0),
            dict(batch_wait_ms=-5.0),
            dict(batch_wait_ms=float("nan")),
            dict(batch_wait_ms=float("inf")),
            # A negative or NaN backoff would reach ``time.sleep`` on the
            # first failed refresh and kill the refresh worker.
            dict(refresh_backoff_ms=-5.0),
            dict(refresh_backoff_ms=float("nan")),
            dict(refresh_backoff_ms=float("inf")),
            # A NaN or infinite recovery time keeps the breaker open forever.
            dict(breaker_recovery_ms=float("nan")),
            dict(breaker_recovery_ms=float("inf")),
            dict(breaker_recovery_ms=-5.0),
            # A NaN or infinite default deadline never expires a request.
            dict(default_deadline_ms=float("nan")),
            dict(default_deadline_ms=float("inf")),
            dict(default_deadline_ms=0.0),
        ],
    )
    def test_invalid_batching_knobs_are_refused(self, knobs):
        with pytest.raises(ValueError):
            ServeConfig(**knobs)

    def test_zero_batch_wait_is_allowed(self):
        assert ServeConfig(batch_wait_ms=0.0, max_batch=1, max_queue=1).max_batch == 1


class TestModelServer:
    def test_score_matches_direct_predict(self, splits):
        train, valid, test = splits
        server = make_server(splits)
        try:
            ts = int(test.timestamps[0])
            server.start(ts=ts)
            queries = np.array([[0, 1], [5, 2], [3, 0]], dtype=np.int64)
            response = server.score(queries)
            assert response.ok and response.staleness == 0
            assert response.snapshot_ts == ts
            expected = server.model.predict_entities(queries, ts)
            np.testing.assert_allclose(response.scores, expected)
            top = server.topk(0, 1, k=5)
            assert top.ok
            np.testing.assert_array_equal(
                top.topk_entities, np.argsort(-expected[0])[:5]
            )
        finally:
            assert server.drain()

    def test_ingest_marks_stale_then_refresh_publishes(self, splits):
        train, valid, test = splits
        server = make_server(splits)
        try:
            ts = int(test.timestamps[0])
            server.start(ts=ts)
            response = server.ingest(test.snapshot(ts))
            assert response.ok
            assert response.staleness >= 1
            assert response.steps == 1 and response.skips == 0
            deadline = time.monotonic() + 10.0
            while server.store.staleness > 0 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert server.store.staleness == 0
            assert server.store.describe()["ts"] == ts + 1
        finally:
            assert server.drain()

    def test_ingest_reports_every_step_the_adapter_took(self, splits):
        _, _, test = splits
        server = make_server(splits, online_steps=2)
        try:
            ts = int(test.timestamps[0])
            server.start(ts=ts)
            response = server.ingest(test.snapshot(ts))
            assert response.ok and response.skips == 0
            assert response.steps == 2
        finally:
            assert server.drain()

    def test_empty_snapshot_ingest_reports_no_step(self, splits):
        _, _, test = splits
        server = make_server(splits)
        try:
            ts = int(test.timestamps[0])
            server.start(ts=ts)
            empty = Snapshot(
                np.zeros((0, 3), dtype=np.int64), num_entities=16, num_relations=3, ts=ts
            )
            response = server.ingest(empty)
            assert response.ok
            assert response.steps == 0 and response.skips == 0
        finally:
            assert server.drain()

    def test_out_of_vocab_ingest_is_invalid_and_counts_as_breaker_failure(
        self, splits
    ):
        server = make_server(splits)
        try:
            _, _, test = splits
            server.start(ts=int(test.timestamps[0]))
            bad = Snapshot(
                np.array([[50, 0, 3]]), num_entities=100, num_relations=3,
                ts=int(test.timestamps[0]),
            )
            response = server.ingest(bad)
            assert response.status == STATUS_INVALID
            assert "out-of-vocabulary" in response.error
            assert server.breaker.snapshot()["total_failures"] == 1
        finally:
            assert server.drain()

    def test_non_finite_request_deadline_is_invalid(self, splits):
        _, _, test = splits
        server = make_server(splits)
        try:
            server.start(ts=int(test.timestamps[0]))
            for budget in (float("nan"), float("inf"), -float("inf")):
                response = server.score(np.array([[0, 1]]), deadline_ms=budget)
                assert response.status == STATUS_INVALID
                assert "deadline_ms must be finite" in response.error
                top = server.topk(0, 1, k=3, deadline_ms=budget)
                assert top.status == STATUS_INVALID
            assert server.batcher.arriving == 0
            # Spent budgets are still deadline misses, not invalid.
            for budget in (0.0, -5.0):
                response = server.score(np.array([[0, 1]]), deadline_ms=budget)
                assert response.status == STATUS_DEADLINE
            assert server.score(np.array([[0, 1]]), deadline_ms=500.0).ok
        finally:
            assert server.drain()

    def test_drain_is_idempotent_and_refuses_work(self, splits):
        _, _, test = splits
        server = make_server(splits)
        server.start(ts=int(test.timestamps[0]))
        assert server.ready()
        assert server.drain()
        assert server.drain()  # idempotent
        assert not server.ready()
        refused = server.score(np.array([[0, 0]]))
        assert refused.status == STATUS_UNAVAILABLE
        assert server.health()["drained"]

    def test_lone_request_does_not_wait_out_the_batch_window(self, splits):
        _, _, test = splits
        server = make_server(splits, batch_wait_ms=5000.0)
        try:
            server.start(ts=int(test.timestamps[0]))
            for _ in range(3):
                response = server.score(np.array([[0, 1]]))
                assert response.ok and response.latency_ms < 1000.0
        finally:
            assert server.drain()

    def test_arrival_count_returns_to_zero_on_every_path(self, splits):
        _, _, test = splits
        server = make_server(splits, batch_wait_ms=5000.0)
        batcher = None

        def quick_ok():
            response = server.score(np.array([[0, 1]]))
            assert response.ok and response.latency_ms < 1000.0

        try:
            server.start(ts=int(test.timestamps[0]))
            batcher = server.batcher
            # Malformed queries leave before submit.
            assert server.score(np.array([1, 2, 3])).status == STATUS_INVALID
            assert batcher.arriving == 0
            quick_ok()
            # An exception before submit.
            server.fault_injector = types.SimpleNamespace(
                deadline_skew=lambda index: 1 / 0
            )
            with pytest.raises(ZeroDivisionError):
                server.score(np.array([[0, 1]]))
            server.fault_injector = None
            assert batcher.arriving == 0
            quick_ok()
            # A scorer exception fails the request after submit.
            scorer = batcher.scorer
            batcher.scorer = lambda rows: 1 / 0
            assert server.score(np.array([[0, 1]])).status == 500
            batcher.scorer = scorer
            assert batcher.arriving == 0
            quick_ok()
            # Shed on submit: the batcher refuses while the server is up.
            assert batcher.close(timeout=5.0)
            shed = server.score(np.array([[0, 1]]))
            assert shed.status == STATUS_UNAVAILABLE and "draining" in shed.error
            assert batcher.arriving == 0
        finally:
            assert server.drain()
        # Draining: refused inside the arrival block.
        assert server.score(np.array([[0, 1]])).status == STATUS_UNAVAILABLE
        assert batcher.arriving == 0

    def test_concurrent_requests_get_unique_indices(self, splits):
        _, _, test = splits
        threads, per_thread = 8, 40
        server = make_server(
            splits, exemplar_every=1, exemplar_capacity=threads * per_thread
        )
        interval = sys.getswitchinterval()
        try:
            server.start(ts=int(test.timestamps[0]))
            sys.setswitchinterval(1e-6)

            def client():
                for _ in range(per_thread):
                    server.score(np.array([[0, 1]]))

            pool = [threading.Thread(target=client) for _ in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in pool)
            # Every caller closed its arrival: no lost update on the count.
            assert server.batcher.arriving == 0
        finally:
            sys.setswitchinterval(interval)
            assert server.drain()
        indices = sorted(e["request_index"] for e in server.exemplars())
        assert indices == list(range(threads * per_thread))

    def test_event_stream_passes_health_check(self, splits, tmp_path):
        _, _, test = splits
        report = tmp_path / "serve.jsonl"
        reporter = RunReporter(str(report))
        server = make_server(splits, reporter=reporter)
        try:
            ts = int(test.timestamps[0])
            server.start(ts=ts)
            server.score(np.array([[0, 0], [1, 1]]))
            server.topk(2, 1)
            server.ingest(test.snapshot(ts))
            server.score(np.array([[4, 2]]))
        finally:
            assert server.drain()
            reporter.close()
        events = read_events(str(report))
        assert events[0]["event"] == "run_start"
        assert [e["event"] for e in events[-2:]] == ["drain", "run_end"]
        assert check_events(events) == []


# ----------------------------------------------------------------------
# Deterministic chaos: the whole ladder in one drill
# ----------------------------------------------------------------------
class TestChaosLadder:
    def test_refresh_failure_degrades_to_stale_marked_serving(
        self, splits, tmp_path
    ):
        _, _, test = splits
        report = tmp_path / "chaos.jsonl"
        reporter = RunReporter(str(report))
        # Refresh always fails: the server must keep serving the stale
        # snapshot and say so on every response.
        injector = ServeFaultInjector(refresh_fail_at=tuple(range(64)))
        server = make_server(splits, reporter=reporter, fault_injector=injector)
        try:
            times = [int(t) for t in test.timestamps]
            server.start(ts=times[0])
            for ts in times[:2]:
                assert server.ingest(test.snapshot(ts)).ok
            deadline = time.monotonic() + 10.0
            while injector.refresh_failures_injected < 3 and (
                time.monotonic() < deadline
            ):
                time.sleep(0.005)
            response = server.score(np.array([[0, 1]]))
            assert response.ok
            assert response.staleness == 2  # stale-marked, not down
            assert response.snapshot_ts == times[0]  # still the old snapshot
        finally:
            assert server.drain()
            reporter.close()
        events = read_events(str(report))
        outcomes = [
            (e["attempt"], e["outcome"])
            for e in events
            if e["event"] == "refresh_retry"
        ]
        assert ("1", "failed") not in outcomes  # attempts are ints
        assert all(o in ("failed", "gave_up") for _, o in outcomes)
        assert any(o == "gave_up" for _, o in outcomes)
        assert any(e["event"] == "degraded" for e in events)
        assert check_events(events) == []

    def test_poisoned_ingest_trips_breaker_then_half_open_recovers(
        self, splits, tmp_path
    ):
        _, _, test = splits
        report = tmp_path / "breaker.jsonl"
        reporter = RunReporter(str(report))
        injector = ServeFaultInjector(poison_ingest_at=(0, 1, 2))
        server = make_server(
            splits,
            reporter=reporter,
            fault_injector=injector,
            breaker_recovery_ms=30.0,
        )
        try:
            times = [int(t) for t in test.timestamps]
            server.start(ts=times[0])
            snapshot = test.snapshot(times[0])
            for _ in range(3):
                poisoned = server.ingest(snapshot)
                assert poisoned.ok and poisoned.skips >= 1
            assert injector.injected_nans == 3
            assert server.breaker.state == STATE_OPEN
            refused = server.ingest(snapshot)
            assert refused.status == STATUS_UNAVAILABLE
            assert "breaker" in refused.error
            # Queries keep flowing while ingest is broken.
            assert server.score(np.array([[0, 0]])).ok
            time.sleep(0.05)  # recovery window elapses
            probe = server.ingest(snapshot)
            assert probe.ok and probe.skips == 0
            assert server.breaker.state == STATE_CLOSED
        finally:
            assert server.drain()
            reporter.close()
        events = read_events(str(report))
        edges = [
            (e["from_state"], e["to_state"])
            for e in events
            if e["event"] == "breaker_transition"
        ]
        assert edges == [
            (STATE_CLOSED, STATE_OPEN),
            (STATE_OPEN, STATE_HALF_OPEN),
            (STATE_HALF_OPEN, STATE_CLOSED),
        ]
        assert any(
            e["event"] == "shed" and e["reason"] == "breaker_open" for e in events
        )
        assert check_events(events) == []

    def test_slow_batches_stall_every_query_they_serve(self, splits):
        _, _, test = splits
        # One stall per decoder micro-batch: each sequential query waits
        # out its own batch's stall, and nothing else is injected.
        injector = ServeFaultInjector(slow_batch_every=1, slow_batch_seconds=0.05)
        server = make_server(splits, fault_injector=injector)
        try:
            server.start(ts=int(test.timestamps[0]))
            responses = [server.score(np.array([[0, 1]])) for _ in range(3)]
        finally:
            assert server.drain()
        assert all(r.ok and r.latency_ms >= 50.0 for r in responses)
        assert injector.summary() == {
            "refresh_failures_injected": 0,
            "injected_nans": 0,
            "stalls_injected": 3,
            "skews_injected": 0,
        }

    def test_skewed_deadline_is_rejected_not_served(self, splits):
        _, _, test = splits
        # Skew larger than the whole budget: the request cannot make its
        # (already-passed) deadline and must be rejected, not scored.
        injector = ServeFaultInjector(skew_every=1, skew_seconds=10.0)
        server = make_server(
            splits, fault_injector=injector, default_deadline_ms=50.0
        )
        try:
            server.start(ts=int(test.timestamps[0]))
            response = server.score(np.array([[0, 0]]))
            assert response.status == 408
        finally:
            assert server.drain()


# ----------------------------------------------------------------------
# The one serve drill (repro.serve.run_drill, behind repro.cli serve)
# ----------------------------------------------------------------------
class TestRunDrill:
    def test_failed_loadgen_still_drains_the_server(self, splits, monkeypatch):
        train, valid, test = splits
        dataset = types.SimpleNamespace(test=test, num_entities=16, num_relations=3)
        workers = ("repro-serve-refresh",)  # queries decode on the callers
        before = set(threading.enumerate())
        # A plan naming a snapshot that does not exist fails inside the loadgen.
        broken = (np.zeros(1), [("ingest", 99)])
        monkeypatch.setattr(loadgen, "build_plans", lambda *args: broken)
        with pytest.raises(IndexError):
            run_drill(revealed_model(train, valid), dataset, LoadgenConfig(requests=1))
        leaked = [
            t.name
            for t in threading.enumerate()
            if t not in before and t.name in workers and t.is_alive()
        ]
        assert leaked == []

    def test_trace_out_nests_one_process_under_the_serve_root(self, tmp_path, capsys):
        path = tmp_path / "serve_trace.json"
        argv = ["serve", "--dataset", "ICEWS14", "--requests", "24", "--qps", "300"]
        assert main(argv + ["--trace-out", str(path)]) == 0
        assert "dropped: 0" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        assert doc["metadata"]["spans_dropped"] == 0
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len({e["pid"] for e in spans}) == 1
        by_id = {e["args"]["id"]: e for e in spans}
        (root,) = [e for e in spans if "parent" not in e["args"]]
        assert root["name"] == "serve"

        def parent(e):
            return by_id[e["args"]["parent"]]

        (draw,) = [e for e in spans if e["name"] == "draw_plans"]
        assert parent(draw)["name"] == "plan_load"
        assert parent(parent(draw)) is root
        chains = [
            [e["name"] for e in spans if e["args"].get("parent") == req["args"]["id"]]
            for req in spans
            if req["name"] == "request" and parent(req) is root
        ]
        assert ["admit", "queue_wait", "decode", "respond"] in chains

    def test_chaos_drill_exits_0_and_drains_a_healthy_report(self, tmp_path, capsys):
        report = tmp_path / "serve_chaos.jsonl"
        argv = ["serve", "--dataset", "ICEWS14", "--requests", "160", "--qps", "300"]
        assert main(argv + ["--chaos", "--run-report", str(report)]) == 0
        assert "clean drain: True" in capsys.readouterr().out
        events = read_events(str(report))
        assert [e["event"] for e in events[-2:]] == ["drain", "run_end"]
        assert check_events(events) == []


# ----------------------------------------------------------------------
# Fact validation against the model vocabulary (loud, not IndexError)
# ----------------------------------------------------------------------
class TestVocabValidation:
    def test_entity_and_relation_ids_reported_with_bounds(self):
        snapshot = Snapshot(
            np.array([[50, 7, 3], [51, 0, 2]]),
            num_entities=100, num_relations=9, ts=4,
        )
        with pytest.raises(ValueError) as excinfo:
            validate_snapshot_ids(snapshot, num_entities=16, num_relations=3)
        message = str(excinfo.value)
        assert "t=4" in message
        assert "50" in message and "51" in message and "7" in message
        assert "[0, 16)" in message and "[0, 3)" in message

    def test_model_observe_validates(self, splits):
        train, valid, _ = splits
        model = revealed_model(train, valid)
        bad = Snapshot(np.array([[40, 0, 1]]), 64, 3, ts=99)
        with pytest.raises(ValueError, match="out-of-vocabulary"):
            model.observe(bad)

    def test_adapter_observe_validates_before_training(self, splits):
        train, valid, _ = splits
        model = revealed_model(train, valid)
        adapter = OnlineAdapter(model, TrainerConfig(online_steps=1, seed=0))
        bad = Snapshot(np.array([[0, 8, 1]]), 16, 9, ts=99)
        with pytest.raises(ValueError, match="out-of-vocabulary"):
            adapter.observe(bad)

    def test_valid_snapshot_passes(self, splits):
        snapshot = Snapshot(np.array([[0, 1, 2]]), 16, 3, ts=1)
        validate_snapshot_ids(snapshot, num_entities=16, num_relations=3)


# ----------------------------------------------------------------------
# Loadgen summary arithmetic
# ----------------------------------------------------------------------
def _response(status, kind="score", latency_ms=10.0, staleness=0):
    return ServeResponse(
        status=status, kind=kind, staleness=staleness, latency_ms=latency_ms
    )


class TestLoadgenSummary:
    def test_availability_excludes_sheds(self):
        responses = (
            [_response(STATUS_OK) for _ in range(8)]
            + [_response(STATUS_UNAVAILABLE)] * 2
        )
        summary = summarize_responses(responses, wall_seconds=1.0)
        assert summary["availability"] == 1.0  # 8 OK / 8 non-shed
        assert summary["shed_rate"] == 0.2
        assert summary["qps"] == 10.0

    def test_deadline_rejections_hurt_availability(self):
        responses = [_response(STATUS_OK) for _ in range(9)] + [_response(408)]
        summary = summarize_responses(responses, wall_seconds=1.0)
        assert summary["availability"] == 0.9
        assert summary["deadline_exceeded"] == 1

    def test_max_staleness_reported(self):
        responses = [_response(STATUS_OK, staleness=3), _response(STATUS_OK)]
        assert summarize_responses(responses, 1.0)["max_staleness"] == 3


# ----------------------------------------------------------------------
# Health-check serve invariants on hand-built streams
# ----------------------------------------------------------------------
def _stream(*events):
    out = []
    for seq, (kind, fields) in enumerate(events):
        record = {"event": kind, "seq": seq}
        record.update(fields)
        out.append(record)
    return out


def _drain(requests=0, shed=0, deadline_exceeded=0, clean=True):
    return (
        "drain",
        {
            "requests": requests,
            "shed": shed,
            "errors": 0,
            "deadline_exceeded": deadline_exceeded,
            "clean": clean,
        },
    )


def _request(status=200, staleness=0):
    return ("request", {"status": status, "staleness": staleness})


class TestServeHealthInvariants:
    def test_clean_stream_passes(self):
        events = _stream(
            _request(),
            ("refresh_retry", {"attempt": 1, "outcome": "ok"}),
            _request(staleness=0),
            _drain(requests=2),
            ("run_end", {}),
        )
        assert check_run_health.check_serve(events) == []

    def test_illegal_breaker_edge_flagged(self):
        events = _stream(
            ("breaker_transition", {"from_state": "closed", "to_state": "half_open"}),
            _drain(),
        )
        problems = check_run_health.check_serve(events)
        assert any("illegal edge" in p for p in problems)

    def test_inconsistent_replayed_state_flagged(self):
        events = _stream(
            ("breaker_transition", {"from_state": "open", "to_state": "half_open"}),
            _drain(),
        )
        problems = check_run_health.check_serve(events)
        assert any("replayed state" in p for p in problems)

    def test_unexplained_shed_reason_flagged(self):
        events = _stream(("shed", {"reason": "cosmic_rays"}), _drain(shed=1))
        problems = check_run_health.check_serve(events)
        assert any("unexplained reason" in p for p in problems)

    def test_staleness_drop_without_refresh_flagged(self):
        events = _stream(
            _request(staleness=2), _request(staleness=0), _drain(requests=2)
        )
        problems = check_run_health.check_serve(events)
        assert any("staleness dropped" in p for p in problems)

    def test_staleness_reset_after_successful_refresh_allowed(self):
        events = _stream(
            _request(staleness=2),
            ("refresh_retry", {"attempt": 1, "outcome": "ok"}),
            _request(staleness=0),
            _drain(requests=2),
        )
        assert check_run_health.check_serve(events) == []

    def test_internal_error_always_flagged(self):
        events = _stream(_request(status=500), _drain(requests=1))
        problems = check_run_health.check_serve(events)
        assert any("status 500" in p for p in problems)

    def test_missing_drain_flagged(self):
        problems = check_run_health.check_serve(_stream(_request()))
        assert any("no drain event" in p for p in problems)

    def test_events_after_drain_flagged(self):
        events = _stream(_request(), _drain(requests=2), _request())
        problems = check_run_health.check_serve(events)
        assert any("only run_end may follow" in p for p in problems)

    def test_drain_totals_must_reconcile(self):
        events = _stream(_request(), _drain(requests=5))
        problems = check_run_health.check_serve(events)
        assert any("drain claims 5" in p for p in problems)

    def test_availability_gate(self):
        events = _stream(
            _request(), _request(status=408), _drain(requests=2, deadline_exceeded=1)
        )
        assert check_run_health.check_serve(events) == []
        problems = check_run_health.check_serve(events, min_availability=0.99)
        assert any("below the" in p for p in problems)


class TestServeFaultInjector:
    def test_refresh_faults_fire_only_at_marked_attempts(self):
        injector = ServeFaultInjector(refresh_fail_at=(1,))
        injector.on_refresh_attempt(0)
        with pytest.raises(RefreshFault):
            injector.on_refresh_attempt(1)
        injector.on_refresh_attempt(2)
        assert injector.refresh_failures_injected == 1

    def test_deadline_skew_is_periodic(self):
        injector = ServeFaultInjector(skew_every=3, skew_seconds=0.5)
        skews = [injector.deadline_skew(i) for i in range(6)]
        assert skews == [0.0, 0.0, 0.5, 0.0, 0.0, 0.5]
        assert injector.skews_injected == 2

    def test_summary_counts(self):
        injector = ServeFaultInjector()
        assert injector.summary() == {
            "refresh_failures_injected": 0,
            "injected_nans": 0,
            "stalls_injected": 0,
            "skews_injected": 0,
        }
