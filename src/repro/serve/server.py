"""The resilient decoder-only model server.

:class:`ModelServer` keeps answering ``(s, r, ?)`` queries while the
world around it misbehaves.  The query path is decoder-only against a
:class:`~repro.serve.snapshots.SnapshotStore` of precomputed evolved
embeddings; concurrent requests micro-batch through the model's batched
Conv-TransE decode.  The explicit degradation ladder (DESIGN.md §8):

1. **Deadlines** — every request carries one; it propagates into the
   micro-batcher, which rejects expired work *before* compute
   (``408``-style responses, no wasted decoder time); a caller's budget
   that is not finite is refused up front (``400``).
2. **Bounded admission** — the batcher queue is bounded; overload sheds
   the oldest queued request (``503``-style, counted and explained in
   telemetry) instead of letting latency collapse.
3. **Stale-snapshot serving** — snapshot refresh runs in a supervised
   background worker with retry + exponential backoff + jitter.  When
   refresh keeps failing the server *degrades*: it serves the last
   published snapshot with an explicit ``staleness`` count on every
   response, rather than going down.
4. **Ingest circuit breaker** — the ingestion endpoint wraps
   ``OnlineAdapter.observe``; NaN-sentinel skips, out-of-vocab facts
   and exceptions count as failures, tripping a closed→open→half-open
   breaker so a poisoned stream cannot take out the query path.
5. **Probes and drain** — ``health()``/``ready()`` report liveness and
   readiness; :meth:`drain` (wired to SIGTERM through
   :class:`~repro.resilience.GracefulInterrupt` in the CLI) stops
   admissions, flushes the queue, stops workers and closes the run
   report with a final ``drain`` event.

Every serve event (``request``, ``shed``, ``refresh_retry``,
``breaker_transition``, ``degraded``, ``drain``) streams through the
schema-validated :class:`~repro.obs.RunReporter`;
``scripts/check_run_health.py`` replays their invariants (legal breaker
transitions, every shed explained, staleness monotone between
refreshes, drain totals that match the stream).  With a trace collector
installed, every query also records its span chain (DESIGN.md §10).
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import List, Optional

import numpy as np

from repro.graph import Snapshot
from repro.obs import SCHEMA_VERSION, RunReporter
from repro.obs.tracing import Span, SpanCollector
from repro.serve.batcher import (
    DeadlineExceeded,
    MicroBatcher,
    ServeRequest,
    Shed,
)
from repro.serve.breaker import CircuitBreaker
from repro.serve.snapshots import (
    SnapshotStore,
    SnapshotUnavailable,
    capture,
    score_entities,
)

#: HTTP-flavoured response statuses surfaced on :class:`ServeResponse`.
STATUS_OK = 200
STATUS_INVALID = 400
STATUS_DEADLINE = 408
STATUS_ERROR = 500
STATUS_UNAVAILABLE = 503

#: Refresh retry backoff: each further attempt multiplies the wait by
#: the factor, up to the cap, then stretches it by up to the jitter share.
REFRESH_BACKOFF_FACTOR = 2.0
REFRESH_BACKOFF_MAX_MS = 2000.0
REFRESH_JITTER = 0.1
#: Trial ingests the breaker admits while half-open.
BREAKER_HALF_OPEN_PROBES = 1


@dataclass(frozen=True)
class ServeConfig:
    """Knobs for :class:`ModelServer` (all times in milliseconds).

    ``batch_wait_ms`` is the longest a micro-batch waits for a caller
    already in the query path; with none on its way the batch is
    decoded at once (:class:`~repro.serve.batcher.MicroBatcher`).
    """

    max_batch: int = 64
    max_queue: int = 256
    batch_wait_ms: float = 2.0
    default_deadline_ms: float = 1000.0
    #: refresh supervision: attempts per cycle, then degrade-to-stale;
    #: the first retry waits ``refresh_backoff_ms`` (see
    #: ``REFRESH_BACKOFF_FACTOR``).
    refresh_attempts: int = 3
    refresh_backoff_ms: float = 50.0
    #: ingest circuit breaker.
    breaker_failure_threshold: int = 3
    breaker_recovery_ms: float = 500.0
    seed: int = 0

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if not (math.isfinite(self.batch_wait_ms) and self.batch_wait_ms >= 0):
            raise ValueError("batch_wait_ms must be finite and >= 0")
        if self.refresh_attempts < 1:
            raise ValueError("refresh_attempts must be >= 1")
        if not (math.isfinite(self.refresh_backoff_ms) and self.refresh_backoff_ms >= 0):
            raise ValueError("refresh_backoff_ms must be finite and >= 0")
        if not (math.isfinite(self.default_deadline_ms) and self.default_deadline_ms > 0):
            raise ValueError("default_deadline_ms must be finite and > 0")
        if not (math.isfinite(self.breaker_recovery_ms) and self.breaker_recovery_ms >= 0):
            raise ValueError("breaker_recovery_ms must be finite and >= 0")


@dataclass
class ServeResponse:
    """Outcome of one ``score``/``topk``/``ingest`` call.

    ``staleness`` is the number of ingested timestamps the served
    snapshot does not yet reflect (0 = fresh); it is present on every
    response, including refusals, so clients can always tell how
    degraded the answer is.
    """

    status: int
    kind: str
    staleness: int
    snapshot_ts: Optional[int] = None
    snapshot_version: Optional[int] = None
    scores: Optional[np.ndarray] = None
    topk_entities: Optional[np.ndarray] = None
    topk_scores: Optional[np.ndarray] = None
    latency_ms: float = 0.0
    queued_ms: float = 0.0
    batch: int = 0
    error: Optional[str] = None
    #: ingest-only bookkeeping.
    steps: int = 0
    skips: int = 0
    breaker_state: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


@dataclass
class _Counters:
    """The totals ``drain`` and :meth:`ModelServer.health` report."""

    requests: int = 0
    shed: int = 0
    deadline_exceeded: int = 0
    errors: int = 0
    ingests: int = 0
    by_status: dict = field(default_factory=dict)


class ModelServer:
    """Decoder-only serving with an explicit degradation ladder."""

    def __init__(
        self,
        model,
        adapter=None,
        config: ServeConfig = ServeConfig(),
        reporter: Optional[RunReporter] = None,
        clock=time.monotonic,
        fault_injector=None,
    ):
        self.model = model
        self.adapter = adapter
        self.config = config
        self.reporter = reporter
        self.clock = clock
        self.fault_injector = fault_injector
        self.store = SnapshotStore()
        self.counters = _Counters()
        self._model_lock = threading.RLock()
        #: serialises reporter emissions AND the staleness reads that ride
        #: in them — the health check's monotone-staleness invariant needs
        #: publish/emit ordering to be strict, not racy.
        self._report_lock = threading.Lock()
        self._report_closed = False
        self._rng = np.random.default_rng(config.seed)
        self._version = 0
        self._batch_index = 0
        #: request indices (chaos deadline skews, request span metadata);
        #: ``next`` on a count is atomic, so concurrent callers never share one.
        self._request_counter = itertools.count()
        self._ingest_index = 0
        self._refresh_attempt_index = 0
        self._draining = False
        self._drained = False
        self.breaker = CircuitBreaker(
            failure_threshold=config.breaker_failure_threshold,
            recovery_seconds=config.breaker_recovery_ms / 1000.0,
            half_open_probes=BREAKER_HALF_OPEN_PROBES,
            clock=clock,
            on_transition=self._on_breaker_transition,
        )
        self.batcher: Optional[MicroBatcher] = None
        self._refresh_cond = threading.Condition()
        self._refresh_target: Optional[int] = None
        self._refresh_stop = False
        self._refresh_thread: Optional[threading.Thread] = None
        #: Optional trace sink (``repro.cli serve --trace-out``): the
        #: loadgen's plan and every query's span chain are recorded
        #: out-of-band into this collector under ``trace_root`` via the
        #: thread-safe ``record``.
        self.trace_collector: Optional[SpanCollector] = None
        self.trace_root: Optional[Span] = None

    # ------------------------------------------------------------------
    # Telemetry plumbing
    # ------------------------------------------------------------------
    def _emit(self, event: str, **fields) -> None:
        if self.reporter is None:
            return
        with self._report_lock:
            if self._report_closed:
                return
            self.reporter.emit(event, **fields)

    def _emit_request(self, kind: str, status: int, response: ServeResponse) -> None:
        """One ``request`` event; staleness is read under the report lock
        so its value is ordered consistently against publishes.

        Counters are bumped under the same lock so the totals the
        ``drain`` event reports reconcile exactly with the ``request``
        events in the stream: once drain closes the report, late
        responses (requests resolved while the server was draining)
        still return to their callers but are neither counted nor
        emitted.
        """
        with self._report_lock:
            if self._report_closed:
                return
            counters = self.counters
            counters.requests += 1
            counters.by_status[status] = counters.by_status.get(status, 0) + 1
            if kind == "ingest":
                counters.ingests += 1
            if status == STATUS_DEADLINE:
                counters.deadline_exceeded += 1
            elif status == STATUS_ERROR:
                counters.errors += 1
            if self.reporter is not None:
                response.staleness = self.store.staleness
                self.reporter.emit(
                    "request",
                    kind=kind,
                    status=status,
                    staleness=response.staleness,
                    latency_ms=round(response.latency_ms, 3),
                    queued_ms=round(response.queued_ms, 3),
                    batch=response.batch,
                    snapshot_ts=response.snapshot_ts,
                )

    def _emit_shed(self, kind: str, reason: str) -> None:
        with self._report_lock:
            if self._report_closed:
                return
            self.counters.shed += 1
            if self.reporter is not None:
                self.reporter.emit("shed", kind=kind, reason=reason)

    def _on_breaker_transition(self, old: str, new: str, reason: str) -> None:
        self._emit("breaker_transition", from_state=old, to_state=new, reason=reason)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, ts: int) -> None:
        """Publish the initial snapshot for ``ts`` and start the workers.

        The first capture is synchronous — a server that cannot produce
        one snapshot has nothing to serve and should fail loudly here.
        """
        if self.batcher is not None:
            raise RuntimeError("server already started")
        self._emit(
            "run_start",
            schema_version=SCHEMA_VERSION,
            command="ModelServer",
            config=asdict(self.config),
            ts=int(ts),
        )
        self._warm_snapshot_cache(ts)
        with self._model_lock:
            snapshot = capture(self.model, ts, self._next_version(), clock=self.clock)
        with self._report_lock:
            self.store.publish(snapshot)
        self._latest_ts = int(ts)
        self.batcher = MicroBatcher(
            scorer=self._score_batch,
            max_batch=self.config.max_batch,
            max_queue=self.config.max_queue,
            max_wait=self.config.batch_wait_ms / 1000.0,
            clock=self.clock,
            on_shed=self._on_batcher_shed,
        )
        self._refresh_thread = threading.Thread(
            target=self._refresh_loop, name="repro-serve-refresh", daemon=True
        )
        self._refresh_thread.start()

    def _next_version(self) -> int:
        self._version += 1
        return self._version

    def _on_batcher_shed(self, request: ServeRequest, reason: str) -> None:
        self._emit_shed("score", reason)

    # ------------------------------------------------------------------
    # Query path (decoder-only)
    # ------------------------------------------------------------------
    def _score_batch(self, rows: np.ndarray) -> np.ndarray:
        """One micro-batched decode against the published snapshot.

        Runs on the batcher's leading caller, one batch at a time, so
        ``_batch_index`` and the fault injector's batch plan are sequential.
        """
        index = self._batch_index
        self._batch_index += 1
        if self.fault_injector is not None:
            self.fault_injector.on_score_batch(index)
        snapshot, _ = self.store.current()
        with self._model_lock:
            return score_entities(self.model, snapshot, rows)

    def _deadline_for(self, deadline_ms: Optional[float], request_index: int) -> float:
        budget_ms = (
            self.config.default_deadline_ms if deadline_ms is None else deadline_ms
        )
        if self.fault_injector is not None:
            budget_ms -= 1000.0 * self.fault_injector.deadline_skew(request_index)
        return self.clock() + budget_ms / 1000.0

    def _refuse_draining(self, kind: str) -> ServeResponse:
        self._emit_shed(kind, "draining")
        return self._refusal(kind, STATUS_UNAVAILABLE, "server is draining")

    def _refusal(self, kind: str, status: int, error: str, **extra) -> ServeResponse:
        response = ServeResponse(
            status=status, kind=kind, staleness=self.store.staleness,
            error=error, **extra,
        )
        self._emit_request(kind, status, response)
        return response

    def score(
        self, queries: np.ndarray, deadline_ms: Optional[float] = None
    ) -> ServeResponse:
        """Full candidate scores for ``(s, r)`` query rows."""
        return self._query("score", queries, deadline_ms)

    def topk(
        self,
        subject: int,
        relation: int,
        k: int = 10,
        deadline_ms: Optional[float] = None,
    ) -> ServeResponse:
        """Top-``k`` candidate objects for one ``(s, r, ?)`` query."""
        response = self._query(
            "topk", np.array([[subject, relation]], dtype=np.int64), deadline_ms
        )
        if response.ok:
            scores = response.scores[0]
            # Deterministic selection: descending score, ties broken
            # by ascending entity id.
            order = select_topk(scores, k)
            response.topk_entities = order
            response.topk_scores = scores[order]
            response.scores = None
        return response

    def _query(
        self, kind: str, queries: np.ndarray, deadline_ms: Optional[float]
    ) -> ServeResponse:
        started = self.clock()
        request_index = next(self._request_counter)
        batcher = self.batcher
        if batcher is None:
            return self._refuse_draining(kind)
        # Counted as arriving until submitted: a batch already queued
        # waits for this caller, and for no one once every path out of
        # this block has closed the count.
        with batcher.arrival() as arrival:
            if self._draining:
                return self._refuse_draining(kind)
            try:
                queries = np.asarray(queries, dtype=np.int64).reshape(-1, 2)
            except (TypeError, ValueError) as exc:
                return self._refusal(kind, STATUS_INVALID, f"malformed queries: {exc}")
            if deadline_ms is not None and not math.isfinite(deadline_ms):
                return self._refusal(
                    kind, STATUS_INVALID, f"deadline_ms must be finite, got {deadline_ms}"
                )
            deadline = self._deadline_for(deadline_ms, request_index)
            request = ServeRequest(queries, deadline, now=started)
            try:
                arrival.submit(request)
            except Shed as exc:
                self._emit_shed(kind, exc.reason)
                return self._refusal(kind, STATUS_UNAVAILABLE, str(exc))
        submitted = self.clock()

        # Deadline propagation to the waiter too: never block past it.
        request.wait(timeout=max(0.0, deadline - self.clock()) + 0.25)
        now = self.clock()
        latency_ms = 1000.0 * (now - started)
        queued_ms = 1000.0 * ((request.started_at or now) - request.enqueued_at)
        base = dict(
            kind=kind,
            staleness=0,
            latency_ms=latency_ms,
            queued_ms=queued_ms,
            batch=request.batch_size or 0,
        )
        if request.error is not None:
            error = request.error
            if isinstance(error, DeadlineExceeded):
                response = ServeResponse(status=STATUS_DEADLINE, error=str(error), **base)
            elif isinstance(error, Shed):
                response = ServeResponse(status=STATUS_UNAVAILABLE, error=str(error), **base)
            elif isinstance(error, SnapshotUnavailable):
                response = ServeResponse(status=STATUS_UNAVAILABLE, error=str(error), **base)
            else:
                response = ServeResponse(status=STATUS_ERROR, error=str(error), **base)
        elif request.result is None:
            # Still queued/in flight past the deadline: reject without
            # waiting for (or spending) the compute.
            response = ServeResponse(
                status=STATUS_DEADLINE,
                error=f"deadline exceeded after {latency_ms:.1f} ms in queue",
                **base,
            )
        else:
            snapshot, staleness = self.store.current()
            response = ServeResponse(
                status=STATUS_OK,
                scores=request.result,
                snapshot_ts=snapshot.ts,
                snapshot_version=snapshot.version,
                **base,
            )
            response.staleness = staleness
        if self.trace_collector is not None:
            self._record_request_spans(
                kind, request_index, request, response.status, started, submitted, now
            )
        self._emit_request(kind, response.status, response)
        return response

    def _record_request_spans(
        self,
        kind: str,
        request_index: int,
        request: ServeRequest,
        status: int,
        started: float,
        submitted: float,
        now: float,
    ) -> None:
        """Record this query's ``request`` span and its phase chain.

        The chain is contiguous — admit → queue_wait → decode → respond
        partition exactly ``[started, now]`` — so the phase seconds sum
        to the request's by construction (the trace checks' invariant).
        Phases that never happened (a request failed in the queue)
        collapse to zero-length spans.
        """
        collector = self.trace_collector
        tid = threading.get_native_id()
        parent = collector.record(
            "request",
            started,
            now,
            parent=self.trace_root,
            meta={"kind": kind, "status": status, "index": request_index},
            tid=tid,
        )
        if parent is None:
            return
        t_compute = request.started_at if request.started_at is not None else now
        t_compute = min(max(t_compute, submitted), now)
        t_decoded = t_compute + (request.decode_seconds or 0.0)
        t_decoded = min(max(t_decoded, t_compute), now)
        for name, a, b in (
            ("admit", started, submitted),
            ("queue_wait", submitted, t_compute),
            ("decode", t_compute, t_decoded),
            ("respond", t_decoded, now),
        ):
            collector.record(name, a, b, parent=parent, tid=tid)

    # ------------------------------------------------------------------
    # Ingest path (circuit-broken online continual training)
    # ------------------------------------------------------------------
    def ingest(self, snapshot: Snapshot) -> ServeResponse:
        """Observe one revealed snapshot through the online adapter.

        Outcomes: accepted (``200``, online steps taken), poisoned
        (``200`` with sentinel skips — recorded, step skipped, breaker
        failure), invalid (``400``, out-of-vocab ids — loud, breaker
        failure), refused (``503``, breaker open or draining).
        """
        started = self.clock()
        index = self._ingest_index
        self._ingest_index += 1
        if self._draining or self.batcher is None:
            self._emit_shed("ingest", "draining")
            return self._refusal(
                "ingest", STATUS_UNAVAILABLE, "server is draining",
                breaker_state=self.breaker.state,
            )
        if self.adapter is None:
            raise RuntimeError("server has no OnlineAdapter attached for ingest")
        if self.fault_injector is not None:
            self.fault_injector.arm_ingest(self.adapter, index)
        failure: Optional[tuple] = None
        skips = steps = 0
        with self._model_lock:
            # Admission AND outcome recording happen inside the model
            # lock: checked outside it, a burst of concurrent ingests
            # would all pass admission before the first failure could
            # trip the breaker, and an interleaved success could reset
            # the consecutive-failure count mid-poison-run.
            if not self.breaker.allow():
                self._emit_shed("ingest", "breaker_open")
                return self._refusal(
                    "ingest", STATUS_UNAVAILABLE,
                    "ingest circuit breaker is open",
                    breaker_state=self.breaker.state,
                )
            skips_before = self.adapter.nonfinite_skips
            steps_before = self.adapter.steps_taken
            try:
                self.adapter.observe(snapshot)
            except ValueError as exc:
                self.breaker.record_failure(f"invalid ingest batch: {exc}")
                failure = (STATUS_INVALID, str(exc))
            except Exception as exc:  # noqa: BLE001 - must not kill serving
                self.breaker.record_failure(
                    f"ingest raised {type(exc).__name__}: {exc}"
                )
                failure = (STATUS_ERROR, f"{type(exc).__name__}: {exc}")
            else:
                skips = self.adapter.nonfinite_skips - skips_before
                steps = self.adapter.steps_taken - steps_before
                if skips > 0:
                    self.breaker.record_failure(
                        f"non-finite loss on ingest "
                        f"(sentinel skipped {skips} step(s))"
                    )
                else:
                    self.breaker.record_success()
        if failure is not None:
            status, message = failure
            return self._refusal(
                "ingest", status, message,
                breaker_state=self.breaker.state,
                latency_ms=1000.0 * (self.clock() - started),
            )
        # The snapshot is recorded either way (poisoned batches skip the
        # gradient step, not the history append) — the published
        # embeddings are now one timestamp behind until refresh lands.
        self._latest_ts = max(self._latest_ts, int(snapshot.time))
        with self._report_lock:
            staleness = self.store.mark_stale()
        self._request_refresh(self._latest_ts + 1)
        response = ServeResponse(
            status=STATUS_OK,
            kind="ingest",
            staleness=staleness,
            latency_ms=1000.0 * (self.clock() - started),
            steps=steps,
            skips=skips,
            breaker_state=self.breaker.state,
        )
        self._emit_request("ingest", STATUS_OK, response)
        return response

    # ------------------------------------------------------------------
    # Supervised snapshot refresh
    # ------------------------------------------------------------------
    def _request_refresh(self, ts: int) -> None:
        with self._refresh_cond:
            self._refresh_target = int(ts)
            self._refresh_cond.notify()

    def _refresh_loop(self) -> None:
        while True:
            with self._refresh_cond:
                while self._refresh_target is None and not self._refresh_stop:
                    self._refresh_cond.wait(timeout=0.05)
                if self._refresh_stop and self._refresh_target is None:
                    return
                target = self._refresh_target
                self._refresh_target = None
            self._refresh_once(target)

    def _warm_snapshot_cache(self, ts: int) -> None:
        """Prebuild per-snapshot artifacts for the capture at ``ts``.

        Runs *outside* the model lock so hypergraph construction and
        edge sorting for a cold history window never extend the lock
        hold (and never land inside the first timed request).
        """
        cache = getattr(self.model, "snapshot_cache", None)
        if cache is None or not cache.max_entries:
            return
        cache.warm(self.model.history_before(ts))

    def _refresh_once(self, ts: int) -> bool:
        """One supervised refresh cycle: retry, back off, or degrade."""
        cfg = self.config
        backoff_s = cfg.refresh_backoff_ms / 1000.0
        for attempt in range(1, cfg.refresh_attempts + 1):
            attempt_index = self._refresh_attempt_index
            self._refresh_attempt_index += 1
            try:
                if self.fault_injector is not None:
                    self.fault_injector.on_refresh_attempt(attempt_index)
                self._warm_snapshot_cache(ts)
                with self._model_lock:
                    snapshot = capture(
                        self.model, ts, self._next_version(), clock=self.clock
                    )
            except Exception as exc:  # noqa: BLE001 - supervised: retry, degrade
                giving_up = attempt >= cfg.refresh_attempts
                sleep_s = 0.0
                if not giving_up:
                    jitter = float(self._rng.uniform(0.0, REFRESH_JITTER))
                    sleep_s = min(
                        backoff_s * (REFRESH_BACKOFF_FACTOR ** (attempt - 1)),
                        REFRESH_BACKOFF_MAX_MS / 1000.0,
                    ) * (1.0 + jitter)
                self._emit(
                    "refresh_retry",
                    ts=ts,
                    attempt=attempt,
                    outcome="gave_up" if giving_up else "failed",
                    backoff_ms=round(1000.0 * sleep_s, 3),
                    error=f"{type(exc).__name__}: {exc}",
                )
                if giving_up:
                    with self._report_lock:
                        staleness = self.store.staleness
                        if self.reporter is not None:
                            self.reporter.emit(
                                "degraded",
                                ts=ts,
                                staleness=staleness,
                                reason=(
                                    f"refresh failed {cfg.refresh_attempts} time(s); "
                                    "serving the stale snapshot"
                                ),
                            )
                    return False
                time.sleep(sleep_s)
                continue
            with self._report_lock:
                self.store.publish(snapshot)
                if self.reporter is not None:
                    self.reporter.emit(
                        "refresh_retry",
                        ts=ts,
                        attempt=attempt,
                        outcome="ok",
                        backoff_ms=0.0,
                    )
            return True
        return False

    # ------------------------------------------------------------------
    # Probes and drain
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Liveness: process-internal state, always answerable."""
        return {
            "live": True,
            "draining": self._draining,
            "drained": self._drained,
            "store": self.store.describe(),
            "breaker": self.breaker.snapshot(),
            "queue_depth": self.batcher.depth if self.batcher is not None else 0,
            "requests": self.counters.requests,
            "shed": self.counters.shed,
        }

    def ready(self) -> bool:
        """Readiness: a published snapshot and a live batcher, not draining."""
        return (
            self.batcher is not None
            and not self._draining
            and self.store.ready
        )

    def drain(self, timeout: float = 10.0) -> bool:
        """Graceful shutdown: refuse new work, flush, stop, report.

        Idempotent; returns True when everything stopped in time.  The
        final events are ``drain`` (totals) then ``run_end`` — the
        terminator the health check requires.
        """
        if self._drained:
            return True
        self._draining = True
        clean = True
        if self.batcher is not None:
            clean = self.batcher.close(timeout=timeout)
        with self._refresh_cond:
            self._refresh_stop = True
            self._refresh_cond.notify_all()
        if self._refresh_thread is not None:
            self._refresh_thread.join(timeout=timeout)
            clean = clean and not self._refresh_thread.is_alive()
        # Counter reads, the final two events, and closing the report are
        # one critical section: nothing can be counted-but-unreported or
        # reported after run_end (late responses are dropped from the
        # report entirely, so the drain totals reconcile exactly).
        with self._report_lock:
            if self.reporter is not None and not self._report_closed:
                self.reporter.emit(
                    "drain",
                    requests=self.counters.requests,
                    shed=self.counters.shed,
                    errors=self.counters.errors,
                    deadline_exceeded=self.counters.deadline_exceeded,
                    ingests=self.counters.ingests,
                    by_status={
                        str(k): v
                        for k, v in sorted(self.counters.by_status.items())
                    },
                    clean=clean,
                )
                self.reporter.emit("run_end", status="completed", epochs_completed=0)
            self._report_closed = True
        self._drained = True
        return clean


def select_topk(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest scores, deterministically ordered.

    Descending score, ties broken by ascending index — the same order a
    stable full sort on ``(-score, index)`` yields, but computed with an
    ``O(C)`` partition plus an ``O(k log k)`` sort of the survivors.
    Boundary ties at the k-th value are resolved by smallest index, so
    the result never depends on ``argpartition``'s internal pivot walk.
    """
    s = np.asarray(scores)
    if s.ndim != 1:
        raise ValueError(f"select_topk expects a 1-D score vector, got shape {s.shape}")
    k = int(k)
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    n = s.shape[0]
    if k >= n:
        return np.lexsort((np.arange(n), -s)).astype(np.int64)
    partition = np.argpartition(-s, k - 1)
    threshold = s[partition[k - 1]]
    above = np.nonzero(s > threshold)[0]
    at_threshold = np.nonzero(s == threshold)[0]  # ascending index already
    take = np.concatenate([above, at_threshold[: k - above.size]])
    order = np.lexsort((take, -s[take]))
    return take[order].astype(np.int64)


def topk_entities(scores: np.ndarray, k: int) -> List[int]:
    """Utility: indices of the ``k`` best candidates of one score row.

    Routes through :func:`select_topk`, the same deterministic selection
    the serving ``topk`` endpoint uses (ties broken by ascending entity
    id, not by the sort algorithm's internals).
    """
    return list(select_topk(np.asarray(scores), k))
