"""Micro-batching with per-request deadlines and bounded admission.

Concurrent ``score``/``topk`` requests are coalesced into one batched
decoder pass (`ConvTransE.probabilities_multi` via the model's batched
decode path): the batcher thread drains up to ``max_batch`` pending
requests, concatenates their query rows into a single ``(B, 2)`` array,
runs the scorer once, and splits the ``(B, C)`` result back per
request.

**Waiting for companions.** A batch waits for more requests only while
a caller is on its way: :meth:`MicroBatcher.arrival` counts callers that
have entered the query path but not yet submitted (or given up).  Once
that count is zero the batch goes at once -- no caller can join it, so
sleeping out ``max_wait`` would only add latency.  ``max_wait`` and
``max_batch`` still cap the wait.

The degradation ladder lives here:

* **Deadline propagation.** Every request carries an absolute deadline.
  The batcher re-checks it *after* dequeue and *before* compute — a
  request that has already expired is rejected with
  :class:`DeadlineExceeded` instead of burning decoder time, and its
  waiters are woken immediately.
* **Bounded admission.** The queue holds at most ``max_queue``
  requests.  When a new request arrives at a full queue the *oldest*
  queued request is shed (it has waited longest and is closest to its
  deadline anyway — shedding it preserves the most remaining budget)
  and the newcomer is admitted.  Shed requests resolve with a
  503-style :class:`Shed` outcome; unbounded latency collapse is not an
  option.
* **Drain.** :meth:`close` stops admissions (new submits are refused as
  ``draining``), lets the batcher finish what is queued, then stops the
  thread — the graceful-drain half of the server's SIGTERM handling.

``on_shed(request, reason)`` and ``on_batch(size, seconds)`` hooks feed
the server's telemetry; the batcher itself knows nothing about run
reports.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import Callable, List, Optional

import numpy as np

SHED_QUEUE_FULL = "queue_full"
SHED_DRAINING = "draining"
SHED_DEADLINE = "deadline"


class DeadlineExceeded(RuntimeError):
    """The request's deadline passed before (or while) it was served."""


class Shed(RuntimeError):
    """The request was refused by admission control (503-style)."""

    def __init__(self, reason: str):
        super().__init__(f"request shed: {reason}")
        self.reason = reason


class ServeRequest:
    """One pending query batch plus its completion slot."""

    __slots__ = (
        "queries", "deadline", "enqueued_at", "_done", "result", "error",
        "batch_size", "started_at", "decode_seconds",
    )

    def __init__(self, queries: np.ndarray, deadline: Optional[float], now: float):
        self.queries = np.asarray(queries, dtype=np.int64).reshape(-1, 2)
        self.deadline = deadline
        self.enqueued_at = now
        self._done = threading.Event()
        self.result: Optional[np.ndarray] = None
        self.error: Optional[BaseException] = None
        self.batch_size: Optional[int] = None
        self.started_at: Optional[float] = None
        self.decode_seconds: Optional[float] = None

    def resolve(self, result: np.ndarray) -> None:
        self.result = result
        self._done.set()

    def fail(self, error: BaseException) -> None:
        self.error = error
        self._done.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._done.wait(timeout)


class Arrival:
    """One caller counted as on its way to :meth:`MicroBatcher.submit`.

    A context manager from :meth:`MicroBatcher.arrival`: entering it
    counts the caller, :meth:`submit` hands the count over to the
    enqueue, and leaving without submitting (a refusal or an exception)
    takes it back and wakes the batcher.
    """

    __slots__ = ("_batcher", "_open")

    def __init__(self, batcher: "MicroBatcher"):
        self._batcher = batcher
        self._open = False

    def __enter__(self) -> "Arrival":
        with self._batcher._lock:
            self._batcher._arriving += 1
        self._open = True
        return self

    def submit(self, request: ServeRequest) -> None:
        """Enqueue ``request`` (see :meth:`MicroBatcher.submit`)."""
        if not self._open:
            raise RuntimeError("arrival already submitted or closed")
        self._open = False
        self._batcher._enqueue(request, arrived=True)

    def __exit__(self, *exc_info) -> bool:
        if self._open:
            self._open = False
            batcher = self._batcher
            with batcher._lock:
                batcher._arriving -= 1
                batcher._wakeup.notify()
        return False


class MicroBatcher:
    """Background thread coalescing requests into batched scorer calls.

    A batch is taken as soon as something is queued and no caller is
    arriving (see :meth:`arrival`); while one is, the batcher waits for
    it, at most ``max_wait`` seconds and until ``max_batch`` requests are
    queued.  Callers that :meth:`submit` without an arrival are never
    waited for.
    """

    def __init__(
        self,
        scorer: Callable[[np.ndarray], np.ndarray],
        max_batch: int = 64,
        max_queue: int = 256,
        max_wait: float = 0.002,
        clock: Callable[[], float] = time.monotonic,
        on_shed: Optional[Callable[[ServeRequest, str], None]] = None,
        on_batch: Optional[Callable[[int, float], None]] = None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if not (math.isfinite(max_wait) and max_wait >= 0):
            raise ValueError("max_wait must be finite and >= 0")
        self.scorer = scorer
        self.max_batch = max_batch
        self.max_queue = max_queue
        self.max_wait = max_wait
        self.clock = clock
        self.on_shed = on_shed
        self.on_batch = on_batch
        self._queue: deque = deque()
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._closing = False
        #: callers inside :meth:`arrival` that have not submitted yet.
        self._arriving = 0
        self._stopped = threading.Event()
        self.submitted = 0
        self.shed = 0
        self.batches = 0
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-batcher", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def arrival(self) -> Arrival:
        """Count the caller as on its way to submit, for a ``with`` block.

        While any arrival is open, a non-full batch waits (up to
        ``max_wait``) for it; leave the block on every path, submitted
        or not, or the batcher keeps waiting out ``max_wait``.
        """
        return Arrival(self)

    @property
    def arriving(self) -> int:
        """Callers counted by :meth:`arrival` that have not submitted."""
        with self._lock:
            return self._arriving

    def submit(self, request: ServeRequest) -> None:
        """Enqueue; sheds the oldest queued request when the queue is full.

        Raises :class:`Shed` when the batcher is draining.  A shed of an
        *older* request is reported through ``on_shed``; the older
        request's waiter is resolved with a :class:`Shed` error.
        """
        self._enqueue(request, arrived=False)

    def _enqueue(self, request: ServeRequest, arrived: bool) -> None:
        shed_request = None
        with self._lock:
            if arrived:
                self._arriving -= 1
            if self._closing:
                raise Shed(SHED_DRAINING)
            if len(self._queue) >= self.max_queue:
                shed_request = self._queue.popleft()
                self.shed += 1
            self._queue.append(request)
            self.submitted += 1
            self._wakeup.notify()
        if shed_request is not None:
            shed_request.fail(Shed(SHED_QUEUE_FULL))
            if self.on_shed is not None:
                self.on_shed(shed_request, SHED_QUEUE_FULL)

    @property
    def depth(self) -> int:
        with self._lock:
            return len(self._queue)

    # ------------------------------------------------------------------
    # Batching loop
    # ------------------------------------------------------------------
    def _take_batch(self) -> Optional[List[ServeRequest]]:
        """Block until work (or close); return up to ``max_batch`` requests."""
        with self._lock:
            while not self._queue and not self._closing:
                self._wakeup.wait(timeout=0.05)
            if not self._queue:
                return None  # closing and drained
            batch = []
            # Once something is queued, wait up to max_wait for callers
            # already on their way, so concurrent callers coalesce; with
            # none arriving, nobody can join and the batch goes now.
            deadline = self.clock() + self.max_wait
            while len(self._queue) < self.max_batch and self._arriving and not self._closing:
                remaining = deadline - self.clock()
                if remaining <= 0:
                    break
                self._wakeup.wait(timeout=remaining)
            while self._queue and len(batch) < self.max_batch:
                batch.append(self._queue.popleft())
            return batch

    def _run(self) -> None:
        try:
            while True:
                batch = self._take_batch()
                if batch is None:
                    return
                self._process(batch)
        finally:
            self._stopped.set()

    def _process(self, batch: List[ServeRequest]) -> None:
        now = self.clock()
        live: List[ServeRequest] = []
        for request in batch:
            # Deadline check *before* compute: expired work is rejected,
            # not scored.
            if request.deadline is not None and now >= request.deadline:
                request.fail(DeadlineExceeded(
                    f"deadline passed {1000 * (now - request.deadline):.1f} ms "
                    "before compute started"
                ))
                if self.on_shed is not None:
                    self.on_shed(request, SHED_DEADLINE)
                continue
            live.append(request)
        if not live:
            return
        rows = np.concatenate([r.queries for r in live], axis=0)
        for request in live:
            request.batch_size = len(live)
            request.started_at = now
        start = self.clock()
        try:
            scores = self.scorer(rows)
        except BaseException as exc:  # noqa: BLE001 - resolve waiters, keep serving
            for request in live:
                request.fail(exc)
            return
        seconds = self.clock() - start
        self.batches += 1
        if self.on_batch is not None:
            self.on_batch(len(live), seconds)
        offset = 0
        for request in live:
            n = len(request.queries)
            request.decode_seconds = seconds
            request.resolve(scores[offset : offset + n])
            offset += n

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    def close(self, timeout: float = 10.0) -> bool:
        """Stop admissions, flush the queue, stop the thread.

        Returns True when the batcher stopped within ``timeout``.
        """
        with self._lock:
            self._closing = True
            self._wakeup.notify_all()
        stopped = self._stopped.wait(timeout)
        self._thread.join(timeout=max(0.0, timeout))
        return stopped and not self._thread.is_alive()
