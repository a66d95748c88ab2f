"""Micro-batching with per-request deadlines and bounded admission.

Concurrent ``score``/``topk`` requests are coalesced into one batched
decoder pass (`ConvTransE.probabilities_multi` via the model's batched
decode path): a batch takes up to ``max_batch`` queued requests,
concatenates their query rows into a single ``(B, 2)`` array, runs the
scorer once, and splits the ``(B, C)`` result back per request.

**Who decodes.** There is no batcher thread; callers run the scorer
themselves.  A caller inside :meth:`ServeRequest.wait` that finds the
queue non-empty and nobody leading becomes the *leader* and takes
batches on its own thread.  It stops leading once its own request is
resolved or its own wait times out; if the queue is still non-empty it
then wakes the waiter of the oldest queued request to lead next.  At
most one thread leads at a time, so the scorer is never entered twice
at once; a lone request is decoded without crossing a thread, and a
queue never sits without a leader while someone waits on it.  A
request nobody waits on stays queued until a later leader or
:meth:`MicroBatcher.close` takes it.

**Waiting for companions.** A leader holds a batch for more requests
only while a caller is on its way: :meth:`MicroBatcher.arrival` counts
callers that have entered the query path but not yet submitted (or
given up).  Once that count is zero the batch goes at once -- no caller
can join it, so sleeping out ``max_wait`` would only add latency.
``max_wait``, ``max_batch`` and the end of the leader's own wait cap
the hold.

The degradation ladder lives here:

* **Deadline propagation.** Every request carries an absolute deadline.
  The leader re-checks it *after* dequeue and *before* compute — a
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
* **Drain.** :meth:`MicroBatcher.close` stops admissions (new submits
  are refused as ``draining``), waits for the leader to step down, then
  decodes what is still queued on the closing thread — the
  graceful-drain half of the server's SIGTERM handling.

An ``on_shed(request, reason)`` hook feeds the server's telemetry; the
batcher itself knows nothing about run reports.
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
        "queries", "deadline", "enqueued_at", "done", "result", "error",
        "batch_size", "started_at", "decode_seconds",
        "_wake", "_batcher", "_waiting",
    )

    def __init__(self, queries: np.ndarray, deadline: Optional[float], now: float):
        self.queries = np.asarray(queries, dtype=np.int64).reshape(-1, 2)
        self.deadline = deadline
        self.enqueued_at = now
        self.done = False
        self.result: Optional[np.ndarray] = None
        self.error: Optional[BaseException] = None
        self.batch_size: Optional[int] = None
        self.started_at: Optional[float] = None
        self.decode_seconds: Optional[float] = None
        #: set when the request is done or its waiter is asked to lead.
        self._wake = threading.Event()
        #: the batcher it was submitted to (None until then).
        self._batcher: Optional[MicroBatcher] = None
        #: a thread is blocked in :meth:`wait` on it (guarded by the batcher lock).
        self._waiting = False

    def resolve(self, result: np.ndarray) -> None:
        self.result = result
        self.done = True
        self._wake.set()

    def fail(self, error: BaseException) -> None:
        self.error = error
        self.done = True
        self._wake.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until resolved or failed; False when ``timeout`` ran out.

        Once submitted, the waiting thread may lead its batcher's
        decodes meanwhile (see the module docstring).  One thread waits
        on a request at a time.
        """
        if self._batcher is not None:
            return self._batcher._wait(self, timeout)
        self._wake.wait(timeout)
        return self.done


class Arrival:
    """One caller counted as on its way to :meth:`MicroBatcher.submit`.

    A context manager from :meth:`MicroBatcher.arrival`: entering it
    counts the caller, :meth:`submit` hands the count over to the
    enqueue, and leaving without submitting (a refusal or an exception)
    takes it back and wakes the leader.
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
    """Coalesces requests into batched scorer calls run by their callers.

    The scorer runs on the thread of whichever waiter leads (see
    :meth:`ServeRequest.wait`), one leader at a time.  A leader takes a
    batch as soon as something is queued and no caller is arriving (see
    :meth:`arrival`); while one is, it waits for it, at most
    ``max_wait`` seconds and until ``max_batch`` requests are queued.
    Callers that :meth:`submit` without an arrival are never waited for.
    """

    def __init__(
        self,
        scorer: Callable[[np.ndarray], np.ndarray],
        max_batch: int = 64,
        max_queue: int = 256,
        max_wait: float = 0.002,
        clock: Callable[[], float] = time.monotonic,
        on_shed: Optional[Callable[[ServeRequest, str], None]] = None,
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
        self._queue: deque = deque()
        self._lock = threading.Lock()
        #: wakes a leader holding for companions, and close() waiting
        #: for the leader to step down.
        self._wakeup = threading.Condition(self._lock)
        self._closing = False
        #: callers inside :meth:`arrival` that have not submitted yet.
        self._arriving = 0
        #: the thread running batches, or None.
        self._leader: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def arrival(self) -> Arrival:
        """Count the caller as on its way to submit, for a ``with`` block.

        While any arrival is open, a non-full batch waits (up to
        ``max_wait``) for it; leave the block on every path, submitted
        or not, or the leader keeps waiting out ``max_wait``.
        """
        return Arrival(self)

    @property
    def arriving(self) -> int:
        """Callers counted by :meth:`arrival` that have not submitted."""
        with self._lock:
            return self._arriving

    def submit(self, request: ServeRequest) -> None:
        """Enqueue; sheds the oldest queued request when the queue is full.

        The request is decoded by whichever caller leads, usually its
        own waiter inside :meth:`ServeRequest.wait`; one nobody waits on
        is decoded by a later leader or by :meth:`close`.  Raises
        :class:`Shed` when the batcher is draining.  A shed of an
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
            request._batcher = self
            self._queue.append(request)
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
    # Leading: the waiters run the batches
    # ------------------------------------------------------------------
    def _wait(self, request: ServeRequest, timeout: Optional[float]) -> bool:
        """:meth:`ServeRequest.wait` for a submitted request."""
        end = None if timeout is None else time.monotonic() + timeout
        lock = self._lock
        with lock:
            try:
                while not request.done:
                    remaining = None if end is None else end - time.monotonic()
                    if remaining is not None and remaining <= 0:
                        return False
                    if self._leader is None and self._queue:
                        self._leader = threading.current_thread()
                        try:
                            self._lead(request, end)
                        finally:
                            self._step_down()
                        continue
                    request._waiting = True
                    lock.release()
                    try:
                        request._wake.wait(remaining)
                        # Cleared before the state is re-read below, so a
                        # wake-up that comes after this is never lost.
                        request._wake.clear()
                    finally:
                        lock.acquire()
                        request._waiting = False
                return True
            finally:
                # This thread may have stopped leading or have swallowed a
                # hand-off: pass the queue on to a waiting caller.
                if self._leader is None and self._queue:
                    self._hand_off()

    def _lead(self, request: Optional[ServeRequest], end: Optional[float]) -> None:
        """Run batches until ``request`` is done, the queue empties or ``end``.

        Called holding the lock as the leader; the lock is released
        while the scorer runs.  ``request`` None (the closer) runs the
        queue out.
        """
        while self._queue and (request is None or not request.done):
            batch = self._take_batch(end)
            if not batch:
                return  # the leader's own wait ended in the companion hold
            self._lock.release()
            try:
                self._process(batch)
            finally:
                self._lock.acquire()
            if end is not None and time.monotonic() >= end:
                return

    def _step_down(self) -> None:
        self._leader = None
        if self._closing:
            self._wakeup.notify_all()  # close() waits for the leader to go

    def _hand_off(self) -> None:
        """Wake the waiter of the oldest queued request to lead next."""
        for request in self._queue:
            if request._waiting:
                request._wake.set()
                return

    def _take_batch(self, end: Optional[float]) -> List[ServeRequest]:
        """Dequeue up to ``max_batch`` requests (the lock is held).

        Returns an empty list when the leader's own wait ends while it
        holds the batch for companions.
        """
        # Wait up to max_wait for callers already on their way, so
        # concurrent callers coalesce; with none arriving, nobody can
        # join and the batch goes now.
        hold_until = self.clock() + self.max_wait
        while len(self._queue) < self.max_batch and self._arriving and not self._closing:
            remaining = hold_until - self.clock()
            if end is not None:
                left = end - time.monotonic()
                if left <= 0:
                    return []
                remaining = min(remaining, left)
            if remaining <= 0:
                break
            self._wakeup.wait(timeout=remaining)
        batch = []
        while self._queue and len(batch) < self.max_batch:
            batch.append(self._queue.popleft())
        return batch

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
        except BaseException as exc:
            # Resolve every waiter and keep serving; an interrupt still
            # reaches the leading caller.
            for request in live:
                request.fail(exc)
            if not isinstance(exc, Exception):
                raise
            return
        seconds = self.clock() - start
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
        """Stop admissions, then decode what is still queued on this thread.

        New submits are refused as ``draining``.  The closing thread
        waits for the current leader to step down and then runs the
        queue out, so requests whose callers stopped waiting are still
        resolved or failed.  Returns True when no request was left
        queued or in flight within ``timeout``.
        """
        end = time.monotonic() + timeout
        with self._lock:
            self._closing = True
            self._wakeup.notify_all()  # a leader holding for companions goes now
            try:
                while self._leader is not None:
                    remaining = end - time.monotonic()
                    if remaining <= 0:
                        return False
                    self._wakeup.wait(timeout=remaining)
                # Nothing can be queued from here on, so the closer leads last.
                self._leader = threading.current_thread()
                try:
                    self._lead(None, end)
                finally:
                    self._step_down()
                return not self._queue
            finally:
                if self._leader is None and self._queue:
                    self._hand_off()
