"""Hierarchical span tracing with a zero-cost uninstrumented path.

Code is annotated with :func:`span` blocks; what happens inside
depends on what is installed on the current thread:

* nothing installed — the block costs one thread-local attribute
  lookup and records nothing (the hot-path default);
* a :class:`SpanCollector` (via :func:`collect_spans`) — every span is
  recorded with its parent/child structure, depth and metadata
  (edge counts, snapshot sizes, …), so a training epoch yields a tree
  ("evolve" → "ram" → "ram.gcn") rather than a bag of totals, and
  :meth:`SpanCollector.summary` flattens it into per-name seconds and
  calls.

Threads with nothing installed can still write into a collector with
:meth:`SpanCollector.record`, the thread-safe out-of-band path for spans
whose extent is known after the fact (the serve drill's request chains
and load plan).

Installation is per thread (``threading.local``), so concurrent runs do
not contaminate each other.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Dict, Iterator, List, Optional

_state = threading.local()


class Span:
    """One completed (or open) traced block.

    ``tid`` stays ``None`` for spans recorded by the installing thread
    (the export's ``tid`` applies); spans recorded out-of-band from
    another thread carry their origin so the Chrome export keeps one
    track per thread.
    """

    __slots__ = ("name", "span_id", "parent_id", "depth", "start", "end", "meta", "tid")

    def __init__(self, name: str, span_id: int, parent_id: Optional[int], depth: int,
                 start: float, meta: Optional[dict], tid: Optional[int] = None):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self.start = start
        self.end: Optional[float] = None
        self.meta = meta
        self.tid = tid

    @property
    def seconds(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        return 0.0 if self.end is None else self.end - self.start

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "depth": self.depth,
            "seconds": self.seconds,
        }
        if self.meta:
            d["meta"] = dict(self.meta)
        return d

    def __repr__(self) -> str:
        return f"Span({self.name!r}, {self.seconds * 1000:.2f}ms, depth={self.depth})"


class SpanCollector:
    """Records a bounded tree of spans for the installing thread.

    ``max_spans`` bounds memory on long runs: past it, new spans are
    counted on :attr:`dropped` instead of stored.
    """

    def __init__(self, max_spans: int = 100_000):
        self.spans: List[Span] = []
        self.dropped = 0
        self.max_spans = max_spans
        self._stack: List[Optional[Span]] = []
        self._next_id = 0
        # Guards ``record`` (out-of-band insertion from other threads);
        # the begin/end stack stays single-thread.
        self._record_lock = threading.Lock()

    # -- recording (called by ``span``) --------------------------------
    def begin(self, name: str, meta: Optional[dict], start: float) -> Optional[Span]:
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            self._stack.append(None)
            return None
        parent = next((s for s in reversed(self._stack) if s is not None), None)
        span = Span(
            name,
            self._next_id,
            None if parent is None else parent.span_id,
            len(self._stack),
            start,
            meta or None,
        )
        self._next_id += 1
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Optional[Span], end: float) -> None:
        self._stack.pop()
        if span is not None:
            span.end = end

    # -- out-of-band recording (thread-safe) ---------------------------
    def record(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[Span] = None,
        meta: Optional[dict] = None,
        tid: Optional[int] = None,
    ) -> Optional[Span]:
        """Insert one already-completed span, bypassing the begin/end stack.

        This is the path for events whose lifetime is reconstructed
        after the fact from timestamps (per-request serve spans, the
        drill's load plan) and for callers on threads other than the
        installing one — it takes the record lock, so concurrent request
        threads can all write into the server's trace collector.  Returns ``None``
        when the ``max_spans`` bound drops the span.
        """
        with self._record_lock:
            if len(self.spans) >= self.max_spans:
                self.dropped += 1
                return None
            depth = 0 if parent is None else parent.depth + 1
            span = Span(
                name,
                self._next_id,
                None if parent is None else parent.span_id,
                depth,
                start,
                dict(meta) if meta else None,
                tid=tid,
            )
            self._next_id += 1
            span.end = end
            self.spans.append(span)
            return span

    # -- inspection ----------------------------------------------------
    @property
    def open_count(self) -> int:
        """Spans begun but not yet ended (0 in a balanced tree)."""
        return len(self._stack)

    def is_balanced(self) -> bool:
        """True when every recorded span has been closed."""
        return not self._stack and all(s.end is not None for s in self.spans)

    def roots(self) -> List[Span]:
        return [s for s in self.spans if s.parent_id is None]

    def children(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def summary(self, max_depth: Optional[int] = None) -> Dict[str, Dict[str, float]]:
        """Flat per-name ``{"seconds", "calls"}`` over the completed spans.

        ``max_depth=0`` keeps only root spans — the right view when the
        totals must not double-count nested child spans (e.g. computing
        phase *shares* of an epoch).  When spans were dropped a synthetic
        ``_dropped`` entry surfaces the count, so a truncated summary is
        visibly truncated; its ``seconds`` is 0.0 so share computations
        stay honest about what was measured.
        """
        totals: Dict[str, Dict[str, float]] = {}
        for s in self.spans:
            if s.end is not None and (max_depth is None or s.depth <= max_depth):
                entry = totals.setdefault(s.name, {"seconds": 0.0, "calls": 0})
                entry["seconds"] += s.seconds
                entry["calls"] += 1
        out = {name: totals[name] for name in sorted(totals)}
        if self.dropped:
            out["_dropped"] = {"seconds": 0.0, "calls": self.dropped}
        return out

    def tree(self) -> List[dict]:
        """Nested dicts (children inlined), for reports and debugging."""
        by_parent: Dict[Optional[int], List[Span]] = {}
        for s in self.spans:
            by_parent.setdefault(s.parent_id, []).append(s)

        def build(span: Span) -> dict:
            node = span.to_dict()
            kids = by_parent.get(span.span_id, [])
            if kids:
                node["children"] = [build(k) for k in kids]
            return node

        return [build(s) for s in by_parent.get(None, [])]


def active() -> Optional[SpanCollector]:
    """The span collector installed on this thread, if any."""
    return getattr(_state, "collector", None)


@contextlib.contextmanager
def collect_spans(collector: Optional[SpanCollector] = None) -> Iterator[SpanCollector]:
    """Install a ``SpanCollector`` for the block (per thread)."""
    if collector is None:
        collector = SpanCollector()
    previous = active()
    _state.collector = collector
    try:
        yield collector
    finally:
        _state.collector = previous


@contextlib.contextmanager
def span(name: str, **meta) -> Iterator[Optional[Span]]:
    """Trace the enclosed block under ``name`` when instrumentation is on.

    ``meta`` keyword arguments become span metadata (keep them cheap:
    precomputed ints like edge counts, not derived structures).  With
    no collector installed the block is a no-op and yields ``None``.
    """
    collector = getattr(_state, "collector", None)
    if collector is None:
        yield None
        return
    current = collector.begin(name, meta, time.perf_counter())
    try:
        yield current
    finally:
        collector.end(current, time.perf_counter())


# ----------------------------------------------------------------------
# Chrome / Perfetto trace-event export
# ----------------------------------------------------------------------
def to_chrome_trace(
    collector: SpanCollector,
    pid: int = 1,
    tid: int = 1,
    process_name: str = "repro",
) -> dict:
    """Export a collector as Chrome trace-event JSON (``chrome://tracing``).

    Every *completed* span becomes one complete ``"X"`` duration event
    (microsecond ``ts``/``dur`` relative to the earliest span, so the
    timeline starts at 0); span metadata rides in ``args``.  Open spans
    are omitted — the exported stream is always well-formed.  Events
    are sorted by ``ts``, which Perfetto requires and the trace tests
    assert.

    Every event carries ``pid``; spans recorded out-of-band from other
    threads keep their own ``tid`` (the rest take the ``tid``
    argument), so the flame view renders one track per thread.  A
    top-level ``metadata`` block carries
    ``spans_recorded``/``spans_dropped`` so a truncated trace declares
    itself.
    """
    closed = [s for s in collector.spans if s.end is not None]
    origin = min((s.start for s in closed), default=0.0)

    events: List[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "ts": 0.0,
            "pid": pid,
            "tid": tid,
            "args": {"name": process_name},
        }
    ]
    for s in closed:
        args = {"id": s.span_id, "depth": s.depth}
        if s.parent_id is not None:
            args["parent"] = s.parent_id
        if s.meta:
            args.update(s.meta)
        events.append(
            {
                "name": s.name,
                "cat": "span",
                "ph": "X",
                "ts": round((s.start - origin) * 1e6, 3),
                "dur": round(max(0.0, s.seconds) * 1e6, 3),
                "pid": pid,
                "tid": tid if s.tid is None else s.tid,
                "args": args,
            }
        )
    # Metadata events first, then strictly by timestamp (stable for ties).
    events.sort(key=lambda e: (e["ph"] != "M", e["ts"]))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "metadata": {
            "spans_recorded": len(closed),
            "spans_dropped": collector.dropped,
        },
    }
