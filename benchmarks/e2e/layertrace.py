"""Outside-in per-layer tracing for the end-to-end benchmark.

End-to-end numbers are measured with nothing patched.  A traced run then
wraps the public entry point of each layer from here, so no file of the
program changes: a method is replaced on its class, a module-level
function in the module namespace it is looked up from.  Each wrapper
counts calls, busy seconds and self seconds (busy time minus the time of
wrapped calls nested inside it on the same thread) plus a work count read
from the arguments or the result.  Totals are summed exactly under a
lock.  Every call also becomes a span in a
:class:`repro.obs.tracing.SpanCollector` through its thread-safe
``record()``; the collector is never installed as the active one, so the
program's own spans stay off.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs import tracing


def _rows(args, kwargs, result) -> int:
    return int(args[1].shape[0])


def _edges(args, kwargs, result) -> int:
    return len(args[3])


def _scores(args, kwargs, result) -> int:
    # probabilities_multi(self, firsts (T, B, d), seconds, candidates (T, C, d))
    firsts, candidates = args[1], args[3]
    return int(firsts.shape[0] * firsts.shape[1] * candidates.shape[1])


def _ranked(args, kwargs, result) -> int:
    return int(args[0].size)


def _facts(args, kwargs, result) -> int:
    return len(args[1])


def _skip(args, kwargs, result) -> int:
    return 0 if result else 1


def _query_rows(args, kwargs, result) -> int:
    return len(args[2])


@dataclass(frozen=True)
class Hook:
    """One wrapped entry point and the layer it is booked under."""

    layer: str
    module: str
    #: class holding the method, or "" for a module-level function.
    owner: str
    attr: str
    #: ``(args, kwargs, result) -> int`` work count, booked as ``layer.<unit>``.
    work: Optional[Callable] = None
    unit: str = ""


HOOKS: Tuple[Hook, ...] = (
    Hook("core.model.loss", "repro.core.model", "RETIA", "loss_on_snapshot"),
    Hook("core.model.predict", "repro.core.model", "RETIA", "predict_entities"),
    Hook("core.model.predict", "repro.core.model", "RETIA", "predict_relations"),
    Hook("core.model.predict", "repro.core.model", "RETIA", "rank_entities"),
    Hook("core.trainer.observe", "repro.core.trainer", "OnlineAdapter", "observe"),
    Hook("core.ram", "repro.core.ram", "RelationAggregationModule", "forward"),
    Hook("core.eam", "repro.core.eam", "EntityAggregationModule", "forward"),
    Hook("core.tim", "repro.core.tim", "TwinInteractModule", "relation_mean"),
    Hook("core.tim", "repro.core.tim", "TwinInteractModule", "hyper_mean"),
    Hook("core.rgcn", "repro.core.rgcn", "RGCNLayer", "forward", _edges, "edges"),
    Hook("nn.rnn.gru", "repro.nn.rnn", "GRUCell", "forward", _rows, "rows"),
    Hook("nn.rnn.lstm", "repro.nn.rnn", "LSTMCell", "forward", _rows, "rows"),
    Hook(
        "core.decoder", "repro.core.decoder", "ConvTransE", "probabilities_multi",
        _scores, "scores",
    ),
    Hook("core.decoder", "repro.core.decoder", "ConvTransE", "queries_stacked"),
    Hook("autograd.backward", "repro.autograd.tensor", "Tensor", "backward"),
    Hook("nn.optim.adam", "repro.nn.optim", "Adam", "step"),
    Hook(
        "resilience.sentinel", "repro.resilience.sentinel", "NonFiniteGuard",
        "guarded_step", _skip, "skips",
    ),
    Hook(
        "eval.protocol", "repro.eval.protocol", "", "score_timestamp", _facts, "facts",
    ),
    # rank_entities imports the metric at call time; the relation task
    # uses the name bound in the protocol module.  Both are one layer.
    Hook(
        "eval.metrics", "repro.eval.metrics", "", "ranks_from_scores",
        _ranked, "candidates",
    ),
    Hook(
        "eval.metrics", "repro.eval.protocol", "", "ranks_from_scores",
        _ranked, "candidates",
    ),
    Hook("graph.cache", "repro.graph.cache", "SnapshotCache", "artifacts"),
    # Called only on a cache miss: Algorithm 1 plus the edge sorting.
    Hook("graph.hypergraph", "repro.graph.cache", "SnapshotArtifacts", "build"),
    Hook(
        "serve.snapshots.decode", "repro.serve.server", "", "score_entities",
        _query_rows, "rows",
    ),
    Hook("serve.snapshots.capture", "repro.serve.server", "", "capture"),
    Hook("serve.server.ingest", "repro.serve.server", "ModelServer", "ingest"),
)

#: Layer names in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(h.layer for h in HOOKS))
#: ``layer.<unit>`` work-count metric names.
WORK_METRICS: Tuple[str, ...] = tuple(
    dict.fromkeys(f"{h.layer}.{h.unit}" for h in HOOKS if h.work is not None)
)


class _Totals:
    __slots__ = ("calls", "busy", "self_")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_ = 0.0


class LayerTracer:
    """Wraps every :data:`HOOKS` entry point while installed.

    Use as a context manager; leaving it restores each original
    attribute object (the identity the self-tests check).
    """

    def __init__(self, hooks: Tuple[Hook, ...] = HOOKS):
        self.hooks = hooks
        self.collector = tracing.SpanCollector()
        self.totals: Dict[str, _Totals] = {h.layer: _Totals() for h in hooks}
        self.work: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: List[tuple] = []

    # -- install / uninstall -------------------------------------------
    def __enter__(self) -> "LayerTracer":
        try:
            for hook in self.hooks:
                owner = importlib.import_module(hook.module)
                if hook.owner:
                    owner = getattr(owner, hook.owner)
                    original = owner.__dict__[hook.attr]
                else:
                    original = getattr(owner, hook.attr)
                self._saved.append((owner, hook.attr, original))
                setattr(owner, hook.attr, self._wrap(hook, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, hook: Hook, original):
        static = isinstance(original, staticmethod)
        fn = original.__func__ if static else original
        layer, work = hook.layer, hook.work
        work_key = f"{layer}.{hook.unit}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._stack().append([layer, 0.0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(layer, start)
                raise
            if work is None:
                self._close(layer, start)
            else:
                self._close(layer, start, work_key, work(args, kwargs, result))
            return result

        return staticmethod(wrapper) if static else wrapper

    # -- accounting ----------------------------------------------------
    def _stack(self) -> List[list]:
        """This thread's open wrapped calls as ``[layer, nested seconds]``."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, layer: str, start: float, work_key: str = "", count: int = 0) -> None:
        end = time.perf_counter()
        stack = self._local.stack
        _, nested = stack.pop()
        busy = end - start
        if stack:
            stack[-1][1] += busy
        # A layer re-entered through itself (rank_entities calling
        # predict_entities) books busy time once, at the outer call.
        outermost = all(entry[0] != layer for entry in stack)
        with self._lock:
            totals = self.totals[layer]
            totals.calls += 1
            if outermost:
                totals.busy += busy
            totals.self_ += busy - nested
            if work_key:
                self.work[work_key] = self.work.get(work_key, 0) + count
        self.collector.record(layer, start, end, tid=threading.get_native_id())

    @contextlib.contextmanager
    def op(self, name: str, **meta):
        """Record one benchmark operation (epoch, pass, request) as a span."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.collector.record(
                name, start, time.perf_counter(), meta=meta,
                tid=threading.get_native_id(),
            )

    # -- reporting -----------------------------------------------------
    def per_op(self, ops: int, wall: float) -> Dict[str, float]:
        """Every layer metric normalised per operation, plus trace health.

        ``trace.unattributed_s`` is the traced wall-clock per op minus the
        sum of every layer's self time per op, so the self times and it
        add up to ``trace.wall_s`` by construction.
        """
        ops = max(1, ops)
        with self._lock:
            out: Dict[str, float] = {}
            for layer in LAYERS:
                totals = self.totals.get(layer, _Totals())
                out[f"{layer}.self_s"] = totals.self_ / ops
                out[f"{layer}.busy_s"] = totals.busy / ops
                out[f"{layer}.calls"] = totals.calls / ops
            for key in WORK_METRICS:
                out[key] = self.work.get(key, 0) / ops
            self_total = sum(t.self_ for t in self.totals.values())
        lookups = out["graph.cache.calls"]
        out["graph.cache.hit_ratio"] = (
            1.0 - out["graph.hypergraph.calls"] / lookups if lookups else 0.0
        )
        out["trace.wall_s"] = wall / ops
        out["trace.unattributed_s"] = (wall - self_total) / ops
        out["trace.spans_dropped"] = float(self.collector.dropped)
        return out
