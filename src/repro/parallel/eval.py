"""Sharded evaluation: bit-identical metrics from a process pool.

The paper's protocol walks test timestamps in order, scoring timestamp
``t`` from history ``< t`` and then revealing ``t``'s facts.  For a
model whose ``observe`` is *record-only and time-indexed* — revealing a
snapshot only extends the history buffer, and prediction at ``t``
consults strictly-earlier snapshots (``RETIA.record_snapshot`` /
``history_before``) — the sequential reveal schedule is equivalent to
pre-recording every test snapshot up front: scoring ``t`` sees exactly
the same history either way.  Evaluation scoring runs in eval mode
under ``no_grad`` and consumes no RNG, so each timestamp's score matrix
is a pure function of ``(parameters, history < t, queries)``.

That makes the protocol embarrassingly shardable with a **bit-exact**
contract:

* the shard plan is *one shard per timestamp*, always — worker counts
  only group contiguous shard runs onto processes;
* each worker pre-records the full test horizon (the snapshot-reveal
  schedule collapsed into the initializer) and scores its timestamps
  with the same :func:`~repro.eval.protocol.score_timestamp` the serial
  driver uses;
* the coordinator folds per-shard :class:`~repro.eval.RankAccumulator`s
  together **in timestamp order**, which replays the serial driver's
  float-accumulation sequence operation for operation (``0.0 + x`` is
  bitwise ``x``, so the merge chain and the serial update chain are the
  same chain).

Raw/static/time settings, diagnostics decompositions and query counts
are therefore bit-identical across worker counts *and* to the serial
functions — asserted by ``tests/test_parallel.py`` and CI's
``parallel-equivalence`` job.

Models whose ``observe`` performs parameter or statistic updates that
are not strictly time-filtered (``OnlineAdapter``'s online continuous
training, count-based baselines) are inherently sequential; sharded
evaluation refuses them loudly rather than silently changing the math.

One cache per process: each worker owns its model replica and that
replica's :class:`~repro.graph.SnapshotCache`; caches are never shared
across processes (see the cache's one-cache-per-process note).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.eval.diagnostics import (
    DiagnosticsAccumulators,
    DiagnosticsReport,
    emit_diagnostic_event,
)
from repro.eval.filters import FilterIndex
from repro.eval.interface import ExtrapolationModel
from repro.eval.metrics import RankAccumulator
from repro.eval.protocol import EvaluationResult, TimestampScores, score_timestamp
from repro.graph import TemporalKG
from repro.obs import tracing
from repro.obs.tracing import TraceContext
from repro.parallel.plan import shard_sequence

#: Per-process worker state, populated by :func:`_init_eval_worker`.
_WORKER_STATE: Dict[str, object] = {}

#: Default ceiling on one shard block's wall-clock.  A SIGKILLed pool
#: worker loses its task without any notification to the parent —
#: ``Pool.map`` would wait forever — so every block result is collected
#: with a timeout and re-raised as a diagnosable :class:`ShardedEvalError`.
DEFAULT_SHARD_TIMEOUT = 300.0


class ShardedEvalError(ValueError):
    """The model or configuration cannot be evaluated in shards."""


def _require_shardable(model: ExtrapolationModel, observe: bool, workers: int) -> None:
    if workers < 1:
        raise ShardedEvalError("workers must be >= 1")
    if workers == 1:
        return
    if observe and not (
        hasattr(model, "record_snapshot") and hasattr(model, "history_before")
    ):
        raise ShardedEvalError(
            f"{type(model).__name__} does not expose a record-only, time-indexed "
            "observe (record_snapshot/history_before); its reveal schedule is "
            "inherently sequential — online continuous training updates "
            "parameters at every revealed timestamp — so sharded evaluation "
            "would change the math. Run with workers=1 instead."
        )


def _scorer_spec(model) -> str:
    """The model's candidate-scorer spec for telemetry.

    The legacy matmul path (no scorer configured) reports as
    ``"dense"`` — it scores every candidate exactly, same contract as
    the seam's dense reference.  ``check_run_health.py`` refuses runs
    that mix distinct specs, so every eval event must carry one.
    """
    scorer = getattr(model, "scorer", None)
    return scorer.spec() if scorer is not None else "dense"


def _pool_context():
    """Prefer fork (cheap, inherits the payload); fall back to spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _shutdown_pool(pool, grace: float = 5.0) -> None:
    """Tear a pool down on the error path without risking a hang.

    ``Pool.terminate()`` can wedge on its internal handler-thread joins
    when workers died abnormally (SIGKILL/OOM — exactly the situations
    that put us on this path), which would turn a diagnosable
    ``ShardedEvalError`` into an indefinite wait.  Run the teardown in a
    daemon thread with a bounded grace period and SIGKILL any surviving
    workers; a wedged teardown is abandoned (``Finalize`` marks itself
    called on entry, so the context-manager exit won't re-run it).
    """
    closer = threading.Thread(target=pool.terminate, daemon=True)
    closer.start()
    closer.join(timeout=grace)
    for proc in list(getattr(pool, "_pool", None) or []):
        if proc.is_alive():
            proc.kill()


def _init_eval_worker(payload: dict) -> None:
    """Install one worker's model replica and collapsed reveal schedule."""
    model = payload["model"]
    if hasattr(model, "_predict_cache"):
        model._predict_cache = None
    for snapshot in payload["reveal"]:
        model.record_snapshot(snapshot)
    _WORKER_STATE.clear()
    _WORKER_STATE.update(payload)


def _score_block(
    block: Tuple[int, List[int]],
) -> Tuple[int, List[TimestampScores], dict]:
    """Score one contiguous run of timestamp shards (one pool task).

    When the coordinator shipped a :class:`TraceContext` in the payload
    (it had a span collector installed), the worker records its own span
    tree — one ``eval_block`` root with a ``score_ts`` child per
    timestamp — and returns it, serialized, in the telemetry record for
    the coordinator to splice.  Without a context the scoring loop pays
    the usual zero-cost no-op path.
    """
    block_index, timestamps = block
    state = _WORKER_STATE
    model = state["model"]
    start = time.perf_counter()
    scored: List[TimestampScores] = []
    queries = 0

    def score_one(ts: int) -> None:
        nonlocal queries
        result = score_timestamp(
            model,
            state["test_graph"].snapshot(int(ts)),
            state["num_relations"],
            setting=state["setting"],
            filter_index=state["filter_index"],
            evaluate_relations=state["evaluate_relations"],
            dedup=state["dedup"],
        )
        if result is not None:
            scored.append(result)
            queries += len(result.entity_ranks)

    trace: Optional[TraceContext] = state.get("trace")
    collector = None
    if trace is not None:
        collector = tracing.SpanCollector(context=trace)
        with tracing.collect_spans(collector):
            with tracing.span("eval_block", block=block_index, timestamps=len(timestamps)):
                for ts in timestamps:
                    with tracing.span("score_ts", ts=int(ts)):
                        score_one(ts)
    else:
        for ts in timestamps:
            score_one(ts)
    telemetry = {
        "worker": block_index,
        "pid": os.getpid(),
        "seconds": time.perf_counter() - start,
        "shards": len(scored),
        "queries": queries,
        "scorer": _scorer_spec(model),
    }
    if collector is not None:
        telemetry["spans"] = collector.serialize_tree()
    return block_index, scored, telemetry


def _score_all(
    model: ExtrapolationModel,
    test_graph: TemporalKG,
    setting: str,
    filter_index: Optional[FilterIndex],
    evaluate_relations: bool,
    observe: bool,
    workers: int,
    dedup: bool,
    shard_timeout: Optional[float] = DEFAULT_SHARD_TIMEOUT,
) -> Tuple[List[TimestampScores], List[dict]]:
    """Score every test timestamp, sharded over ``workers`` processes.

    Returns the per-timestamp scores in chronological order plus one
    telemetry record per worker block.  With ``observe`` the caller's
    model is left with the test horizon recorded, matching the serial
    driver's end state.  ``shard_timeout`` bounds each block's
    wall-clock (``None`` disables); a block that misses it — a killed or
    hung worker — raises :class:`ShardedEvalError` naming the shard and
    its timestamps.
    """
    _require_shardable(model, observe, workers)
    if setting != "raw" and filter_index is None:
        raise ShardedEvalError(
            "filtered settings need a FilterIndex over the full graph"
        )

    timestamps = [int(ts) for ts in test_graph.timestamps]
    parent_collector = tracing.active()

    if workers == 1:
        # Replay the *sequential* reveal schedule, exactly as the serial
        # drivers do — score each timestamp, then reveal it.  This is the
        # path that admits inherently sequential models (online continuous
        # training updates parameters at every reveal); the collapsed
        # schedule below cannot represent them, and `_require_shardable`
        # only refuses them at workers > 1.
        start = time.perf_counter()
        scored = []
        queries = 0

        def _score_one(snapshot):
            return score_timestamp(
                model,
                snapshot,
                test_graph.num_relations,
                setting=setting,
                filter_index=filter_index,
                evaluate_relations=evaluate_relations,
                dedup=dedup,
            )

        def score_serially(instrumented: bool) -> None:
            nonlocal queries
            for ts in timestamps:
                snapshot = test_graph.snapshot(ts)
                if instrumented:
                    with tracing.span("score_ts", ts=int(ts)):
                        result = _score_one(snapshot)
                else:
                    result = _score_one(snapshot)
                if result is not None:
                    scored.append(result)
                    queries += len(result.entity_ranks)
                if observe and len(snapshot.triples):
                    model.observe(snapshot)

        if parent_collector is not None:
            # Record into a private collector carrying the parent's
            # trace identity, then splice — the same shape (one
            # ``eval_block`` root with ``score_ts`` children) the pool
            # workers produce, so the stitched tree is invariant in the
            # worker count.
            collector = tracing.SpanCollector(
                context=TraceContext(
                    trace_id=parent_collector.trace_id,
                    pid=parent_collector.pid,
                    tid=parent_collector.tid,
                )
            )
            with tracing.collect_spans(collector):
                with tracing.span(
                    "eval_block", block=0, timestamps=len(timestamps)
                ):
                    score_serially(True)
            parent_collector.splice(collector.serialize_tree())
        else:
            score_serially(False)
        telemetry = [
            {
                "worker": 0,
                "pid": os.getpid(),
                "seconds": time.perf_counter() - start,
                "shards": len(scored),
                "queries": queries,
                "scorer": _scorer_spec(model),
            }
        ]
        return scored, telemetry

    reveal = (
        [
            test_graph.snapshot(ts)
            for ts in timestamps
            if len(test_graph.snapshot(ts).triples)
        ]
        if observe
        else []
    )
    payload = {
        "model": model,
        "test_graph": test_graph,
        "num_relations": test_graph.num_relations,
        "setting": setting,
        "filter_index": filter_index,
        "evaluate_relations": evaluate_relations,
        "dedup": dedup,
        "reveal": reveal,
        # Workers only collect spans when the coordinator is tracing —
        # the zero-cost contract crosses the process boundary too.
        "trace": (
            None
            if parent_collector is None
            else TraceContext(
                trace_id=parent_collector.trace_id,
                pid=parent_collector.pid,
                tid=parent_collector.tid,
            )
        ),
    }
    blocks = [
        (index, block)
        for index, block in enumerate(shard_sequence(timestamps, workers))
    ]

    ctx = _pool_context()
    with ctx.Pool(
        processes=workers, initializer=_init_eval_worker, initargs=(payload,)
    ) as pool:
        # One async task per block, each collected with a timeout: a
        # worker that died (OOM-killed, SIGKILL) silently loses its task
        # — ``pool.map`` would block forever — and a hung worker should
        # surface as a named shard, not an indefinite wait.
        pending = [
            (index, block, pool.apply_async(_score_block, ((index, block),)))
            for index, block in blocks
        ]
        results = []
        for index, block, async_result in pending:
            try:
                results.append(async_result.get(timeout=shard_timeout))
            except multiprocessing.TimeoutError:
                _shutdown_pool(pool)
                raise ShardedEvalError(
                    f"shard block {index} (timestamps {block[:4]}"
                    f"{'...' if len(block) > 4 else ''}) produced no result "
                    f"within {shard_timeout:g}s — a pool worker likely died "
                    "(killed/OOM) or hung; its task is lost silently, so the "
                    "block is unrecoverable. Rerun with workers=1 to "
                    "localise, or raise shard_timeout for slow hardware."
                ) from None
            except ShardedEvalError:
                raise
            except Exception as exc:
                _shutdown_pool(pool)
                raise ShardedEvalError(
                    f"shard block {index} (timestamps {block[:4]}"
                    f"{'...' if len(block) > 4 else ''}) failed in a pool "
                    f"worker: {type(exc).__name__}: {exc}"
                ) from exc
    # Leave the caller's model in the serial driver's end state: the
    # test horizon revealed (workers recorded it only in their own
    # replicas).
    for snapshot in reveal:
        model.record_snapshot(snapshot)

    results.sort(key=lambda item: item[0])
    scored = [entry for _, block_scored, _ in results for entry in block_scored]
    telemetry = [worker_stats for _, _, worker_stats in results]
    # Stitch the worker span trees under the coordinator's trace, in
    # block-index order — deterministic regardless of completion order.
    for worker_stats in telemetry:
        tree = worker_stats.pop("spans", None)
        if parent_collector is not None and tree:
            parent_collector.splice(tree)
    return scored, telemetry


def _emit_worker_telemetry(telemetry: Sequence[dict], reporter=None, registry=None) -> None:
    for stats in telemetry:
        if reporter is not None:
            extra = {}
            if "scorer" in stats:
                # Recorded so check_run_health.py can refuse comparisons
                # that mix candidate-scorer strategies.
                extra["scorer"] = stats["scorer"]
            reporter.emit(
                "worker",
                scope="eval",
                worker=stats["worker"],
                shards=stats["shards"],
                seconds=stats["seconds"],
                pid=stats.get("pid"),
                queries=stats.get("queries"),
                **extra,
            )
        if registry is not None:
            labels = {"scope": "eval", "worker": str(stats["worker"])}
            registry.counter(
                "parallel_worker_shards_total",
                help="shards processed per parallel worker",
            ).inc(stats["shards"], **labels)
            registry.gauge(
                "parallel_worker_seconds",
                help="wall-clock seconds spent per parallel worker",
            ).set(stats["seconds"], **labels)


def evaluate_extrapolation_sharded(
    model: ExtrapolationModel,
    test_graph: TemporalKG,
    setting: str = "raw",
    filter_index: Optional[FilterIndex] = None,
    evaluate_relations: bool = True,
    observe: bool = True,
    workers: int = 1,
    reporter=None,
    registry=None,
    shard_timeout: Optional[float] = DEFAULT_SHARD_TIMEOUT,
) -> EvaluationResult:
    """:func:`~repro.eval.evaluate_extrapolation`, sharded over processes.

    Bit-identical to the serial driver for every worker count (see the
    module docstring for why).  ``reporter``/``registry`` receive one
    ``worker`` event / metric series per worker block.  A worker that
    dies or hangs past ``shard_timeout`` raises
    :class:`ShardedEvalError` naming the shard and its timestamps.
    """
    scored, telemetry = _score_all(
        model,
        test_graph,
        setting,
        filter_index,
        evaluate_relations,
        observe,
        workers,
        dedup=True,
        shard_timeout=shard_timeout,
    )
    entity_acc = RankAccumulator()
    relation_acc = RankAccumulator()
    for entry in scored:
        shard_entity = RankAccumulator()
        shard_entity.update(entry.entity_ranks)
        entity_acc.merge(shard_entity)
        if entry.relation_ranks is not None:
            shard_relation = RankAccumulator()
            shard_relation.update(entry.relation_ranks)
            relation_acc.merge(shard_relation)
    _emit_worker_telemetry(telemetry, reporter=reporter, registry=registry)
    return EvaluationResult(entity=entity_acc.summary(), relation=relation_acc.summary())


def diagnose_extrapolation_sharded(
    model: ExtrapolationModel,
    test_graph: TemporalKG,
    setting: str = "raw",
    filter_index: Optional[FilterIndex] = None,
    observe: bool = True,
    known_entities: Optional[Set[int]] = None,
    evaluate_relations: bool = True,
    workers: int = 1,
    reporter=None,
    registry=None,
    shard_timeout: Optional[float] = DEFAULT_SHARD_TIMEOUT,
) -> DiagnosticsReport:
    """:func:`~repro.eval.diagnose_extrapolation`, sharded over processes.

    Workers ship per-timestamp rank arrays plus their grouping keys back
    to the coordinator, which replays the diagnostic accumulator updates
    in timestamp order — the decomposition (per-relation /
    per-timestamp / seen-unseen, histograms included) is bit-identical
    to the serial function for every worker count.
    """
    scored, telemetry = _score_all(
        model,
        test_graph,
        setting,
        filter_index,
        evaluate_relations,
        observe,
        workers,
        dedup=False,
        shard_timeout=shard_timeout,
    )
    accumulators = DiagnosticsAccumulators(known_entities, test_graph.num_entities)
    for entry in scored:
        accumulators.update(entry)
    report = accumulators.report(setting, evaluate_relations)
    _emit_worker_telemetry(telemetry, reporter=reporter, registry=registry)
    if reporter is not None:
        emit_diagnostic_event(reporter, report, scorer=_scorer_spec(model))
    return report
