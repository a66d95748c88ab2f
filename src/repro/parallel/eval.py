"""Sharded evaluation: the process pool behind ``workers > 1``.

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
  with the same :func:`~repro.eval.protocol.score_block` loop the
  in-process path runs;
* :func:`~repro.eval.protocol.run_protocol` folds the returned
  :class:`~repro.eval.TimestampScores` **in timestamp order** with the
  same accumulator updates as at ``workers == 1``, so the
  float-accumulation sequence is the same operation for operation.

Raw/static/time settings, diagnostics decompositions and query counts
are therefore bit-identical across worker counts — asserted by
``tests/test_parallel.py`` and CI's ``parallel-equivalence`` job.

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
import threading
from typing import Dict, List, Optional, Tuple

from repro.eval.interface import ExtrapolationModel
from repro.eval.protocol import TimestampScores, score_block
from repro.graph import TemporalKG
from repro.obs.tracing import TraceContext
from repro.parallel.plan import shard_sequence

#: Per-process worker state, populated by :func:`_init_eval_worker`.
_WORKER_STATE: Dict[str, object] = {}


class ShardedEvalError(ValueError):
    """The model or configuration cannot be evaluated in shards."""


def _require_shardable(model: ExtrapolationModel, observe: bool, workers: int) -> None:
    if workers < 1:
        raise ShardedEvalError("workers must be >= 1")
    if observe and not (hasattr(model, "record_snapshot") and hasattr(model, "history_before")):
        raise ShardedEvalError(
            f"{type(model).__name__} does not expose a record-only, time-indexed "
            "observe (record_snapshot/history_before); its reveal schedule is "
            "inherently sequential — online continuous training updates "
            "parameters at every revealed timestamp — so sharded evaluation "
            "would change the math. Run with workers=1 instead."
        )


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

    The worker's replica already holds the whole test horizon, so the
    block reveals nothing.  When the coordinator shipped a
    :class:`TraceContext` (it had a span collector installed), the
    returned telemetry carries the block's serialized span tree.
    """
    block_index, timestamps = block
    state = _WORKER_STATE
    scored: List[TimestampScores] = []
    telemetry = score_block(
        state["model"],
        state["test_graph"],
        timestamps,
        scored.append,
        block=block_index,
        trace=state["trace"],
        observe=False,
        **state["options"],
    )
    return block_index, scored, telemetry


def score_sharded(
    model: ExtrapolationModel,
    test_graph: TemporalKG,
    *,
    workers: int,
    shard_timeout: Optional[float],
    trace: Optional[TraceContext],
    observe: bool,
    **options,
) -> Tuple[List[TimestampScores], List[dict]]:
    """Score every test timestamp, sharded over ``workers`` processes.

    Returns the per-timestamp scores in chronological order plus one
    telemetry record per worker block, in block order (each carrying its
    span tree under ``"spans"`` when ``trace`` is set).  ``options`` are
    :func:`~repro.eval.protocol.score_block`'s scoring keywords.  With
    ``observe`` the caller's model is left with the test horizon
    recorded, as the in-process loop leaves it.  ``shard_timeout``
    bounds each block's wall-clock (``None`` disables); a block that
    misses it — a killed or hung worker — raises
    :class:`ShardedEvalError` naming the shard and its timestamps.
    """
    _require_shardable(model, observe, workers)
    timestamps = [int(ts) for ts in test_graph.timestamps]

    reveal = (
        [test_graph.snapshot(ts) for ts in timestamps if len(test_graph.snapshot(ts).triples)]
        if observe
        else []
    )
    payload = {
        "model": model,
        "test_graph": test_graph,
        "options": options,
        "reveal": reveal,
        # Workers only collect spans when the coordinator is tracing —
        # the zero-cost contract crosses the process boundary too.
        "trace": trace,
    }
    blocks = list(enumerate(shard_sequence(timestamps, workers)))

    ctx = _pool_context()
    with ctx.Pool(processes=workers, initializer=_init_eval_worker, initargs=(payload,)) as pool:
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
    # Leave the caller's model in the in-process loop's end state: the
    # test horizon revealed (workers recorded it only in their own
    # replicas).
    for snapshot in reveal:
        model.record_snapshot(snapshot)

    results.sort(key=lambda item: item[0])
    scored = [entry for _, block_scored, _ in results for entry in block_scored]
    return scored, [telemetry for _, _, telemetry in results]
