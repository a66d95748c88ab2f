"""Open-loop synthetic traffic for the serving layer.

:func:`run_loadgen` drives a started :class:`~repro.serve.ModelServer`
with Poisson arrivals (open loop: the arrival schedule is fixed up
front from a seeded RNG, so a slow server faces a growing queue instead
of a politely backing-off client) over a mixed workload — ``score`` and
``topk`` queries against the dataset vocabulary plus periodic
``ingest`` of revealed test snapshots.  :func:`summarize_responses`
reduces the responses to the serving SLO quantities: p50/p99 latency,
achieved QPS, shed rate and **availability** (OK responses over non-shed
requests — the number the CI ``serve-chaos`` job gates at 99%).

The ``serve`` series of the perf registry (:mod:`repro.bench.measure`)
wraps the whole drill — model build, server boot, optional
:func:`default_chaos_plan`, loadgen, drain — and gates on the mean
OK-query latency (the p50/p99 SLO figures are too noisy as order
statistics of ~100 samples to gate on).
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import tracing
from repro.obs.tracing import TraceContext
from repro.serve.server import (
    STATUS_DEADLINE,
    STATUS_ERROR,
    STATUS_INVALID,
    STATUS_OK,
    STATUS_UNAVAILABLE,
    ModelServer,
    ServeResponse,
)
from repro.utils import seeded_rng


@dataclass(frozen=True)
class LoadgenConfig:
    """Shape of the synthetic open-loop workload."""

    requests: int = 160
    qps: float = 400.0
    #: every n-th arrival is an ingest of the next revealed snapshot.
    ingest_every: int = 8
    #: every n-th query is a topk (the rest are full score requests).
    topk_every: int = 3
    queries_per_request: int = 4
    deadline_ms: float = 500.0
    workers: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if self.qps <= 0:
            raise ValueError("qps must be > 0")


def build_plans(
    num_entities: int,
    num_relations: int,
    ingest_count: int,
    config: LoadgenConfig = LoadgenConfig(),
) -> Tuple[np.ndarray, List[tuple]]:
    """Arrival offsets plus the per-request plan list, fully seeded.

    Ingest plans carry the *cursor index* into the caller's snapshot
    list — ``("ingest", 3)`` — not the snapshot itself, so a plan is
    small and picklable and can be built in another process
    (:func:`build_plans_traced`).  The RNG draw order is part of the
    contract: gaps first, then per-request query draws, identical to
    what :func:`run_loadgen` historically produced, so schedules are
    stable across this refactor for a fixed seed.
    """
    rng = seeded_rng(config.seed)
    gaps = rng.exponential(1.0 / config.qps, size=config.requests)
    arrivals = np.cumsum(gaps)
    plans: List[tuple] = []
    ingest_cursor = 0
    for i in range(config.requests):
        if (
            config.ingest_every > 0
            and i % config.ingest_every == config.ingest_every - 1
            and ingest_cursor < ingest_count
        ):
            plans.append(("ingest", ingest_cursor))
            ingest_cursor += 1
        elif config.topk_every > 0 and i % config.topk_every == config.topk_every - 1:
            plans.append(
                (
                    "topk",
                    (
                        int(rng.integers(0, num_entities)),
                        int(rng.integers(0, num_relations)),
                    ),
                )
            )
        else:
            queries = np.stack(
                [
                    rng.integers(0, num_entities, size=config.queries_per_request),
                    rng.integers(0, num_relations, size=config.queries_per_request),
                ],
                axis=1,
            ).astype(np.int64)
            plans.append(("score", queries))
    return arrivals, plans


def _plan_in_child(conn, num_entities, num_relations, ingest_count, config, ctx):
    """Child-process planner: build the plans under a stitched trace.

    Runs in a forked/spawned process; installs a collector continuing
    the parent's trace (``ctx``), builds the plans inside nested spans,
    and ships ``(arrivals, plans, serialized span tree)`` back through
    the pipe.  ``time.perf_counter`` is CLOCK_MONOTONIC on Linux and
    shared across processes, so the child's timestamps land on the
    parent's timeline directly.
    """
    try:
        collector = tracing.SpanCollector(context=TraceContext.from_dict(ctx))
        with tracing.collect_spans(collector):
            with tracing.span(
                "plan_load", requests=config.requests, seed=config.seed
            ):
                with tracing.span("draw_plans"):
                    arrivals, plans = build_plans(
                        num_entities, num_relations, ingest_count, config
                    )
        conn.send((arrivals, plans, collector.serialize_tree()))
    except BaseException as exc:  # the parent falls back in-process
        conn.send(exc)
    finally:
        conn.close()


def build_plans_traced(
    num_entities: int,
    num_relations: int,
    ingest_count: int,
    config: LoadgenConfig = LoadgenConfig(),
    context: Optional[TraceContext] = None,
    timeout_s: float = 30.0,
) -> Tuple[np.ndarray, List[tuple], Optional[dict]]:
    """:func:`build_plans` in a child process, returning its span tree.

    Exists so a ``--trace-out`` drill has spans from a genuinely
    distinct pid to stitch.  Fork is preferred (cheap, inherits the
    import state); if the child fails or misses ``timeout_s`` the plans
    are rebuilt in-process (identical by seed) and the tree is ``None``.
    """
    if context is None:
        active = tracing.active()
        if active is not None:
            context = TraceContext(
                trace_id=active.trace_id, pid=active.pid, tid=active.tid
            )
    try:
        methods = multiprocessing.get_all_start_methods()
        mp = multiprocessing.get_context(
            "fork" if "fork" in methods else methods[0]
        )
        parent_conn, child_conn = mp.Pipe(duplex=False)
        ctx_dict = context.to_dict() if context is not None else None
        proc = mp.Process(
            target=_plan_in_child,
            args=(
                child_conn,
                num_entities,
                num_relations,
                ingest_count,
                config,
                ctx_dict or TraceContext(trace_id="untraced").to_dict(),
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        payload = None
        if parent_conn.poll(timeout_s):
            payload = parent_conn.recv()
        parent_conn.close()
        proc.join(timeout=5.0)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)
        if isinstance(payload, tuple):
            arrivals, plans, tree = payload
            return arrivals, plans, tree if context is not None else None
    except (OSError, EOFError, multiprocessing.ProcessError):
        pass
    arrivals, plans = build_plans(num_entities, num_relations, ingest_count, config)
    return arrivals, plans, None


def run_loadgen(
    server: ModelServer,
    num_entities: int,
    num_relations: int,
    ingest_snapshots: Sequence = (),
    config: LoadgenConfig = LoadgenConfig(),
    prebuilt: Optional[Tuple[np.ndarray, List[tuple]]] = None,
) -> List[ServeResponse]:
    """Fire the open-loop workload; returns every response, arrival order.

    Arrival offsets are a Poisson process (exponential inter-arrival
    gaps) from a seeded RNG — the schedule, the query ids and the
    query/ingest/topk mix are all deterministic in ``config.seed``.
    ``prebuilt`` short-circuits planning with an ``(arrivals, plans)``
    pair from :func:`build_plans` / :func:`build_plans_traced`; ingest
    plan indices resolve against ``ingest_snapshots`` at fire time.
    """
    if prebuilt is not None:
        arrivals, plans = prebuilt
    else:
        arrivals, plans = build_plans(
            num_entities, num_relations, len(ingest_snapshots), config
        )

    def fire(plan) -> ServeResponse:
        kind, payload = plan
        if kind == "ingest":
            return server.ingest(ingest_snapshots[payload])
        if kind == "topk":
            subject, relation = payload
            return server.topk(
                subject, relation, k=10, deadline_ms=config.deadline_ms
            )
        return server.score(payload, deadline_ms=config.deadline_ms)

    responses: List[Optional[ServeResponse]] = [None] * config.requests
    with ThreadPoolExecutor(max_workers=config.workers) as executor:
        t0 = time.monotonic()
        futures = []
        for i, offset in enumerate(arrivals):
            delay = t0 + offset - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            futures.append(executor.submit(fire, plans[i]))
        for i, future in enumerate(futures):
            responses[i] = future.result()
    return responses


def summarize_responses(
    responses: Sequence[ServeResponse], wall_seconds: float
) -> Dict:
    """SLO summary: latency percentiles, QPS, shed rate, availability."""
    total = len(responses)
    by_status: Dict[int, int] = {}
    for r in responses:
        by_status[r.status] = by_status.get(r.status, 0) + 1
    ok = by_status.get(STATUS_OK, 0)
    shed = by_status.get(STATUS_UNAVAILABLE, 0)
    non_shed = max(1, total - shed)
    query_latencies = sorted(
        r.latency_ms / 1000.0
        for r in responses
        if r.kind in ("score", "topk") and r.status == STATUS_OK
    )
    if query_latencies:
        p50 = float(np.percentile(query_latencies, 50))
        p99 = float(np.percentile(query_latencies, 99))
        mean_latency = float(np.mean(query_latencies))
    else:
        p50 = p99 = mean_latency = float("nan")
    return {
        "requests": total,
        "ok": ok,
        "shed": shed,
        "deadline_exceeded": by_status.get(STATUS_DEADLINE, 0),
        "errors": by_status.get(STATUS_ERROR, 0),
        "invalid": by_status.get(STATUS_INVALID, 0),
        "availability": ok / non_shed,
        "shed_rate": shed / max(1, total),
        "qps": total / wall_seconds if wall_seconds > 0 else float("nan"),
        "serve_p50_seconds": p50,
        "serve_p99_seconds": p99,
        # Mean OK-query latency: the bench gate's figure (stable,
        # compute-dominated, unlike the order statistics above).
        "serve_mean_seconds": mean_latency,
        "max_staleness": max((r.staleness for r in responses), default=0),
    }


def default_chaos_plan():
    """The all-injectors-on fault plan the CI ``serve-chaos`` job runs.

    Sized so the drill exercises every rung of the ladder without
    tanking the availability gate: three refresh failures defeat one
    whole retry cycle (degrade-to-stale), three consecutive poisoned
    ingests trip the breaker (threshold 3) whose recovery window is
    shorter than the drill (half-open recovery happens *during* it),
    stalls are an order of magnitude below the deadline, and the skew is
    well inside the remaining budget.
    """
    from repro.resilience import ServeFaultInjector

    return ServeFaultInjector(
        refresh_fail_at=(0, 1, 2),
        poison_ingest_at=(1, 2, 3),
        slow_batch_every=5,
        slow_batch_seconds=0.02,
        skew_every=10,
        skew_seconds=0.05,
    )
