"""Open-loop synthetic traffic for the serving layer, and the one serve drill.

:func:`run_loadgen` drives a started :class:`~repro.serve.ModelServer`
with Poisson arrivals (open loop: the arrival schedule is fixed up
front from a seeded RNG, so a slow server faces a growing queue instead
of a politely backing-off client) over a mixed workload — ``score`` and
``topk`` queries against the dataset vocabulary plus periodic
``ingest`` of revealed test snapshots.  :func:`summarize_responses`
reduces the responses to p50/p99 latency, achieved QPS, shed rate and
**availability** (OK responses over non-shed requests — the number the
CI ``serve-chaos`` job gates at 99%, recomputed from the run report's
``request`` events by ``scripts/check_run_health.py``).

:func:`run_drill` is the whole drill — server boot with the drill's one
:class:`~repro.serve.ServeConfig` and online adapter, loadgen, optional
:func:`default_chaos_plan` with its half-open recovery probe, drain.
``repro.cli serve`` runs it.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import TrainerConfig
from repro.core.trainer import OnlineAdapter
from repro.obs import RunReporter
from repro.obs.tracing import Span, SpanCollector
from repro.resilience import ServeFaultInjector
from repro.serve.server import (
    STATUS_DEADLINE,
    STATUS_ERROR,
    STATUS_INVALID,
    STATUS_OK,
    STATUS_UNAVAILABLE,
    ModelServer,
    ServeConfig,
    ServeResponse,
)
from repro.utils import seeded_rng

#: Every n-th arrival is an ingest of the next revealed snapshot.
INGEST_EVERY = 8
#: Every n-th query is a topk (the rest are full score requests).
TOPK_EVERY = 3
#: ``(s, r)`` rows per score request.
QUERIES_PER_REQUEST = 4
#: Threads firing the arrivals (open loop: a slow reply holds one thread).
WORKERS = 16


@dataclass(frozen=True)
class LoadgenConfig:
    """Size, rate, deadline and seed of the synthetic open-loop workload."""

    requests: int = 160
    qps: float = 400.0
    deadline_ms: float = 500.0
    seed: int = 0

    def __post_init__(self):
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if not self.qps > 0:
            raise ValueError("qps must be > 0")
        if not self.deadline_ms > 0:
            raise ValueError("deadline_ms must be > 0")
        if not math.isfinite(self.deadline_ms):
            raise ValueError("deadline_ms must be finite")


def build_plans(
    num_entities: int,
    num_relations: int,
    ingest_count: int,
    config: LoadgenConfig = LoadgenConfig(),
) -> Tuple[np.ndarray, List[tuple]]:
    """Arrival offsets plus the per-request plan list, fully seeded.

    Ingest plans carry the *cursor index* into the caller's snapshot
    list — ``("ingest", 3)`` — not the snapshot itself; it resolves at
    fire time.  The RNG draw order is part of the contract: gaps first,
    then per-request query draws, so a fixed seed always yields the
    same schedule.
    """
    rng = seeded_rng(config.seed)
    gaps = rng.exponential(1.0 / config.qps, size=config.requests)
    arrivals = np.cumsum(gaps)
    plans: List[tuple] = []
    ingest_cursor = 0
    for i in range(config.requests):
        if i % INGEST_EVERY == INGEST_EVERY - 1 and ingest_cursor < ingest_count:
            plans.append(("ingest", ingest_cursor))
            ingest_cursor += 1
        elif i % TOPK_EVERY == TOPK_EVERY - 1:
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
                    rng.integers(0, num_entities, size=QUERIES_PER_REQUEST),
                    rng.integers(0, num_relations, size=QUERIES_PER_REQUEST),
                ],
                axis=1,
            ).astype(np.int64)
            plans.append(("score", queries))
    return arrivals, plans


def run_loadgen(
    server: ModelServer,
    num_entities: int,
    num_relations: int,
    ingest_snapshots: Sequence = (),
    config: LoadgenConfig = LoadgenConfig(),
) -> List[ServeResponse]:
    """Fire the open-loop workload; returns every response, arrival order.

    Arrival offsets are a Poisson process (exponential inter-arrival
    gaps) from a seeded RNG — the schedule, the query ids and the
    query/ingest/topk mix are all deterministic in ``config.seed``
    (:func:`build_plans`); ingest plan indices resolve against
    ``ingest_snapshots`` at fire time.  With a trace collector on the
    server, planning is recorded as one ``plan_load`` span under its
    ``trace_root``.
    """
    start = time.perf_counter()
    arrivals, plans = build_plans(
        num_entities, num_relations, len(ingest_snapshots), config
    )
    end = time.perf_counter()
    collector = server.trace_collector
    if collector is not None:
        collector.record(
            "plan_load",
            start,
            end,
            parent=server.trace_root,
            meta={"requests": config.requests, "seed": config.seed},
            tid=threading.get_native_id(),
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
    with ThreadPoolExecutor(max_workers=WORKERS) as executor:
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
    """Drill summary: latency percentiles, QPS, shed rate, availability."""
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
    else:
        p50 = p99 = float("nan")
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
    return ServeFaultInjector(
        refresh_fail_at=(0, 1, 2),
        poison_ingest_at=(1, 2, 3),
        slow_batch_every=5,
        slow_batch_seconds=0.02,
        skew_every=10,
        skew_seconds=0.05,
    )


@dataclass
class DrillResult:
    """What :func:`run_drill` leaves behind; the server is already drained."""

    responses: List[ServeResponse]
    #: :func:`summarize_responses` of ``responses`` (None when there are none).
    summary: Optional[Dict]
    wall_s: float
    clean: bool
    server: ModelServer


def run_drill(
    model,
    dataset,
    load: LoadgenConfig = LoadgenConfig(),
    *,
    chaos: bool = False,
    fault_injector: Optional[ServeFaultInjector] = None,
    run_report: Optional[str] = None,
    trace_collector: Optional[SpanCollector] = None,
    trace_root: Optional[Span] = None,
    stop: Optional[Callable[[], bool]] = None,
) -> DrillResult:
    """Serve ``dataset``'s test split from ``model`` under the ``load`` drill.

    The server runs the drill's one :class:`ServeConfig` (deadline and
    seed from ``load``) with an :class:`OnlineAdapter` taking one online
    step per ingest, starts at the first test timestamp and takes the
    open-loop loadgen (ingests reveal the test snapshots in order).
    ``chaos`` arms :func:`default_chaos_plan` in place of
    ``fault_injector``, then probes the breaker's half-open recovery.
    ``stop`` is polled while the loadgen runs; once it returns True the
    server drains at once (new requests are shed as ``draining``; queued
    ones are still decoded).  The drain and the run report's close run
    in a ``finally``, so a failed boot or loadgen leaks no worker
    thread.
    """
    if chaos and fault_injector is not None:
        raise ValueError("chaos arms its own fault plan; pass no fault_injector")
    config = ServeConfig(
        max_batch=32,
        max_queue=128,
        batch_wait_ms=1.0,
        default_deadline_ms=load.deadline_ms,
        refresh_attempts=3,
        refresh_backoff_ms=5.0,
        breaker_failure_threshold=3,
        # Chaos holds the breaker open longer, so the bad-ingest burst
        # is unmistakable before the half-open probe closes it.
        breaker_recovery_ms=200.0 if chaos else 50.0,
        seed=load.seed,
    )
    adapter = OnlineAdapter(model, TrainerConfig(online_steps=1, online_lr=1e-3, seed=load.seed))
    reporter = RunReporter(run_report) if run_report else None
    server = ModelServer(
        model,
        adapter=adapter,
        config=config,
        reporter=reporter,
        fault_injector=default_chaos_plan() if chaos else fault_injector,
    )
    server.trace_collector, server.trace_root = trace_collector, trace_root
    test_times = [int(t) for t in dataset.test.timestamps]
    snapshots = [dataset.test.snapshot(t) for t in test_times]
    clean = None
    try:
        server.start(ts=test_times[0])
        start = time.perf_counter()
        with ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-loadgen"
        ) as executor:
            loadgen = executor.submit(
                run_loadgen,
                server,
                dataset.num_entities,
                dataset.num_relations,
                snapshots,
                load,
            )
            while wait([loadgen], timeout=0.05).not_done:
                if clean is None and stop is not None and stop():
                    clean = server.drain()
            responses = loadgen.result()
        if chaos and clean is None:
            # Deterministic half-open recovery probe: wait out the
            # recovery window, then one clean ingest drives
            # open -> half-open -> closed.
            time.sleep(config.breaker_recovery_ms / 1000.0 + 0.01)
            server.ingest(snapshots[-1])
        wall_s = time.perf_counter() - start
    finally:
        if clean is None:
            clean = server.drain()
        if reporter is not None:
            reporter.close()
    summary = summarize_responses(responses, wall_s) if responses else None
    return DrillResult(responses, summary, wall_s, clean, server)
