"""Open-loop synthetic traffic for the serving layer, and the one serve drill.

:func:`run_loadgen` drives a started :class:`~repro.serve.ModelServer`
with Poisson arrivals (open loop: the arrival schedule is fixed up
front from a seeded RNG, so a slow server faces a growing queue instead
of a politely backing-off client) over a mixed workload — ``score`` and
``topk`` queries against the dataset vocabulary plus periodic
``ingest`` of revealed test snapshots.  :func:`summarize_responses`
reduces the responses to the serving SLO quantities: p50/p99 latency,
achieved QPS, shed rate and **availability** (OK responses over non-shed
requests — the number the CI ``serve-chaos`` job gates at 99%).

:func:`run_drill` is the whole drill — server boot with the drill's one
:class:`~repro.serve.ServeConfig` and online adapter, loadgen, optional
:func:`default_chaos_plan` with its half-open recovery probe, drain.
``repro.cli serve`` runs it.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import TrainerConfig
from repro.core.trainer import OnlineAdapter
from repro.obs import RunReporter, TelemetrySink, tracing
from repro.obs.tracing import Span, SpanCollector, TraceContext
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
        # Mean OK-query latency: stable and compute-dominated, unlike
        # the order statistics above.
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
    telemetry_dir: Optional[str] = None,
    trace_collector: Optional[SpanCollector] = None,
    trace_root: Optional[Span] = None,
    prebuilt: Optional[Tuple[np.ndarray, List[tuple]]] = None,
    stop: Optional[Callable[[], bool]] = None,
) -> DrillResult:
    """Serve ``dataset``'s test split from ``model`` under the ``load`` drill.

    The server runs the drill's one :class:`ServeConfig` (deadline and
    seed from ``load``) with an :class:`OnlineAdapter` taking one online
    step per ingest, starts at the first test timestamp and takes the
    open-loop loadgen (``prebuilt`` plans when given; ingests reveal the
    test snapshots in order).  ``chaos`` arms :func:`default_chaos_plan`
    in place of ``fault_injector``, then probes the breaker's half-open
    recovery and waits for firing alerts to resolve.  ``stop`` is polled
    while the loadgen runs; once it returns True the server drains at
    once (queued requests are shed as ``draining``).  The drain, the
    telemetry sink's final write and the run report's close run in a
    ``finally``, so a failed boot or loadgen leaks no worker thread.
    """
    if chaos and fault_injector is not None:
        raise ValueError("chaos arms its own fault plan; pass no fault_injector")
    # Chaos drills compress the SLO burn windows so the availability
    # alert fires *and* resolves inside a ~1s CI run, and hold the
    # breaker open longer so the bad-request burst is unmistakable.
    slo_overrides = (
        dict(
            breaker_recovery_ms=200.0,
            slo_fast_window_s=0.5,
            slo_slow_window_s=2.0,
            slo_fast_burn=1.0,
            slo_slow_burn=1.0,
        )
        if chaos
        else dict(breaker_recovery_ms=50.0)
    )
    config = ServeConfig(
        max_batch=32,
        max_queue=128,
        batch_wait_ms=1.0,
        default_deadline_ms=load.deadline_ms,
        refresh_attempts=3,
        refresh_backoff_ms=5.0,
        breaker_failure_threshold=3,
        seed=load.seed,
        **slo_overrides,
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
    sink = None
    try:
        server.start(ts=test_times[0])
        if telemetry_dir:
            sink = TelemetrySink(telemetry_dir, server.registry, slo_state=server.slo_state)
            sink.start()
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
                prebuilt,
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
            # Let the compressed burn windows decay so any firing alert
            # resolves *naturally* (traffic stopped, burn rates fall)
            # rather than by the drain's force-resolve.
            deadline = time.monotonic() + 3.0
            while time.monotonic() < deadline:
                if not any(s["firing"] for s in server.check_slos().values()):
                    break
                time.sleep(0.05)
        wall_s = time.perf_counter() - start
    finally:
        if clean is None:
            clean = server.drain()
        if sink is not None:
            sink.stop(final_write=True)
        if reporter is not None:
            reporter.close()
    summary = summarize_responses(responses, wall_s) if responses else None
    return DrillResult(responses, summary, wall_s, clean, server)
