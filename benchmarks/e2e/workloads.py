"""The four workloads of the end-to-end RETIA benchmark.

Each workload sets itself up several times (set-up time is reported as
the median), then repeats one user-visible operation -- a training
epoch, an evaluation pass over the test split, or a served request --
until its time budget is spent, and checks every operation's output.
Sizes are arguments so the self-tests can shrink them; ``run.py`` always
uses the defaults.

The benchmark seed sets the model's initialisation and dropout streams,
the trainer's batch order and the serving clients' request streams.
The graphs always come from their registry generator seeds: with the
generator seed free, split sizes vary by 15-33 % between seeds (the wide
graph's test split has 2 or 3 timestamps), which swamps every bound the
benchmark sets on run-to-run spread.

With ``trace=True`` operations alternate between untraced and traced
under :class:`layertrace.LayerTracer`; the ratio of the two groups'
median operation times is ``trace.overhead``.

The model configuration is pinned here rather than imported from the
bench harness in ``src/``, so the harness can change without moving the
benchmark.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from layertrace import LayerTracer
from repro.core import RETIA, RETIAConfig, Trainer, TrainerConfig
from repro.core.trainer import OnlineAdapter
from repro.datasets import SyntheticTKGConfig, TKGDataset, generate_tkg, load_dataset
from repro.datasets.registry import DATASET_PROFILES
from repro.eval import evaluate_extrapolation
from repro.graph import Snapshot
from repro.serve import STATUS_OK, ModelServer, ServeConfig

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: The registry surrogate of the train, eval-online and serve workloads.
DATASET = "ICEWS14"

#: Epochs whose losses (and the test MRR after them) are compared with
#: the seed-0 reference; later epochs depend on machine speed.
CHECK_EPOCHS = 3

#: serve-mixed traffic: closed-loop clients (the host's core count), every
#: TOPK_EVERY-th request a top-K query, the others QUERIES-row scores.
CLIENTS = 2
TOPK_EVERY = 3
TOPK_K = 10
QUERIES = 4

#: Length of each untraced or traced phase of a traced serving run.
TRACE_PHASE_S = 1.0

#: Per-layer metrics only the serving workload has (0 elsewhere).
SERVE_LAYER_METRICS = (
    "serve.batcher.queue_wait_ms",
    "serve.batcher.batch_size",
    "serve.server.lock_hold_ms",
)

#: A synthetic graph with ICEWS18's Table V vocabulary (23,033 entities,
#: 256 relations) and the ICEWS18 profile's dynamics and generator seed.
WIDE_GRAPH = dict(
    num_entities=23033,
    num_relations=256,
    num_timestamps=30,
    events_per_step=80,
    num_communities=40,
    base_pool_size=800,
    recurrence=0.4,
    mean_period=3.5,
    chain_relation_fraction=0.7,
    chain_probability=0.6,
    noise_fraction=0.12,
    objects_per_fact=8,
    object_jitter=0.18,
    object_drift=0.1,
)


def model_config(graph, seed: int) -> RETIAConfig:
    """The one configuration every workload runs (fused, batched defaults)."""
    return RETIAConfig(
        num_entities=graph.num_entities,
        num_relations=graph.num_relations,
        dim=20,
        history_length=3,
        num_kernels=10,
        dtype="float32",
        seed=seed,
    )


def serve_config(seed: int) -> ServeConfig:
    """The serving configuration of ``repro.cli serve`` at its default deadline."""
    return ServeConfig(
        max_batch=32,
        max_queue=128,
        batch_wait_ms=1.0,
        default_deadline_ms=500.0,
        refresh_attempts=3,
        refresh_backoff_ms=5.0,
        breaker_failure_threshold=3,
        seed=seed,
    )


def wide_dataset(graph: Optional[dict] = None) -> TKGDataset:
    """The ICEWS18-vocabulary graph, split 80/10/10 like the registry."""
    config = SyntheticTKGConfig(
        **(graph or WIDE_GRAPH), seed=DATASET_PROFILES["ICEWS18"]["seed"]
    )
    full = generate_tkg(config, granularity="24 hours")
    train, valid, test = full.split((0.8, 0.1, 0.1))
    return TKGDataset(name="ICEWS18-WIDE", graph=full, train=train, valid=valid, test=test)


def reveal(model: RETIA, data: TKGDataset) -> None:
    """Make train+valid the model's known past (the evaluation start state)."""
    model.set_history(data.train)
    for ts in data.valid.timestamps:
        model.record_snapshot(data.valid.snapshot(int(ts)))
    model.eval()


# ----------------------------------------------------------------------
# Measurement scaffolding
# ----------------------------------------------------------------------
@dataclass
class WorkloadRun:
    """Everything one workload run measured and checked."""

    #: seconds of each set-up.
    setup_s: List[float]
    #: seconds of each untraced operation.
    op_s: List[float]
    attempted: int = 0
    failed: int = 0
    #: run-level check failures, one line each.
    problems: List[str] = field(default_factory=list)
    #: deterministic outputs compared with the seed-0 reference.
    outputs: Dict[str, float] = field(default_factory=dict)
    #: named user-facing figures: name -> (value, unit).
    details: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: per-layer metrics per operation (traced runs only).
    layers: Optional[Dict[str, float]] = None
    tracer: Optional[LayerTracer] = None


class SetUps:
    """Times :data:`SETUP_REPEATS` set-ups spread across a run.

    The first builds the state the run measures.  The others are built
    and thrown away at even fractions of the measuring window: a
    single-threaded set-up takes the speed of whichever host core it
    lands on, and on a shared host that speed changes every few seconds,
    so set-ups timed back to back would all draw the same core state.
    """

    def __init__(self, build: Callable, teardown: Optional[Callable] = None):
        self.build = build
        self.teardown = teardown
        self.seconds: List[float] = []

    def timed_build(self):
        start = time.perf_counter()
        state = self.build()
        self.seconds.append(time.perf_counter() - start)
        return state

    def catch_up(self, fraction: float) -> None:
        """Run the spare set-ups due once ``fraction`` of the run has passed."""
        while len(self.seconds) < SETUP_REPEATS and (
            fraction >= len(self.seconds) / SETUP_REPEATS
        ):
            state = self.timed_build()
            if self.teardown is not None:
                self.teardown(state)


def measure(op, seconds, trace, name, setups: SetUps, min_ops=1, reset=None) -> WorkloadRun:
    """Run ``op(index)`` until ``seconds`` have passed and ``min_ops`` ran.

    ``op`` returns whether its output passed its checks; ``reset`` runs
    untimed before each op.  With ``trace``, odd-numbered ops run under
    the layer tracer, so host-speed drift hits traced and untraced ops
    alike and ``trace.overhead`` compares like with like.
    """
    tracer = LayerTracer() if trace else None
    plain: List[float] = []
    traced: List[float] = []
    failed = 0
    index = 0
    begin = time.perf_counter()
    while index < max(min_ops, 2 if trace else 1) or time.perf_counter() < begin + seconds:
        if reset is not None:
            reset()
        active = tracer if index % 2 else None
        with active or contextlib.nullcontext():
            with active.op(name, index=index) if active else contextlib.nullcontext():
                start = time.perf_counter()
                ok = op(index)
                elapsed = time.perf_counter() - start
        (traced if active else plain).append(elapsed)
        failed += not ok
        index += 1
        setups.catch_up((time.perf_counter() - begin) / seconds)
    setups.catch_up(1.0)
    run = WorkloadRun(setup_s=setups.seconds, op_s=plain, attempted=index, failed=failed)
    if trace:
        run.tracer = tracer
        run.layers = tracer.per_op(len(traced), sum(traced))
        run.layers.update(dict.fromkeys(SERVE_LAYER_METRICS, 0.0))
        run.layers["trace.overhead"] = (
            statistics.median(traced) / statistics.median(plain) - 1.0
        )
    return run


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------
def train(seed: int, seconds: float, trace: bool = False, scale: float = 1.0) -> WorkloadRun:
    """Epochs of ``Trainer.fit`` (37 batches + Adam + sentinel + validation).

    Outputs: the joint loss of the first :data:`CHECK_EPOCHS` epochs and
    the test MRRs of an untimed online test pass from the model as it
    stood after them.
    """

    def build():
        data = load_dataset(DATASET, scale=scale)
        model = RETIA(model_config(data.graph, seed))
        trainer = Trainer(model, TrainerConfig(epochs=1, seed=seed))
        model.set_history(data.train)
        model.snapshot_cache.warm(data.train.snapshots() + data.valid.snapshots())
        return data, model, trainer

    setups = SetUps(build)
    data, model, trainer = setups.timed_build()
    checkpoint = {}

    def epoch(index: int) -> bool:
        entry = trainer.fit(data.train, data.valid)[-1]
        if index == CHECK_EPOCHS - 1:
            checkpoint["state"] = model.state_dict()
            checkpoint["rng"] = model.rng_state()
        return (
            _finite(entry.loss_joint, entry.valid_mrr) and entry.nonfinite_skips == 0
        )

    run = measure(epoch, seconds, trace, "epoch", setups, min_ops=CHECK_EPOCHS)
    losses = [entry.loss_joint for entry in trainer.log]
    if not losses[-1] < losses[0]:
        run.failed += 1
        run.problems.append(
            f"last epoch loss {losses[-1]:.6g} is not below the first {losses[0]:.6g}"
        )

    model.load_state_dict(checkpoint["state"])
    model.set_rng_state(checkpoint["rng"])
    reveal(model, data)
    test = evaluate_extrapolation(OnlineAdapter(model, TrainerConfig(seed=seed)), data.test)
    if not _finite(test.entity["MRR"], test.relation["MRR"]):
        run.problems.append("post-train test MRR is not finite")
    run.outputs = {f"loss_epoch{i + 1}": losses[i] for i in range(CHECK_EPOCHS)}
    run.outputs["test_entity_mrr"] = test.entity["MRR"]
    run.outputs["test_relation_mrr"] = test.relation["MRR"]
    run.details["epoch_s"] = (statistics.median(run.op_s), "s")
    return run


# ----------------------------------------------------------------------
# eval-online / eval-wide
# ----------------------------------------------------------------------
def _eval_passes(setups: SetUps, seconds, trace, online: bool, seed: int) -> WorkloadRun:
    """Repeat the test-split protocol; MRRs must repeat exactly."""
    data, model = setups.timed_build()
    start_state = model.state_dict(), model.rng_state()
    target = {}

    def reset() -> None:
        if online:
            model.load_state_dict(start_state[0])
            model.set_rng_state(start_state[1])
        reveal(model, data)
        target["model"] = (
            OnlineAdapter(model, TrainerConfig(seed=seed)) if online else model
        )

    seen: List[Tuple[float, float]] = []

    def one_pass(index: int) -> bool:
        result = evaluate_extrapolation(target["model"], data.test)
        mrr = (result.entity["MRR"], result.relation["MRR"])
        seen.append(mrr)
        return _finite(*mrr) and mrr == seen[0]

    run = measure(one_pass, seconds, trace, "pass", setups, min_ops=2, reset=reset)
    run.outputs = {"entity_mrr": seen[0][0], "relation_mrr": seen[0][1]}
    run.details["pass_s"] = (statistics.median(run.op_s), "s")
    return run


def eval_online(seed: int, seconds: float, trace: bool = False,
                scale: float = 1.0) -> WorkloadRun:
    """The paper protocol with online continuous training (Table VIII)."""

    def build():
        data = load_dataset(DATASET, scale=scale)
        model = RETIA(model_config(data.graph, seed))
        reveal(model, data)
        # Test windows too: every pass after the first would hit them.
        model.snapshot_cache.warm(data.graph.snapshots())
        return data, model

    return _eval_passes(SetUps(build), seconds, trace, online=True, seed=seed)


def eval_wide(seed: int, seconds: float, trace: bool = False,
              graph: Optional[dict] = None) -> WorkloadRun:
    """The offline protocol (Fig. 8) over ICEWS18's entity vocabulary."""

    def build():
        data = wide_dataset(graph)
        model = RETIA(model_config(data.graph, seed))
        reveal(model, data)
        model.snapshot_cache.warm(data.graph.snapshots())
        return data, model

    return _eval_passes(SetUps(build), seconds, trace, online=False, seed=seed)


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
class _IngestFeed:
    """Replays the test snapshots as new timestamps past the revealed past.

    The lock is held across ``ingest`` so timestamps reach the server in
    order even with several clients.
    """

    def __init__(self, server: ModelServer, test, first_ts: int):
        self.server = server
        self.snapshots = test.snapshots()
        self.first_ts = first_ts
        self.count = 0
        self._lock = threading.Lock()

    def ingest(self):
        with self._lock:
            base = self.snapshots[self.count % len(self.snapshots)]
            snapshot = Snapshot(
                base.triples, base.num_entities, base.num_relations,
                self.first_ts + self.count,
            )
            self.count += 1
            return self.server.ingest(snapshot)


def check_response(kind: str, response, num_entities: int, window: int) -> bool:
    """Seed-independent invariants of one served response."""
    if response.status != STATUS_OK:
        return False
    if kind == "ingest":
        return response.skips == 0 and response.steps == 1
    if kind == "score":
        scores = response.scores
        return (
            scores.shape == (QUERIES, num_entities)
            and bool(np.all(np.isfinite(scores)))
            # Each row sums one softmax per historical snapshot.
            and bool(np.allclose(scores.sum(axis=1), window, atol=1e-3))
        )
    ids, scores = response.topk_entities, response.topk_scores
    return (
        len(ids) == TOPK_K
        and len(set(ids.tolist())) == TOPK_K
        and 0 <= int(ids.min())
        and int(ids.max()) < num_entities
        and bool(np.all(np.diff(scores) <= 0))
    )


def serve_mixed(seed: int, seconds: float, trace: bool = False,
                scale: float = 1.0, ingest_every: int = 50) -> WorkloadRun:
    """A closed loop of :data:`CLIENTS` threads against one :class:`ModelServer`.

    Each client sends its next request when the previous one returns.
    Its ``i``-th request is an ingest when ``i % ingest_every`` is the
    last slot, a ``topk`` when ``i % TOPK_EVERY`` is, else a ``score`` of
    :data:`QUERIES` random ``(s, r)`` rows.
    """

    def build():
        data = load_dataset(DATASET, scale=scale)
        model = RETIA(model_config(data.graph, seed))
        reveal(model, data)
        adapter = OnlineAdapter(
            model, TrainerConfig(online_steps=1, online_lr=1e-3, seed=seed)
        )
        server = ModelServer(model, adapter=adapter, config=serve_config(seed))
        server.start(ts=int(data.test.timestamps[0]))
        return data, model, server

    setups = SetUps(build, teardown=lambda state: state[2].drain())
    data, model, server = setups.timed_build()
    feed = _IngestFeed(server, data.test, int(data.test.timestamps[0]))
    num_entities = data.num_entities
    num_relations = data.num_relations
    window = model.config.history_length
    errors: List[str] = []

    def phase(budget: float, tracer, phase_index: int):
        """One closed-loop phase; returns its records and wall-clock."""
        records: List[List[tuple]] = [[] for _ in range(CLIENTS)]
        deadline = time.perf_counter() + budget

        def client(c: int) -> None:
            rng = np.random.default_rng([seed, phase_index, c])
            out = records[c]
            i = 0
            while time.perf_counter() < deadline:
                if i % ingest_every == ingest_every - 1:
                    kind = "ingest"
                elif i % TOPK_EVERY == TOPK_EVERY - 1:
                    kind = "topk"
                    subject = int(rng.integers(0, num_entities))
                    relation = int(rng.integers(0, num_relations))
                else:
                    kind = "score"
                    rows = np.stack(
                        [
                            rng.integers(0, num_entities, size=QUERIES),
                            rng.integers(0, num_relations, size=QUERIES),
                        ],
                        axis=1,
                    )
                span = tracer.op(kind) if tracer else contextlib.nullcontext()
                start = time.perf_counter()
                try:
                    with span:
                        if kind == "ingest":
                            response = feed.ingest()
                        elif kind == "topk":
                            response = server.topk(subject, relation, k=TOPK_K)
                        else:
                            response = server.score(rows)
                except Exception as exc:  # noqa: BLE001 - count it, keep the load on
                    errors.append(f"{kind} raised {type(exc).__name__}: {exc}")
                    out.append((kind, time.perf_counter() - start, False, 0.0, 0))
                else:
                    ok = check_response(kind, response, num_entities, window)
                    out.append(
                        (kind, time.perf_counter() - start, ok,
                         response.queued_ms, response.batch)
                    )
                i += 1

        threads = [
            threading.Thread(target=client, args=(c,), name=f"e2e-client-{c}")
            for c in range(CLIENTS)
        ]
        begin = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [r for rs in records for r in rs], time.perf_counter() - begin

    plain: List[tuple] = []
    traced: List[tuple] = []
    plain_wall = traced_wall = 0.0
    tracer = LayerTracer() if trace else None
    # Traced runs alternate one-second untraced and traced phases, so
    # drift in host speed hits both and trace.overhead compares like
    # with like.  Between phases the spare set-ups run.
    phase_s = TRACE_PHASE_S if trace else seconds / SETUP_REPEATS
    try:
        begin = time.perf_counter()
        index = 0
        while index < (2 if trace else 1) or time.perf_counter() < begin + seconds:
            budget = min(phase_s, max(0.1, begin + seconds - time.perf_counter()))
            active = tracer if trace and index % 2 else None
            with active or contextlib.nullcontext():
                records, wall = phase(budget, active, index)
            if active:
                traced += records
                traced_wall += wall
            else:
                plain += records
                plain_wall += wall
            index += 1
            setups.catch_up((time.perf_counter() - begin) / seconds)
        setups.catch_up(1.0)
    finally:
        server.drain()

    records = plain + traced
    run = WorkloadRun(setup_s=setups.seconds, op_s=[r[1] for r in plain])
    run.attempted = len(records)
    run.failed = sum(not r[2] for r in records)
    run.problems.extend(sorted(set(errors)))
    queries = [r[1] for r in plain if r[0] != "ingest"]
    ingests = [r[1] for r in plain if r[0] == "ingest"]
    run.details["rps"] = (sum(r[2] for r in plain) / plain_wall, "req/s")
    run.details["query_p50_ms"] = (1e3 * float(np.percentile(queries, 50)), "ms")
    run.details["query_p99_ms"] = (1e3 * float(np.percentile(queries, 99)), "ms")
    if ingests:
        run.details["ingest_p50_ms"] = (1e3 * float(np.percentile(ingests, 50)), "ms")
        run.details["ingest_p90_ms"] = (1e3 * float(np.percentile(ingests, 90)), "ms")
    if trace:
        run.tracer = tracer
        run.layers = _serve_layers(tracer, traced, traced_wall)
        run.layers["trace.overhead"] = (
            statistics.median(r[1] for r in traced) / statistics.median(run.op_s) - 1.0
        )
    return run


def _serve_layers(tracer: LayerTracer, traced, wall: float) -> Dict[str, float]:
    layers = tracer.per_op(len(traced), wall)
    queries = [r for r in traced if r[0] != "ingest"]
    layers["serve.batcher.queue_wait_ms"] = (
        statistics.fmean(r[3] for r in queries) if queries else 0.0
    )
    layers["serve.batcher.batch_size"] = (
        statistics.fmean(r[4] for r in queries) if queries else 0.0
    )
    # Everything the model lock serialises: decodes, snapshot captures
    # and the online step of each ingest.
    layers["serve.server.lock_hold_ms"] = 1e3 * (
        layers["serve.snapshots.decode.busy_s"]
        + layers["serve.snapshots.capture.busy_s"]
        + layers["core.trainer.observe.busy_s"]
    )
    return layers


#: Workload name -> function; why each exists is in BENCHMARK.json.
WORKLOADS: Dict[str, Callable[..., WorkloadRun]] = {
    "train": train,
    "eval-online": eval_online,
    "eval-wide": eval_wide,
    "serve-mixed": serve_mixed,
}
