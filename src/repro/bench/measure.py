"""The perf registry and its runner: named measurements, one way to repeat them.

Every perf series the repo tracks is one entry of :data:`MEASUREMENTS`:
a function ``fn(dataset, *, seed, per_step_sleep, **labels)`` that runs
its own warm-up, times one repeat and returns a :class:`Sample` — the
timed *figures* (seconds per step, unless the name says otherwise), the
*labels* that pick out its series, and untimed *extras* (phase
breakdown, MRR, SLO figures) that ride along in history and reports.

:func:`measure` repeats one entry and pools its samples into a
:class:`Run`; :func:`record` writes the run's min / median / MAD per
figure into one gauge family, one ``bench`` report event and one
history entry.  Which run is comparable to which (the *series*) and
whether a run regressed are decided in :mod:`repro.bench.history`.

``per_step_sleep`` is a deterministic fault: every timed step of every
figure sleeps that long inside its timed region, so each time figure
rises by at least the sleep (the CI drill that proves the gate fires).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.bench.history import append_entry, make_entry, series_key, stats
from repro.bench.runner import BENCH_PROFILES, bench_dataset, build_retia_config, revealed_model
from repro.core import RETIA
from repro.eval import evaluate_extrapolation
from repro.obs import MetricsRegistry, tracing

#: The one configuration every series runs at (the one ``benchmarks/e2e``
#: pins): float32 models, fused cells and batched decode (the only paths).
DTYPE = "float32"
#: Timed and untimed (warm-up) steps of one ``cell`` repeat.
CELL_STEPS, CELL_WARMUP_STEPS = 50, 5


@dataclass(frozen=True)
class Sample:
    """One timed repeat of a measurement."""

    figures: Dict[str, float]
    labels: Dict[str, object] = field(default_factory=dict)
    extras: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class Measurement:
    """A registry entry: the function plus its label defaults (their one source)."""

    fn: Callable[..., Sample]
    labels: Dict[str, object] = field(default_factory=dict)


def _pause(per_step_sleep: float, steps: int = 1) -> None:
    if per_step_sleep > 0:
        time.sleep(per_step_sleep * steps)


def train_step(dataset_name: str, *, seed: int, per_step_sleep: float) -> Sample:
    """One RETIA training step over every training timestamp, three ways.

    After one untimed warm-up epoch (a warm :class:`~repro.graph.SnapshotCache`,
    steady-state cost) the same model is timed for:

    * ``encoder_s`` — one ``evolve`` pass over the history window with
      gradient recording (Eq. 1/4 message passing and recurrences);
    * ``decoder_s`` — the Eq. 11–14 decode and time-variability losses
      over pre-evolved stacks (the encoder runs untimed);
    * ``step_s`` — the full batch, ``loss_on_snapshot`` plus ``backward``,
      with the span phase breakdown in ``extras["phases"]``.
    """
    from repro.nn import losses

    dataset = bench_dataset(dataset_name)
    model = RETIA(build_retia_config(dataset, BENCH_PROFILES[dataset_name], seed=seed, dtype=DTYPE))
    model.set_history(dataset.train)
    model.train()
    snapshots = [
        s
        for s in (dataset.train.snapshot(int(t)) for t in dataset.train.timestamps[1:])
        if not s.is_empty
    ]
    steps = max(1, len(snapshots))
    for snapshot in snapshots:
        joint, _, _ = model.loss_on_snapshot(snapshot)
        joint.backward()

    start = time.perf_counter()
    for snapshot in snapshots:
        model.evolve(model.history_before(snapshot.time))
        _pause(per_step_sleep)
    encoder_s = (time.perf_counter() - start) / steps

    # Pre-evolve each step's stacks so the timed loop isolates the
    # decode; the queries mirror loss_on_snapshot exactly.
    m = model.config.num_relations
    prepared = []
    for snapshot in snapshots:
        entity_list, relation_list = model.evolve(model.history_before(snapshot.time))
        s, r, o = snapshot.triples[:, 0], snapshot.triples[:, 1], snapshot.triples[:, 2]
        queries = np.concatenate([np.stack([s, r], axis=1), np.stack([o, r + m], axis=1)])
        targets, pairs = np.concatenate([o, s]), np.stack([s, o], axis=1)
        prepared.append((entity_list, relation_list, queries, targets, pairs, r))
    start = time.perf_counter()
    for entity_list, relation_list, queries, entity_targets, pairs, r in prepared:
        with model._dtype_policy:
            entity_probs = model._entity_probabilities(entity_list, relation_list, queries)
            losses.nll_of_summed_probs(entity_probs, entity_targets)
            relation_probs = model._relation_probabilities(entity_list, relation_list, pairs)
            losses.nll_of_summed_probs(relation_probs, r)
        _pause(per_step_sleep)
    decoder_s = (time.perf_counter() - start) / steps
    del prepared

    start = time.perf_counter()
    with tracing.collect_spans() as collector:
        for snapshot in snapshots:
            joint, _, _ = model.loss_on_snapshot(snapshot)
            joint.backward()
            _pause(per_step_sleep)
    step_s = (time.perf_counter() - start) / steps

    cache = model.snapshot_cache
    return Sample(
        figures={"encoder_s": encoder_s, "decoder_s": decoder_s, "step_s": step_s},
        extras={
            "steps": len(snapshots),
            "phases": collector.summary(),
            "cache": {"entries": len(cache), "hits": cache.hits, "misses": cache.misses},
        },
    )


def cell(dataset_name: str, *, seed: int, per_step_sleep: float) -> Sample:
    """Every recurrent cell of one encoder step, at model shapes.

    One step runs the EAM R-GRU over the ``(N, d)`` entity matrix, the
    RAM R-GRU over ``(2M, d)`` relations and the TIM relation and
    hyperrelation LSTMs over their ``2d``-wide inputs, forward plus
    backward — the cell cost isolated from message passing and decode.
    """
    from repro.autograd import DtypePolicy, Tensor
    from repro.graph import NUM_HYPERRELATIONS
    from repro.nn import GRUCell, LSTMCell

    dataset = bench_dataset(dataset_name)
    n, m, d = dataset.num_entities, dataset.num_relations, BENCH_PROFILES[dataset_name].dim
    with DtypePolicy(DTYPE):
        rng = np.random.default_rng(seed)
        shaped = [
            (GRUCell(d, d, rng=rng), (n, d)),  # EAM entity R-GRU
            (GRUCell(d, d, rng=rng), (2 * m, d)),  # RAM relation R-GRU
            (LSTMCell(2 * d, d, rng=rng), (2 * m, 2 * d)),  # TIM relation LSTM
            (LSTMCell(2 * d, d, rng=rng), (2 * NUM_HYPERRELATIONS, 2 * d)),  # TIM hyper LSTM
        ]
        batches = []
        for module, (batch, width) in shaped:
            hidden = (batch, module.hidden_size)
            x, h, c = (
                Tensor(rng.standard_normal(shape).astype(DTYPE))
                for shape in ((batch, width), hidden, hidden)
            )
            batches.append((module, x, h, c))

        def one_step() -> None:
            loss = None
            for module, x, h, c in batches:
                out = module(x, (h, c))[0] if isinstance(module, LSTMCell) else module(x, h)
                loss = out.sum() if loss is None else loss + out.sum()
            loss.backward()
            for module, _, _, _ in batches:
                for param in module.parameters():
                    param.grad = None

        for _ in range(CELL_WARMUP_STEPS):
            one_step()
        start = time.perf_counter()
        for _ in range(CELL_STEPS):
            one_step()
            _pause(per_step_sleep)
        cell_s = (time.perf_counter() - start) / CELL_STEPS
    return Sample(figures={"cell_s": cell_s}, extras={"steps": CELL_STEPS})


def evaluation(dataset_name: str, *, seed: int, per_step_sleep: float, workers: int) -> Sample:
    """The full evaluation protocol at ``workers``, per test timestamp.

    Both tasks, ``observe=True``, over the test split; the entity and
    relation MRR ride along in ``extras`` (they must not depend on the
    worker count), as does the core count, so a speedup check can tell
    "no parallel win" from "no parallel hardware".
    """
    dataset = bench_dataset(dataset_name)
    model = revealed_model(dataset, seed=seed, dtype=DTYPE)
    steps = len(dataset.test.timestamps)
    start = time.perf_counter()
    result = evaluate_extrapolation(model, dataset.test, workers=workers)
    _pause(per_step_sleep, steps)
    eval_s = (time.perf_counter() - start) / max(1, steps)
    return Sample(
        figures={"eval_s": eval_s},
        labels={"workers": workers},
        extras={
            "steps": steps,
            "cpus": os.cpu_count() or 1,
            "entity_mrr": result.entity.get("MRR"),
            "relation_mrr": result.relation.get("MRR"),
        },
    )


def serve(dataset_name: str, *, seed: int, per_step_sleep: float) -> Sample:
    """The serve drill (:func:`repro.serve.run_drill`): 160 requests at 400 qps.

    The figure is ``mean_latency_s``, the mean OK-query latency: it is
    dominated by micro-batch compute and repeats within a few percent,
    whereas p50/p99 over ~100 requests swing 1.4x run to run — they ride
    along in ``extras`` with QPS, shed rate and availability.  An
    injected sleep stalls every decoder micro-batch.
    """
    from repro.resilience import ServeFaultInjector
    from repro.serve import STATE_CLOSED, LoadgenConfig, run_drill

    dataset = bench_dataset(dataset_name)
    stall = None
    if per_step_sleep > 0:
        stall = ServeFaultInjector(slow_batch_every=1, slow_batch_seconds=per_step_sleep)
    load = LoadgenConfig(requests=160, qps=400.0, deadline_ms=500.0, seed=seed)
    drill = run_drill(
        revealed_model(dataset, seed=seed, dtype=DTYPE), dataset, load, fault_injector=stall
    )
    slo = ("requests", "qps", "availability", "shed_rate", "serve_p50_seconds", "serve_p99_seconds")
    extras = {key: drill.summary[key] for key in slo}
    extras.update(
        offered_qps=load.qps,
        breaker_recovered=drill.server.breaker.state == STATE_CLOSED,
        clean_drain=drill.clean,
    )
    if stall is not None:
        extras["faults"] = stall.summary()
    return Sample(figures={"mean_latency_s": drill.summary["serve_mean_seconds"]}, extras=extras)


#: The registry ``repro.cli bench --component`` dispatches on.
MEASUREMENTS: Dict[str, Measurement] = {
    "train_step": Measurement(train_step),
    "cell": Measurement(cell),
    "eval": Measurement(evaluation, labels={"workers": 1}),
    "serve": Measurement(serve),
}

#: Every label any measurement carries: one gauge family needs one label set.
LABEL_NAMES: Tuple[str, ...] = tuple(sorted({k for m in MEASUREMENTS.values() for k in m.labels}))


@dataclass(frozen=True)
class Run:
    """Every repeat of one measurement, pooled per figure."""

    name: str
    dataset: str
    dtype: str
    labels: Dict[str, str]
    samples: Dict[str, List[float]]
    extras: List[Dict[str, object]]
    per_step_sleep: float = 0.0

    @property
    def key(self) -> tuple:
        return series_key(self.name, self.dataset, self.dtype, self.labels)

    def stats(self) -> Dict[str, Dict[str, float]]:
        return {figure: stats(values) for figure, values in self.samples.items()}

    def pooled(self, other: "Run") -> "Run":
        """This run's samples plus ``other``'s."""
        samples = {f: self.samples[f] + values for f, values in other.samples.items()}
        return replace(self, samples=samples, extras=self.extras + other.extras)


def measure(
    name: str,
    dataset: str,
    *,
    repeats: int = 3,
    seed: int = 0,
    per_step_sleep: float = 0.0,
    **labels,
) -> Run:
    """Run registry entry ``name`` ``repeats`` times; labels override defaults."""
    spec = MEASUREMENTS[name]
    unknown = set(labels) - set(spec.labels)
    if unknown:
        raise ValueError(f"measurement {name!r} takes no labels {sorted(unknown)}")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    params = {**spec.labels, **labels}
    samples = [
        spec.fn(dataset, seed=seed, per_step_sleep=per_step_sleep, **params)
        for _ in range(repeats)
    ]
    figures = {figure: [s.figures[figure] for s in samples] for figure in samples[0].figures}
    return Run(
        name=name,
        dataset=dataset,
        dtype=DTYPE,
        labels={key: str(value) for key, value in samples[0].labels.items()},
        samples=figures,
        extras=[s.extras for s in samples],
        per_step_sleep=per_step_sleep,
    )


def record(
    run: Run,
    registry: Optional[MetricsRegistry] = None,
    reporter=None,
    history_path: Optional[str] = None,
) -> dict:
    """Publish one run: gauges, one ``bench`` event, one history entry.

    Returns the schema-2 history entry (appended only with
    ``history_path``).
    """
    registry = registry if registry is not None else MetricsRegistry()
    gauge = registry.gauge("bench_figure", help="bench figure statistic over a run's samples")
    labels = {label: run.labels.get(label, "") for label in LABEL_NAMES}
    for figure, figure_stats in run.stats().items():
        for stat, value in figure_stats.items():
            gauge.set(
                value,
                name=run.name,
                figure=figure,
                stat=stat,
                dataset=run.dataset,
                dtype=run.dtype,
                **labels,
            )
    entry = make_entry(run)
    if reporter is not None:
        reporter.emit("bench", name=run.name, metrics=registry.to_dict(), result=entry)
    if history_path is not None:
        append_entry(history_path, entry)
    return entry
