"""Method builders, training, evaluation and caching for the benches.

Every method the benches compare is registered in :data:`METHOD_BUILDERS`.
``get_trained(method, dataset)`` trains it once per process (results are
cached), and :meth:`TrainedMethod.evaluate` runs the paper's protocol —
always restoring the model state afterwards, so online-training
evaluations don't contaminate later tables.

Scale notes (DESIGN.md §2): the synthetic benchmarks are ~100x smaller
than the real dumps, embeddings are 24-d instead of 200-d, and history
lengths are capped at 3 (the paper uses up to 9 on ICEWS14/05-15), and
training budgets are a handful of epochs with patience-2 early stopping
so the whole 16-method x 5-dataset matrix fits one CPU.  The comparison
*shape* — family orderings, which ablations collapse — is the
reproduction target, not absolute numbers.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.obs import tracing
from repro.obs import MetricsRegistry

from repro.baselines import (
    CEN,
    REGCN,
    RENet,
    RGCRN,
    ComplEx,
    ConvEModel,
    ConvTransEModel,
    CyGNet,
    DistMult,
    HistoryFrequency,
    HyTE,
    RGCNStatic,
    RotatE,
    StaticTrainer,
    StaticTrainerConfig,
    TADistMult,
    TiRGN,
    TTransE,
)
from repro.core import RETIA, RETIAConfig, Trainer, TrainerConfig
from repro.core.trainer import OnlineAdapter
from repro.datasets import TKGDataset, load_dataset
from repro.eval import EvaluationResult, evaluate_extrapolation


@dataclass(frozen=True)
class BenchProfile:
    """Per-dataset bench hyperparameters (shared across methods)."""

    dim: int = 20
    history_length: int = 3
    num_kernels: int = 10
    epochs_static: int = 3
    epochs_dynamic: int = 4
    epochs_retia: int = 6
    patience: int = 2
    online_steps: int = 1
    seed: int = 0


#: History lengths follow the paper's choices, capped at 4 for CPU cost
#: (the paper uses 9 on the ICEWS14/05-15 profiles).
BENCH_PROFILES: Dict[str, BenchProfile] = {
    "ICEWS14": BenchProfile(),
    "ICEWS05-15": BenchProfile(),
    "ICEWS18": BenchProfile(),
    "YAGO": BenchProfile(),
    "WIKI": BenchProfile(),
    # Entity-axis stress profile (repro.scale): a deliberately small
    # model so the measured cost is the candidate axis, not the encoder.
    "ICEWS-SCALE": BenchProfile(dim=16, history_length=2, num_kernels=6),
}

#: Methods evaluated with online continuous training, per the paper
#: ("for CEN, we reported the results obtained under the online setting";
#: RETIA always trains online during evaluation).
ONLINE_METHODS = {"CEN", "RETIA"}


def _static(factory):
    def build(dataset: TKGDataset, profile: BenchProfile):
        model = factory(dataset, profile)
        if isinstance(model, RGCNStatic):
            model.prepare(dataset.train)
        StaticTrainer(
            model, StaticTrainerConfig(epochs=profile.epochs_static, seed=profile.seed)
        ).fit(dataset.train)
        return model, None

    return build


def _dynamic(factory, epochs_attr: str = "epochs_dynamic"):
    def build(dataset: TKGDataset, profile: BenchProfile):
        model = factory(dataset, profile)
        config = TrainerConfig(
            epochs=getattr(profile, epochs_attr),
            patience=profile.patience,
            online_steps=profile.online_steps,
            seed=profile.seed,
        )
        trainer = Trainer(model, config)
        # Validation-based early stopping, as in the paper's general
        # training process (Section IV-A4).
        trainer.fit(dataset.train, dataset.valid)
        return model, trainer

    return build


def _history_frequency(dataset: TKGDataset, profile: BenchProfile):
    return HistoryFrequency(dataset.num_entities, dataset.num_relations).fit(dataset.train), None


def build_retia_config(dataset: TKGDataset, profile: BenchProfile, **overrides) -> RETIAConfig:
    """The bench-scale RETIA configuration for a dataset."""
    params = dict(
        num_entities=dataset.num_entities,
        num_relations=dataset.num_relations,
        dim=profile.dim,
        history_length=profile.history_length,
        num_kernels=profile.num_kernels,
        seed=profile.seed,
    )
    params.update(overrides)
    return RETIAConfig(**params)


METHOD_BUILDERS: Dict[str, Callable] = {
    "DistMult": _static(lambda d, p: DistMult(d.num_entities, d.num_relations, p.dim, seed=p.seed)),
    "ConvE": _static(
        lambda d, p: ConvEModel(
            d.num_entities, d.num_relations, p.dim, reshape_height=4, channels=6, seed=p.seed
        )
    ),
    "ComplEx": _static(lambda d, p: ComplEx(d.num_entities, d.num_relations, p.dim, seed=p.seed)),
    "Conv-TransE": _static(
        lambda d, p: ConvTransEModel(d.num_entities, d.num_relations, p.dim, p.num_kernels, seed=p.seed)
    ),
    "RotatE": _static(lambda d, p: RotatE(d.num_entities, d.num_relations, p.dim // 2, seed=p.seed)),
    "R-GCN": _static(lambda d, p: RGCNStatic(d.num_entities, d.num_relations, p.dim, seed=p.seed)),
    "TTransE": _static(
        lambda d, p: TTransE(d.num_entities, d.num_relations, d.graph.num_timestamps + 1, p.dim, seed=p.seed)
    ),
    "HyTE": _static(
        lambda d, p: HyTE(d.num_entities, d.num_relations, d.graph.num_timestamps + 1, p.dim, seed=p.seed)
    ),
    "TA-DistMult": _static(
        lambda d, p: TADistMult(d.num_entities, d.num_relations, d.graph.num_timestamps + 1, p.dim, seed=p.seed)
    ),
    "HistoryFreq": _history_frequency,
    "CyGNet": _dynamic(
        lambda d, p: CyGNet(d.num_entities, d.num_relations, p.dim, p.history_length, seed=p.seed)
    ),
    "RE-NET": _dynamic(
        lambda d, p: RENet(d.num_entities, d.num_relations, p.dim, p.history_length, seed=p.seed)
    ),
    "RGCRN": _dynamic(
        lambda d, p: RGCRN(
            d.num_entities, d.num_relations, p.dim, p.history_length, num_kernels=p.num_kernels, seed=p.seed
        )
    ),
    "RE-GCN": _dynamic(
        lambda d, p: REGCN(
            d.num_entities, d.num_relations, p.dim, p.history_length, num_kernels=p.num_kernels, seed=p.seed
        )
    ),
    "CEN": _dynamic(
        lambda d, p: CEN(
            d.num_entities, d.num_relations, p.dim, p.history_length, num_kernels=p.num_kernels, seed=p.seed
        )
    ),
    "TiRGN": _dynamic(
        lambda d, p: TiRGN(
            d.num_entities, d.num_relations, p.dim, p.history_length, num_kernels=p.num_kernels, seed=p.seed
        )
    ),
    "RETIA": _dynamic(lambda d, p: RETIA(build_retia_config(d, p)), "epochs_retia"),
}

#: Row order for the entity-forecasting tables (Table III/IV shape).
DEFAULT_METHODS = [
    "DistMult",
    "ConvE",
    "ComplEx",
    "Conv-TransE",
    "RotatE",
    "R-GCN",
    "TTransE",
    "HyTE",
    "TA-DistMult",
    "HistoryFreq",
    "RE-NET",
    "CyGNet",
    "RE-GCN",
    "CEN",
    "TiRGN",
    "RETIA",
]


class TrainedMethod:
    """A trained method plus the machinery to evaluate it repeatably."""

    def __init__(self, name: str, dataset: TKGDataset, profile: BenchProfile):
        self.name = name
        self.dataset = dataset
        self.profile = profile
        start = time.perf_counter()
        self.model, self.trainer = METHOD_BUILDERS[name](dataset, profile)
        self.train_seconds = time.perf_counter() - start

    # ------------------------------------------------------------------
    def _checkpoint(self):
        state = self.model.state_dict() if hasattr(self.model, "state_dict") else None
        history = dict(self.model._history) if hasattr(self.model, "_history") else None
        return state, history

    def _restore(self, checkpoint) -> None:
        state, history = checkpoint
        if state is not None:
            self.model.load_state_dict(state)
        if history is not None:
            self.model._history = history
        if hasattr(self.model, "mark_updated"):
            self.model.mark_updated()

    def _reveal_validation(self) -> None:
        """Feed validation-period facts as history before the test set."""
        if not hasattr(self.model, "observe"):
            return
        for t in self.dataset.valid.timestamps:
            self.model.observe(self.dataset.valid.snapshot(int(t)))

    # ------------------------------------------------------------------
    def evaluate(self, online: Optional[bool] = None) -> Tuple[EvaluationResult, float]:
        """Run the test protocol; returns (result, prediction_seconds).

        ``online=None`` uses the paper's setting for this method (online
        continuous training for RETIA and CEN, plain history recording
        otherwise).  The model is restored to its trained state after the
        run.
        """
        if online is None:
            online = self.name in ONLINE_METHODS and self.trainer is not None
        if self.name == "HistoryFreq":
            # Nonparametric: rebuild counts fresh each run.
            model = HistoryFrequency(self.dataset.num_entities, self.dataset.num_relations)
            model.fit(self.dataset.train)
            for t in self.dataset.valid.timestamps:
                model.observe(self.dataset.valid.snapshot(int(t)))
            start = time.perf_counter()
            result = evaluate_extrapolation(model, self.dataset.test)
            return result, time.perf_counter() - start

        checkpoint = self._checkpoint()
        try:
            self._reveal_validation()
            target = self.model
            if online and self.trainer is not None:
                target = OnlineAdapter(self.model, self.trainer.config)
            start = time.perf_counter()
            result = evaluate_extrapolation(target, self.dataset.test)
            elapsed = time.perf_counter() - start
        finally:
            self._restore(checkpoint)
        return result, elapsed


def benchmark_encoder(
    dataset_name: str = "ICEWS14",
    warmup: bool = True,
    use_cache: bool = True,
    warm_cache: bool = False,
    seed: int = 0,
    dtype: str = "float64",
    registry: Optional[MetricsRegistry] = None,
    reporter=None,
    per_step_sleep: float = 0.0,
    history_path: Optional[str] = None,
) -> Dict:
    """Time RETIA training steps with a per-phase encoder breakdown.

    Two quantities are reported per training timestamp of the synthetic
    dataset: ``encoder_seconds_per_step`` times one ``evolve`` pass over
    the history window with gradient recording (the Eq. 1/4 message
    passing this PR fuses), and ``seconds_per_step`` times the full
    training batch (``loss_on_snapshot`` + ``backward``).  The phase
    breakdown (hypergraph build / RAM / EAM / decoder) comes from the
    :mod:`repro.obs.tracing` span instrumentation inside the model.

    ``warmup`` runs one untimed epoch first so measured steps see a warm
    :class:`~repro.graph.SnapshotCache` (steady-state training cost);
    ``use_cache=False`` sizes the cache to zero instead, measuring the
    uncached per-step cost.  ``warm_cache`` prebuilds every snapshot's
    artifacts via :meth:`SnapshotCache.warm` before anything is timed —
    much cheaper than a full warmup epoch when only the cache (not e.g.
    BLAS thread spin-up) needs to be warm.

    A :class:`~repro.obs.MetricsRegistry` passed as ``registry`` receives
    the measurement as labeled gauges/counters (the JSON format the CI
    budget gate uploads); a :class:`~repro.obs.RunReporter` passed as
    ``reporter`` gets one ``bench`` event with the same payload.

    ``per_step_sleep`` injects that many seconds of sleep into every
    timed step — a deterministic fault used by the CI perf-history job
    to prove the regression detector actually fires.  ``history_path``
    appends the result to a ``BENCH_history.jsonl`` trajectory (see
    :mod:`repro.bench.history`).
    """
    dataset = bench_dataset(dataset_name)
    profile = BENCH_PROFILES[dataset_name]
    model = RETIA(build_retia_config(dataset, profile, seed=seed, dtype=dtype))
    model.set_history(dataset.train)
    if not use_cache:
        model.snapshot_cache = type(model.snapshot_cache)(max_entries=0)
    model.train()

    snapshots = [
        s
        for s in (dataset.train.snapshot(int(t)) for t in dataset.train.timestamps[1:])
        if not s.is_empty
    ]
    if warm_cache and use_cache:
        model.snapshot_cache.warm(dataset.train.snapshots())
    if warmup:
        for snapshot in snapshots:
            joint, _, _ = model.loss_on_snapshot(snapshot)
            joint.backward()

    encoder_start = time.perf_counter()
    for snapshot in snapshots:
        model.evolve(model.history_before(snapshot.time))
        if per_step_sleep > 0:
            time.sleep(per_step_sleep)
    encoder_total = time.perf_counter() - encoder_start

    timer = tracing.PhaseTimer()
    start = time.perf_counter()
    with tracing.collect(timer):
        for snapshot in snapshots:
            joint, _, _ = model.loss_on_snapshot(snapshot)
            joint.backward()
            if per_step_sleep > 0:
                time.sleep(per_step_sleep)
    total = time.perf_counter() - start

    steps = max(1, len(snapshots))
    result = {
        "dataset": dataset_name,
        "steps": len(snapshots),
        "dtype": model.config.dtype,
        "encoder_seconds_per_step": encoder_total / steps,
        "total_seconds": total,
        "seconds_per_step": total / steps,
        "phases": timer.summary(),
        "cache": {
            "enabled": use_cache,
            "warmed": bool(warm_cache and use_cache),
            "entries": len(model.snapshot_cache),
            "hits": model.snapshot_cache.hits,
            "misses": model.snapshot_cache.misses,
        },
    }
    if registry is not None:
        record_encoder_metrics(registry, result)
    if reporter is not None:
        scratch = registry if registry is not None else MetricsRegistry()
        if registry is None:
            record_encoder_metrics(scratch, result)
        reporter.emit("bench", name="encoder", metrics=scratch.to_dict(), result=result)
    if history_path is not None:
        from repro.bench.history import append_entry, make_entry

        extra = {"injected_sleep": per_step_sleep} if per_step_sleep else None
        append_entry(history_path, make_entry(result, name="encoder", extra=extra))
    return result


def benchmark_decoder(
    dataset_name: str = "ICEWS14",
    warmup: bool = True,
    warm_cache: bool = False,
    seed: int = 0,
    dtype: str = "float64",
    registry: Optional[MetricsRegistry] = None,
    reporter=None,
    per_step_sleep: float = 0.0,
    history_path: Optional[str] = None,
) -> Dict:
    """Time the Conv-TransE decode + time-variability loss per step.

    Mirror of :func:`benchmark_encoder` for the other half of the
    training step.  ``decoder_seconds_per_step`` times the Eq. 11–14
    forward — the per-snapshot ``(subj, rel)``/``(subj, obj)`` gathers,
    Conv-TransE queries, candidate scoring softmaxes and the summed-
    probability NLLs — over pre-evolved embedding stacks (the encoder
    runs untimed, outside the measured region, with gradients recorded
    so the decode cost includes tape building).  ``seconds_per_step``
    times the full training batch (``loss_on_snapshot`` + ``backward``),
    the headline the full-step budget gates on.

    ``dtype`` selects the precision policy.  ``warm_cache`` prebuilds
    the snapshot artifacts before anything is timed (see
    :func:`benchmark_encoder`).
    """
    from repro.nn import losses

    dataset = bench_dataset(dataset_name)
    profile = BENCH_PROFILES[dataset_name]
    model = RETIA(build_retia_config(dataset, profile, seed=seed, dtype=dtype))
    model.set_history(dataset.train)
    model.train()

    snapshots = [
        s
        for s in (dataset.train.snapshot(int(t)) for t in dataset.train.timestamps[1:])
        if not s.is_empty
    ]
    if warm_cache:
        model.snapshot_cache.warm(dataset.train.snapshots())
    if warmup:
        for snapshot in snapshots:
            joint, _, _ = model.loss_on_snapshot(snapshot)
            joint.backward()

    # Pre-evolve each step's embedding stacks so the timed loop isolates
    # the decode.  Queries mirror loss_on_snapshot exactly.
    m = model.config.num_relations
    prepared = []
    for snapshot in snapshots:
        entity_list, relation_list = model.evolve(model.history_before(snapshot.time))
        triples = snapshot.triples
        s, r, o = triples[:, 0], triples[:, 1], triples[:, 2]
        queries = np.concatenate(
            [np.stack([s, r], axis=1), np.stack([o, r + m], axis=1)]
        )
        entity_targets = np.concatenate([o, s])
        pairs = np.stack([s, o], axis=1)
        prepared.append((entity_list, relation_list, queries, entity_targets, pairs, r))

    decoder_start = time.perf_counter()
    for entity_list, relation_list, queries, entity_targets, pairs, r in prepared:
        with model._dtype_policy:
            entity_probs = model._entity_probabilities(entity_list, relation_list, queries)
            losses.nll_of_summed_probs(entity_probs, entity_targets)
            relation_probs = model._relation_probabilities(entity_list, relation_list, pairs)
            losses.nll_of_summed_probs(relation_probs, r)
        if per_step_sleep > 0:
            time.sleep(per_step_sleep)
    decoder_total = time.perf_counter() - decoder_start
    del prepared

    timer = tracing.PhaseTimer()
    start = time.perf_counter()
    with tracing.collect(timer):
        for snapshot in snapshots:
            joint, _, _ = model.loss_on_snapshot(snapshot)
            joint.backward()
            if per_step_sleep > 0:
                time.sleep(per_step_sleep)
    total = time.perf_counter() - start

    steps = max(1, len(snapshots))
    result = {
        "dataset": dataset_name,
        "steps": len(snapshots),
        "dtype": model.config.dtype,
        "decoder_seconds_per_step": decoder_total / steps,
        "total_seconds": total,
        "seconds_per_step": total / steps,
        "phases": timer.summary(),
    }
    if registry is not None:
        record_decoder_metrics(registry, result)
    if reporter is not None:
        scratch = registry if registry is not None else MetricsRegistry()
        if registry is None:
            record_decoder_metrics(scratch, result)
        reporter.emit("bench", name="decoder", metrics=scratch.to_dict(), result=result)
    if history_path is not None:
        from repro.bench.history import append_entry, make_entry

        extra = {"injected_sleep": per_step_sleep} if per_step_sleep else None
        append_entry(history_path, make_entry(result, name="decoder", extra=extra))
    return result


def benchmark_cell(
    dataset_name: str = "ICEWS14",
    steps: int = 50,
    warmup_steps: int = 5,
    seed: int = 0,
    dtype: str = "float64",
    registry: Optional[MetricsRegistry] = None,
    reporter=None,
    per_step_sleep: float = 0.0,
    history_path: Optional[str] = None,
) -> Dict:
    """Micro-benchmark the encoder recurrences at model shapes.

    One "step" runs every recurrent cell a RETIA encoder step runs —
    the EAM R-GRU over the ``(N, d)`` entity matrix, the RAM R-GRU over
    ``(2M, d)`` relations, and the TIM relation/hyperrelation LSTMs over
    their ``2d``-wide inputs — forward plus backward, isolating the cell
    cost from message passing and decode.  ``cell_seconds_per_step`` is
    the figure the CI budget and perf history gate on.
    """
    from repro.autograd import DtypePolicy, Tensor
    from repro.graph import NUM_HYPERRELATIONS
    from repro.nn import GRUCell, LSTMCell

    dataset = bench_dataset(dataset_name)
    profile = BENCH_PROFILES[dataset_name]
    n, m, d = dataset.num_entities, dataset.num_relations, profile.dim
    hyp = NUM_HYPERRELATIONS

    with DtypePolicy(dtype):
        rng = np.random.default_rng(seed)
        cells = [
            # (cell, input batch shape) per encoder recurrence
            (GRUCell(d, d, rng=rng), (n, d)),  # EAM entity R-GRU
            (GRUCell(d, d, rng=rng), (2 * m, d)),  # RAM relation R-GRU
            (LSTMCell(2 * d, d, rng=rng), (2 * m, 2 * d)),  # TIM relation LSTM
            (LSTMCell(2 * d, d, rng=rng), (2 * hyp, 2 * d)),  # TIM hyper LSTM
        ]
        resolved = np.dtype(dtype)
        batches = []
        for cell, (batch, width) in cells:
            x = Tensor(rng.standard_normal((batch, width)).astype(resolved))
            h = Tensor(rng.standard_normal((batch, cell.hidden_size)).astype(resolved))
            c = Tensor(rng.standard_normal((batch, cell.hidden_size)).astype(resolved))
            batches.append((cell, x, h, c))

        def one_step() -> None:
            loss = None
            for cell, x, h, c in batches:
                if isinstance(cell, LSTMCell):
                    out, _ = cell(x, (h, c))
                else:
                    out = cell(x, h)
                term = out.sum()
                loss = term if loss is None else loss + term
            loss.backward()
            for cell, _, _, _ in batches:
                for param in cell.parameters():
                    param.grad = None

        for _ in range(max(0, warmup_steps)):
            one_step()
        start = time.perf_counter()
        for _ in range(steps):
            one_step()
            if per_step_sleep > 0:
                time.sleep(per_step_sleep)
        per_step = (time.perf_counter() - start) / max(1, steps)

    result = {
        "dataset": dataset_name,
        "steps": steps,
        "dtype": np.dtype(dtype).name,
        "cell_seconds_per_step": per_step,
        "seconds_per_step": per_step,
    }
    if registry is not None:
        record_cell_metrics(registry, result)
    if reporter is not None:
        scratch = registry if registry is not None else MetricsRegistry()
        if registry is None:
            record_cell_metrics(scratch, result)
        reporter.emit("bench", name="cell", metrics=scratch.to_dict(), result=result)
    if history_path is not None:
        from repro.bench.history import append_entry, make_entry

        extra = {"injected_sleep": per_step_sleep} if per_step_sleep else None
        append_entry(history_path, make_entry(result, name="cell", extra=extra))
    return result


def record_cell_metrics(registry: MetricsRegistry, result: Dict) -> None:
    """Write one :func:`benchmark_cell` result into ``registry``."""
    labels = {"dataset": result["dataset"], "dtype": result["dtype"]}
    registry.gauge(
        "cell_seconds_per_step",
        help="all encoder recurrent cells, forward+backward",
    ).set(result["cell_seconds_per_step"], **labels)
    registry.counter("bench_steps_total", help="timed cell steps").inc(
        result["steps"], **labels
    )


def benchmark_eval(
    dataset_name: str = "YAGO",
    workers: int = 1,
    seed: int = 0,
    dtype: str = "float64",
    registry: Optional[MetricsRegistry] = None,
    reporter=None,
    per_step_sleep: float = 0.0,
    history_path: Optional[str] = None,
) -> Dict:
    """Time the full evaluation protocol at a given worker count.

    Runs :func:`~repro.parallel.evaluate_extrapolation_sharded` over the
    synthetic dataset's test split (``observe=True``, both tasks) and
    reports ``eval_seconds_per_step`` — wall-clock per test timestamp —
    plus the entity MRR, which must be identical across worker counts
    (the determinism contract; ``scripts/check_parallel_equivalence.py``
    gates on it).  ``cpus`` records the cores actually available so the
    speedup gate can tell "no parallel win" from "no parallel hardware".

    The model is untrained (fresh parameters, full train+valid history):
    scoring cost depends on history shape and embedding sizes, not on
    the parameter values, and skipping training keeps the 1/2/4/8-worker
    sweep cheap enough for CI.

    ``per_step_sleep`` injects that many seconds into every *timestamp
    block* inside the workers — the deterministic fault the CI drill
    uses; it is implemented here by wrapping the model's
    ``predict_entities``.
    """
    from repro.parallel import evaluate_extrapolation_sharded

    dataset = bench_dataset(dataset_name)
    profile = BENCH_PROFILES[dataset_name]
    model = RETIA(build_retia_config(dataset, profile, seed=seed, dtype=dtype))
    model.set_history(dataset.train)
    for t in dataset.valid.timestamps:
        model.record_snapshot(dataset.valid.snapshot(int(t)))
    model.eval()
    if per_step_sleep > 0:
        inner_predict = model.predict_entities

        def slowed(queries, ts):
            time.sleep(per_step_sleep)
            return inner_predict(queries, ts)

        model.predict_entities = slowed

    start = time.perf_counter()
    result_eval = evaluate_extrapolation_sharded(
        model,
        dataset.test,
        workers=workers,
        reporter=reporter,
        registry=registry,
    )
    total = time.perf_counter() - start

    steps = max(1, len(dataset.test.timestamps))
    result = {
        "dataset": dataset_name,
        "steps": len(dataset.test.timestamps),
        "dtype": model.config.dtype,
        "workers": workers,
        "cpus": os.cpu_count() or 1,
        "eval_seconds_per_step": total / steps,
        "total_seconds": total,
        "seconds_per_step": total / steps,
        "entity_mrr": result_eval.entity.get("MRR"),
        "relation_mrr": result_eval.relation.get("MRR"),
    }
    if registry is not None:
        record_eval_metrics(registry, result)
    if reporter is not None:
        scratch = registry if registry is not None else MetricsRegistry()
        if registry is None:
            record_eval_metrics(scratch, result)
        reporter.emit("bench", name="eval", metrics=scratch.to_dict(), result=result)
    if history_path is not None:
        from repro.bench.history import append_entry, make_entry

        extra = {"workers": workers, "cpus": result["cpus"]}
        if per_step_sleep:
            extra["injected_sleep"] = per_step_sleep
        append_entry(history_path, make_entry(result, name="eval", extra=extra))
    return result


def _peak_rss_mb() -> float:
    """Lifetime peak RSS of this process and its reaped children, in MB.

    ``ru_maxrss`` is a high-water mark that cannot be reset, and the
    blocked-scorer allocations of a sharded eval happen in fork-pool
    workers — so the honest figure is the max over SELF and CHILDREN,
    read *after* the measured phase.
    """
    import resource

    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    # Linux reports kilobytes; macOS reports bytes.
    if sys.platform == "darwin":
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


def benchmark_scale(
    dataset_name: str = "ICEWS-SCALE",
    workers: int = 2,
    seed: int = 0,
    dtype: str = "float64",
    scorer: str = "blocked:128:8192",
    spill: bool = True,
    registry: Optional[MetricsRegistry] = None,
    reporter=None,
    history_path: Optional[str] = None,
) -> Dict:
    """Time large-vocabulary eval through the memmap + blocked-scorer path.

    The honest large-N serving shape (DESIGN.md §9): evolve the history
    window *once*, spill the evolved entity/relation stacks to ``.npy``
    tables (:class:`repro.scale.EmbeddingStore` memmaps, unless
    ``spill=False``), then run the sharded evaluation protocol against a
    :class:`repro.scale.FrozenWindowModel` whose candidate scoring
    streams blocks off the tables.  The full ``(queries, entities)``
    score matrix never exists, so peak RSS stays bounded while the
    entity axis grows — ``peak_rss_mb`` (self + pool children) and
    ``scale_seconds_per_step`` are the figures
    ``scripts/check_scale_gate.py`` budgets.

    Relation-task scoring is skipped: its candidate axis is M, not N,
    and it would only add encoder-shaped noise to an entity-axis gate.
    """
    import tempfile

    from repro.parallel import evaluate_extrapolation_sharded
    from repro.scale import FrozenWindowModel, get_scorer

    dataset = bench_dataset(dataset_name)
    profile = BENCH_PROFILES[dataset_name]
    model = RETIA(build_retia_config(dataset, profile, seed=seed, dtype=dtype))
    model.set_history(dataset.train)
    for t in dataset.valid.timestamps:
        model.record_snapshot(dataset.valid.snapshot(int(t)))
    model.eval()

    first_ts = int(dataset.test.timestamps[0])
    strategy = get_scorer(scorer)
    with tempfile.TemporaryDirectory(prefix="repro-scale-") as spill_dir:
        freeze_start = time.perf_counter()
        frozen = FrozenWindowModel.freeze(
            model,
            first_ts,
            spill_dir=spill_dir if spill else None,
            scorer=strategy,
        )
        freeze_seconds = time.perf_counter() - freeze_start
        del model  # the encoder is out of the loop from here on

        start = time.perf_counter()
        result_eval = evaluate_extrapolation_sharded(
            frozen,
            dataset.test,
            evaluate_relations=False,
            workers=workers,
            reporter=reporter,
            registry=registry,
        )
        total = time.perf_counter() - start
        peak_rss_mb = _peak_rss_mb()

    steps = max(1, len(dataset.test.timestamps))
    result = {
        "dataset": dataset_name,
        "steps": len(dataset.test.timestamps),
        "dtype": dtype,
        "workers": workers,
        "cpus": os.cpu_count() or 1,
        "entities": dataset.num_entities,
        "scorer": frozen.scorer.spec(),
        "spill": bool(spill),
        "freeze_seconds": freeze_seconds,
        "scale_seconds_per_step": total / steps,
        "total_seconds": total,
        "seconds_per_step": total / steps,
        "peak_rss_mb": peak_rss_mb,
        "entity_mrr": result_eval.entity.get("MRR"),
    }
    if registry is not None:
        record_scale_metrics(registry, result)
    if reporter is not None:
        scratch = registry if registry is not None else MetricsRegistry()
        if registry is None:
            record_scale_metrics(scratch, result)
        reporter.emit("bench", name="scale", metrics=scratch.to_dict(), result=result)
    if history_path is not None:
        from repro.bench.history import append_entry, make_entry

        extra = {
            "workers": workers,
            "cpus": result["cpus"],
            "entities": result["entities"],
            "scorer": result["scorer"],
            "spill": result["spill"],
            "peak_rss_mb": peak_rss_mb,
        }
        append_entry(history_path, make_entry(result, name="scale", extra=extra))
    return result


def record_scale_metrics(registry: MetricsRegistry, result: Dict) -> None:
    """Write one :func:`benchmark_scale` result into ``registry``."""
    labels = {
        "dataset": result["dataset"],
        "dtype": result["dtype"],
        "workers": str(result["workers"]),
        "scorer": result["scorer"],
    }
    registry.gauge(
        "scale_seconds_per_step",
        help="large-vocabulary memmap eval wall-clock per test timestamp",
    ).set(result["scale_seconds_per_step"], **labels)
    registry.gauge(
        "scale_peak_rss_mb",
        help="peak RSS (self + pool children) over the memmap eval",
    ).set(result["peak_rss_mb"], **labels)
    registry.counter("bench_steps_total", help="timed eval timestamps").inc(
        result["steps"], **labels
    )


def record_eval_metrics(registry: MetricsRegistry, result: Dict) -> None:
    """Write one :func:`benchmark_eval` result into ``registry``."""
    labels = {
        "dataset": result["dataset"],
        "dtype": result["dtype"],
        "workers": str(result["workers"]),
    }
    registry.gauge(
        "eval_seconds_per_step",
        help="full evaluation protocol wall-clock per test timestamp",
    ).set(result["eval_seconds_per_step"], **labels)
    registry.counter("bench_steps_total", help="timed eval timestamps").inc(
        result["steps"], **labels
    )


def record_decoder_metrics(registry: MetricsRegistry, result: Dict) -> None:
    """Write one :func:`benchmark_decoder` result into ``registry``."""
    labels = {"dataset": result["dataset"], "dtype": result["dtype"]}
    registry.gauge(
        "decoder_seconds_per_step",
        help="one Eq. 11-14 decode + loss forward per training step",
    ).set(result["decoder_seconds_per_step"], **labels)
    registry.gauge(
        "train_seconds_per_step", help="full training step (loss + backward)"
    ).set(result["seconds_per_step"], **labels)
    registry.counter("bench_steps_total", help="timed training steps").inc(
        result["steps"], **labels
    )
    for phase_name, stats in result["phases"].items():
        registry.gauge(
            "phase_seconds", help="per-phase wall-clock over the timed loop"
        ).set(stats["seconds"], phase=phase_name, **labels)


def record_encoder_metrics(registry: MetricsRegistry, result: Dict) -> None:
    """Write one :func:`benchmark_encoder` result into ``registry``.

    Gauges are labeled by dataset so repeated runs over different
    datasets land in distinct series of the same metric family.
    """
    labels = {"dataset": result["dataset"]}
    registry.gauge(
        "encoder_seconds_per_step", help="one traced evolve() pass per training step"
    ).set(result["encoder_seconds_per_step"], **labels)
    registry.gauge(
        "train_seconds_per_step", help="full training step (loss + backward)"
    ).set(result["seconds_per_step"], **labels)
    registry.counter("bench_steps_total", help="timed training steps").inc(
        result["steps"], **labels
    )
    for phase_name, stats in result["phases"].items():
        registry.gauge(
            "phase_seconds", help="per-phase wall-clock over the timed loop"
        ).set(stats["seconds"], dataset=result["dataset"], phase=phase_name)
    cache = result["cache"]
    registry.counter("snapshot_cache_hits_total", help="SnapshotCache hits").inc(
        cache["hits"], **labels
    )
    registry.counter("snapshot_cache_misses_total", help="SnapshotCache misses").inc(
        cache["misses"], **labels
    )


_CACHE: Dict[Tuple[str, str], TrainedMethod] = {}
_DATASETS: Dict[str, TKGDataset] = {}


def bench_dataset(name: str) -> TKGDataset:
    if name not in _DATASETS:
        _DATASETS[name] = load_dataset(name)
    return _DATASETS[name]


def get_trained(method: str, dataset_name: str) -> TrainedMethod:
    """Train (or fetch the cached) method on a synthetic benchmark."""
    key = (method, dataset_name)
    if key not in _CACHE:
        dataset = bench_dataset(dataset_name)
        profile = BENCH_PROFILES[dataset_name]
        _CACHE[key] = TrainedMethod(method, dataset, profile)
    return _CACHE[key]


def retia_variant(dataset_name: str, tag: str, **config_overrides) -> TrainedMethod:
    """Train a RETIA ablation variant (cached under ``tag``)."""
    key = (f"RETIA[{tag}]", dataset_name)
    if key not in _CACHE:
        dataset = bench_dataset(dataset_name)
        profile = BENCH_PROFILES[dataset_name]

        def build(ds, prof):
            model = RETIA(build_retia_config(ds, prof, **config_overrides))
            config = TrainerConfig(
                epochs=prof.epochs_retia,
                patience=prof.patience,
                online_steps=prof.online_steps,
                seed=prof.seed,
            )
            trainer = Trainer(model, config)
            trainer.fit(ds.train, ds.valid)
            return model, trainer

        trained = TrainedMethod.__new__(TrainedMethod)
        trained.name = "RETIA"
        trained.dataset = dataset
        trained.profile = profile
        start = time.perf_counter()
        trained.model, trained.trainer = build(dataset, profile)
        trained.train_seconds = time.perf_counter() - start
        _CACHE[key] = trained
    return _CACHE[key]
