"""Training loops: general training and online continuous training.

The paper (Section III-F and IV-A4) trains with each timestamp as a
batch, sums decoder probabilities over the last-k historical snapshots
(time-variability, Eq. 13-14), early-stops when validation performance
fails to improve for five consecutive epochs, and — during evaluation —
keeps updating on newly revealed timestamps ("online continuous
training").

Both loops run on the fault-tolerant runtime in
:mod:`repro.resilience`: every backward/step is guarded against
NaN/Inf (skip the batch, roll back, back off the learning rate after
repeated failures), and when a :class:`~repro.resilience.ResilienceConfig`
with a checkpoint directory is given, ``fit`` writes atomic, checksummed
:class:`~repro.resilience.RunState` checkpoints it can resume from
bit-for-bit — the shuffled batch order, partial epoch sums and every
random-generator state are part of the checkpoint, so a run killed at
batch *k* and resumed matches the uninterrupted run exactly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Optional, Union

import numpy as np

import time

from repro.core.forecaster import SequentialForecaster, validate_snapshot_ids
from repro.eval import evaluate_extrapolation
from repro.graph import Snapshot, TemporalKG
from repro.nn import Adam
from repro.obs import SCHEMA_VERSION, ProbeConfig, ProbeSuite, RunReporter, tracing
from repro.resilience import (
    STATUS_COMPLETED,
    STATUS_INTERRUPTED,
    STATUS_RUNNING,
    CheckpointManager,
    FaultInjector,
    GracefulInterrupt,
    NonFiniteGuard,
    ResilienceConfig,
    RunState,
    RunStateError,
    TrainingInterrupted,
    load_run_state,
)
from repro.utils import seeded_rng


@dataclass(frozen=True)
class TrainerConfig:
    """Knobs for :class:`Trainer`."""

    epochs: int = 10
    lr: float = 1e-3
    weight_decay: float = 0.0
    grad_clip: float = 1.0
    patience: int = 5
    shuffle: bool = True
    online_steps: int = 1
    online_lr: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.online_steps < 1:
            raise ValueError(f"online_steps must be >= 1, got {self.online_steps}")


@dataclass
class EpochLog:
    """Loss trace of one epoch (the Fig. 3/4 convergence curves)."""

    epoch: int
    loss_joint: float
    loss_entity: float
    loss_relation: float
    valid_mrr: Optional[float] = None
    #: batches skipped by the non-finite sentinel this epoch.
    nonfinite_skips: int = 0
    #: learning rate at the end of the epoch (changes under backoff).
    lr: Optional[float] = None


class Trainer:
    """General training driver for any
    :class:`~repro.core.forecaster.SequentialForecaster` (RETIA and the
    extrapolation baselines)."""

    def __init__(
        self,
        model: SequentialForecaster,
        config: TrainerConfig = TrainerConfig(),
        resilience: Optional[ResilienceConfig] = None,
        fault_injector: Optional[FaultInjector] = None,
        reporter: Optional[RunReporter] = None,
        probes: Union[None, ProbeConfig, ProbeSuite] = None,
    ):
        self.model = model
        self.config = config
        self.resilience = resilience or ResilienceConfig(handle_signals=False)
        self.fault_injector = fault_injector
        self.reporter = reporter
        self.optimizer = Adam(
            model.parameters(), lr=config.lr, weight_decay=config.weight_decay
        )
        # Introspection probes (repro.obs.probes): a ProbeConfig builds a
        # suite against this trainer's optimizer; a ready-made ProbeSuite
        # is used as-is (tests inject one with their own registry).
        if isinstance(probes, ProbeConfig):
            probes = ProbeSuite(model, self.optimizer, probes, reporter=reporter)
        self.probes: Optional[ProbeSuite] = probes
        self.guard = NonFiniteGuard(self.optimizer, self.resilience.sentinel_config())
        if reporter is not None:
            self.guard.on_skip = self._report_skip
        self.checkpoints: Optional[CheckpointManager] = None
        if self.resilience.checkpoint_dir is not None:
            self.checkpoints = CheckpointManager(
                self.resilience.checkpoint_dir, keep=self.resilience.keep
            )
        self.log: List[EpochLog] = []
        self._rng = seeded_rng(config.seed)
        self._global_batch = 0
        self._current_epoch = 0

    # ------------------------------------------------------------------
    # Run-report emission (all no-ops when no reporter is attached)
    # ------------------------------------------------------------------
    def _report_skip(self, stage: str) -> None:
        self.reporter.emit(
            "nonfinite_skip",
            epoch=self._current_epoch,
            global_batch=self._global_batch,
            stage=stage,
            lr=self.optimizer.lr,
        )

    def _report_checkpoint(self, path: Optional[str], epoch: int, kind: str) -> None:
        if self.reporter is not None and path is not None:
            self.reporter.emit(
                "checkpoint",
                path=path,
                epoch=epoch,
                global_batch=self._global_batch,
                kind=kind,
            )

    # ------------------------------------------------------------------
    # Run-state capture / restore
    # ------------------------------------------------------------------
    def _capture(
        self,
        epoch: int,
        batch_index: int,
        order: List[int],
        sums: dict,
        best_metric: float,
        best_state,
        bad_epochs: int,
        status: str,
    ) -> RunState:
        return RunState(
            epoch=epoch,
            batch_index=batch_index,
            global_batch=self._global_batch,
            order=list(order),
            joint_sum=sums["joint"],
            entity_sum=sums["entity"],
            relation_sum=sums["relation"],
            batches=sums["batches"],
            epoch_nonfinite=sums["nonfinite"],
            best_metric=best_metric,
            bad_epochs=bad_epochs,
            guard_state=self.guard.state_dict(),
            log=[asdict(entry) for entry in self.log],
            model_state=self.model.state_dict(),
            best_state=best_state,
            optimizer_state=self.optimizer.state_dict(),
            trainer_rng_state=self._rng.bit_generator.state,
            model_rng_states=self.model.rng_state(),
            dtype=self._model_dtype(),
            status=status,
        )

    def _model_dtype(self) -> str:
        """Canonical dtype name of the trained model ("float64" default)."""
        config = getattr(self.model, "config", None)
        dtype = getattr(config, "dtype", None)
        if dtype is None:
            params = self.model.parameters()
            return params[0].data.dtype.name if params else "float64"
        return np.dtype(dtype).name

    def _restore(self, state: RunState) -> None:
        own_dtype = self._model_dtype()
        if state.dtype != own_dtype:
            raise RunStateError(
                f"checkpoint was trained in {state.dtype} but the model is "
                f"{own_dtype}; cross-dtype resume is not bit-exact — rebuild "
                f"the model with dtype={state.dtype!r} (or retrain)"
            )
        self.model.load_state_dict(state.model_state)
        self.model.mark_updated()
        self.optimizer.load_state_dict(state.optimizer_state)
        self.guard.load_state_dict(state.guard_state)
        if state.trainer_rng_state is not None:
            self._rng.bit_generator.state = state.trainer_rng_state
        if state.model_rng_states:
            self.model.set_rng_state(state.model_rng_states)
        self.log = [EpochLog(**entry) for entry in state.log]
        self._global_batch = state.global_batch

    def _resolve_resume(
        self, resume: Union[None, bool, str, RunState]
    ) -> Optional[RunState]:
        if resume is None or resume is False:
            return None
        if isinstance(resume, RunState):
            return resume
        if resume is True:
            if self.checkpoints is None:
                raise ValueError(
                    "resume=True needs a ResilienceConfig with a checkpoint_dir"
                )
            if self.checkpoints.latest() is None:
                return None  # nothing saved yet: start fresh
            state, _ = self.checkpoints.load_latest()
            return state
        return load_run_state(resume)

    # ------------------------------------------------------------------
    # General training
    # ------------------------------------------------------------------
    def fit(
        self,
        train: TemporalKG,
        valid: Optional[TemporalKG] = None,
        resume: Union[None, bool, str, RunState] = None,
    ) -> List[EpochLog]:
        """Train on ``train``; early-stop on validation entity MRR.

        ``resume`` restarts a checkpointed run: ``True`` picks the
        newest verified checkpoint in the configured directory (falling
        back over corrupt files), a path loads that exact file, and a
        :class:`~repro.resilience.RunState` is used directly.  Returns
        the per-epoch loss log (also kept on ``self.log``).

        With a :class:`~repro.obs.RunReporter` attached, the run streams
        one JSONL event per epoch / evaluation / checkpoint / non-finite
        skip, terminated by a ``run_end`` whose status reflects how the
        run actually ended (``completed`` / ``interrupted`` /
        ``failed``).
        """
        try:
            return self._fit(train, valid, resume)
        except TrainingInterrupted:
            self._report_end("interrupted")
            raise
        except BaseException:
            self._report_end("failed")
            raise

    def _report_end(self, status: str) -> None:
        # Only close a report this fit actually opened (run_start first).
        if self.reporter is not None and self.reporter.seq > 0:
            self.reporter.emit(
                "run_end", status=status, epochs_completed=len(self.log)
            )

    def _fit(
        self,
        train: TemporalKG,
        valid: Optional[TemporalKG],
        resume: Union[None, bool, str, RunState],
    ) -> List[EpochLog]:
        cfg = self.config
        res = self.resilience
        model = self.model
        model.set_history(train)
        # Every timestamp with at least one preceding timestamp is a
        # training batch (paper: "each timestamp as a batch").
        target_times = [int(t) for t in train.timestamps[1:]]
        # Warm the per-snapshot preprocessing cache before the first
        # timed step so hypergraph construction and edge sorting never
        # show up as a cold-start spike inside epoch 1.
        cache = getattr(model, "snapshot_cache", None)
        if cache is not None and cache.max_entries:
            cache.warm(train.snapshots())
            if valid is not None:
                # Validation history reuses these every epoch.
                cache.warm(valid.snapshots())
            if self.probes is not None and self.probes.registry is not None:
                cache.publish(self.probes.registry)

        state = self._resolve_resume(resume)
        if self.reporter is not None:
            self.reporter.emit(
                "run_start",
                schema_version=SCHEMA_VERSION,
                command="Trainer.fit",
                config=asdict(cfg),
                resumed=state is not None,
                batches_per_epoch=len(target_times),
            )
        if state is not None:
            self._restore(state)
            if state.status == STATUS_COMPLETED:
                model.eval()
                if self.reporter is not None:
                    self.reporter.emit(
                        "run_end", status="completed", epochs_completed=len(self.log)
                    )
                return self.log
            start_epoch = state.epoch
            best_metric = state.best_metric
            best_state = state.best_state
            bad_epochs = state.bad_epochs
            pending = state if state.batch_index > 0 else None
        else:
            start_epoch = 0
            best_metric = -np.inf
            best_state = None
            bad_epochs = 0
            pending = None

        every = res.checkpoint_every_batches if self.checkpoints else 0
        with GracefulInterrupt(enabled=res.handle_signals) as interrupt:
            for epoch in range(start_epoch, cfg.epochs):
                self._current_epoch = epoch
                model.train()
                if pending is not None:
                    order = list(pending.order)
                    start_index = pending.batch_index
                    sums = {
                        "joint": pending.joint_sum,
                        "entity": pending.entity_sum,
                        "relation": pending.relation_sum,
                        "batches": pending.batches,
                        "nonfinite": pending.epoch_nonfinite,
                    }
                    pending = None
                else:
                    order = list(target_times)
                    if cfg.shuffle:
                        self._rng.shuffle(order)
                    start_index = 0
                    sums = {
                        "joint": 0.0, "entity": 0.0, "relation": 0.0,
                        "batches": 0, "nonfinite": 0,
                    }

                # Telemetry: with a reporter attached, trace the batch
                # loop's spans (hypergraph / ram / eam / decoder and
                # their children) so the epoch event carries per-phase
                # time shares and the span-balance invariant.
                collector = (
                    tracing.SpanCollector() if self.reporter is not None else None
                )
                epoch_start = time.perf_counter()
                if collector is not None:
                    span_guard = tracing.collect_spans(collector)
                    span_guard.__enter__()
                try:
                    for index in range(start_index, len(order)):
                        snapshot = train.snapshot(order[index])
                        if snapshot.is_empty:
                            continue
                        if self.fault_injector is not None:
                            self.fault_injector.on_batch_start(self._global_batch)
                        # Probe arming must precede the forward pass so
                        # the TIM gate statistics cover this batch; the
                        # no-probe path costs one ``is None`` check.
                        probing = self.probes is not None and self.probes.arm(
                            self._global_batch
                        )
                        joint, loss_e, loss_r = model.loss_on_snapshot(snapshot)
                        if self.fault_injector is not None:
                            self.fault_injector.poison_loss(joint, self._global_batch)
                        if probing:
                            self.probes.before_step()
                        stepped = self.guard.guarded_step(joint, cfg.grad_clip)
                        if probing:
                            self.probes.after_step(
                                epoch, self._global_batch, stepped
                            )
                        if stepped:
                            model.mark_updated()
                            sums["joint"] += joint.item()
                            sums["entity"] += loss_e.item()
                            sums["relation"] += loss_r.item()
                            sums["batches"] += 1
                        else:
                            sums["nonfinite"] += 1
                        self._global_batch += 1

                        if interrupt.triggered:
                            path = None
                            if self.checkpoints is not None:
                                path = self.checkpoints.save(self._capture(
                                    epoch, index + 1, order, sums,
                                    best_metric, best_state, bad_epochs,
                                    STATUS_INTERRUPTED,
                                ))
                                self._report_checkpoint(path, epoch, "interrupt")
                            raise TrainingInterrupted(
                                f"interrupted by signal {interrupt.signal_number} "
                                f"at epoch {epoch}, batch {index + 1}/{len(order)}",
                                checkpoint_path=path,
                                signal_number=interrupt.signal_number,
                            )
                        if every and self._global_batch % every == 0:
                            path = self.checkpoints.save(self._capture(
                                epoch, index + 1, order, sums,
                                best_metric, best_state, bad_epochs, STATUS_RUNNING,
                            ))
                            self._report_checkpoint(path, epoch, "periodic")
                finally:
                    if collector is not None:
                        span_guard.__exit__(None, None, None)
                epoch_seconds = time.perf_counter() - epoch_start

                # Average over the batches actually processed: empty
                # snapshots and sentinel-skipped batches must not
                # deflate the epoch losses.
                count = max(1, sums["batches"])
                entry = EpochLog(
                    epoch=epoch,
                    loss_joint=sums["joint"] / count,
                    loss_entity=sums["entity"] / count,
                    loss_relation=sums["relation"] / count,
                    nonfinite_skips=sums["nonfinite"],
                    lr=self.optimizer.lr,
                )

                if valid is not None and len(valid):
                    entry.valid_mrr = self.validate(valid)
                    metric = entry.valid_mrr
                    if self.reporter is not None:
                        self.reporter.emit(
                            "eval",
                            epoch=epoch,
                            metric="valid_mrr",
                            value=entry.valid_mrr,
                        )
                else:
                    metric = -entry.loss_joint
                self.log.append(entry)
                if self.reporter is not None:
                    self.reporter.emit(
                        "epoch",
                        epoch=epoch,
                        loss_joint=entry.loss_joint,
                        loss_entity=entry.loss_entity,
                        loss_relation=entry.loss_relation,
                        lr=entry.lr,
                        nonfinite_skips=entry.nonfinite_skips,
                        batches=sums["batches"],
                        global_batch=self._global_batch,
                        seconds=epoch_seconds,
                        phase_seconds=collector.summary(max_depth=0),
                        spans_open=collector.open_count,
                        spans_recorded=len(collector.spans),
                        spans_dropped=collector.dropped,
                        valid_mrr=entry.valid_mrr,
                    )

                stop = False
                if metric > best_metric + 1e-9:
                    best_metric = metric
                    best_state = model.state_dict()
                    bad_epochs = 0
                else:
                    bad_epochs += 1
                    stop = bad_epochs >= cfg.patience

                if self.checkpoints is not None:
                    empty = {
                        "joint": 0.0, "entity": 0.0, "relation": 0.0,
                        "batches": 0, "nonfinite": 0,
                    }
                    path = self.checkpoints.save(self._capture(
                        epoch + 1, 0, [], empty,
                        best_metric, best_state, bad_epochs, STATUS_RUNNING,
                    ))
                    self._report_checkpoint(path, epoch + 1, "epoch")
                if interrupt.triggered:
                    path = None
                    if self.checkpoints is not None:
                        path = self.checkpoints.latest()
                    raise TrainingInterrupted(
                        f"interrupted by signal {interrupt.signal_number} "
                        f"after epoch {epoch}",
                        checkpoint_path=path,
                        signal_number=interrupt.signal_number,
                    )
                if stop:
                    break

        if best_state is not None:
            model.load_state_dict(best_state)
            model.mark_updated()
        model.eval()
        if self.checkpoints is not None:
            empty = {
                "joint": 0.0, "entity": 0.0, "relation": 0.0,
                "batches": 0, "nonfinite": 0,
            }
            path = self.checkpoints.save(self._capture(
                cfg.epochs, 0, [], empty,
                best_metric, best_state, bad_epochs, STATUS_COMPLETED,
            ))
            self._report_checkpoint(path, cfg.epochs, "final")
        if self.reporter is not None:
            self.reporter.emit(
                "run_end", status="completed", epochs_completed=len(self.log)
            )
        return self.log

    def validate(self, valid: TemporalKG) -> float:
        """Entity MRR on a validation graph, leaving history untouched."""
        model = self.model
        saved_history = dict(model._history)
        try:
            result = evaluate_extrapolation(
                model, valid, evaluate_relations=False, observe=True
            )
        finally:
            model._history = saved_history
            model.mark_updated()
        return result.entity["MRR"]

    # ------------------------------------------------------------------
    # Online continuous training
    # ------------------------------------------------------------------
    def online_adapter(self, reporter: Optional[RunReporter] = None) -> "OnlineAdapter":
        """Wrap the model for evaluation with online continuous training."""
        return OnlineAdapter(
            self.model, self.config, self.resilience, reporter=reporter
        )


class OnlineAdapter:
    """ExtrapolationModel wrapper that trains on each revealed snapshot.

    Forecasting delegates to the model; ``observe`` first takes
    ``online_steps`` gradient steps on the revealed facts (using the
    history before them) and then records the snapshot, matching the
    paper's online continuous-training protocol.  Each step runs under
    the same non-finite sentinel as general training: a poisoned
    snapshot is recorded but its gradient step is skipped, with the
    skip counted on :attr:`nonfinite_skips`.  :attr:`steps_taken` counts
    the gradient steps that were applied, over every ``observe``.
    """

    def __init__(
        self,
        model: SequentialForecaster,
        config: TrainerConfig,
        resilience: Optional[ResilienceConfig] = None,
        reporter: Optional[RunReporter] = None,
        fault_injector=None,
    ):
        self.model = model
        self.config = config
        self.reporter = reporter
        self.fault_injector = fault_injector
        self.observed = 0
        self.steps_taken = 0
        self.optimizer = Adam(model.parameters(), lr=config.online_lr)
        sentinel = (resilience or ResilienceConfig()).sentinel_config()
        self.guard = NonFiniteGuard(self.optimizer, sentinel)

    @property
    def nonfinite_skips(self) -> int:
        return self.guard.total_skips

    def predict_entities(self, queries: np.ndarray, ts: int) -> np.ndarray:
        return self.model.predict_entities(queries, ts)

    def predict_relations(self, pairs: np.ndarray, ts: int) -> np.ndarray:
        return self.model.predict_relations(pairs, ts)

    def observe(self, snapshot: Snapshot) -> None:
        # Out-of-vocab facts must fail loudly here (ValueError naming the
        # ids and bounds), not as an IndexError inside an embedding
        # gather three frames down — the serve ingest path depends on it.
        validate_snapshot_ids(snapshot, self.model.num_entities, self.model.num_relations)
        observe_index = self.observed
        self.observed += 1
        # Drop accounting rides along when a collector is installed
        # (serve traces the ingest path); 0 otherwise.
        active_collector = tracing.active()
        if snapshot.is_empty:
            self.model.record_snapshot(snapshot)
            if self.reporter is not None:
                self.reporter.emit(
                    "observe",
                    time=snapshot.time,
                    facts=0,
                    steps=0,
                    skips=0,
                    spans_dropped=(
                        active_collector.dropped if active_collector else 0
                    ),
                )
            return
        skips_before = self.guard.total_skips
        stepped = 0
        self.model.train()
        for _ in range(self.config.online_steps):
            joint, _, _ = self.model.loss_on_snapshot(snapshot)
            if self.fault_injector is not None:
                self.fault_injector.poison_loss(joint, observe_index)
            if self.guard.guarded_step(joint, self.config.grad_clip):
                self.model.mark_updated()
                stepped += 1
        self.steps_taken += stepped
        self.model.eval()
        self.model.record_snapshot(snapshot)
        if self.reporter is not None:
            self.reporter.emit(
                "observe",
                time=snapshot.time,
                facts=len(snapshot),
                steps=stepped,
                skips=self.guard.total_skips - skips_before,
                spans_dropped=(
                    active_collector.dropped if active_collector else 0
                ),
            )
