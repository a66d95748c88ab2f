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

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

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


def _temporal(cls):
    """A static trainer for a time-aware embedding model (T + 1 timestamps)."""
    return _static(
        lambda d, p: cls(
            d.num_entities, d.num_relations, d.graph.num_timestamps + 1, p.dim, seed=p.seed
        )
    )


def _recurrent_gcn(cls):
    """A dynamic trainer for an evolutional GCN baseline (RE-GCN family)."""
    return _dynamic(
        lambda d, p: cls(
            d.num_entities,
            d.num_relations,
            p.dim,
            p.history_length,
            num_kernels=p.num_kernels,
            seed=p.seed,
        )
    )


METHOD_BUILDERS: Dict[str, Callable] = {
    "DistMult": _static(lambda d, p: DistMult(d.num_entities, d.num_relations, p.dim, seed=p.seed)),
    "ConvE": _static(
        lambda d, p: ConvEModel(
            d.num_entities, d.num_relations, p.dim, reshape_height=4, channels=6, seed=p.seed
        )
    ),
    "ComplEx": _static(lambda d, p: ComplEx(d.num_entities, d.num_relations, p.dim, seed=p.seed)),
    "Conv-TransE": _static(
        lambda d, p: ConvTransEModel(
            d.num_entities, d.num_relations, p.dim, p.num_kernels, seed=p.seed
        )
    ),
    "RotatE": _static(
        lambda d, p: RotatE(d.num_entities, d.num_relations, p.dim // 2, seed=p.seed)
    ),
    "R-GCN": _static(lambda d, p: RGCNStatic(d.num_entities, d.num_relations, p.dim, seed=p.seed)),
    "TTransE": _temporal(TTransE),
    "HyTE": _temporal(HyTE),
    "TA-DistMult": _temporal(TADistMult),
    "HistoryFreq": _history_frequency,
    "CyGNet": _dynamic(
        lambda d, p: CyGNet(d.num_entities, d.num_relations, p.dim, p.history_length, seed=p.seed)
    ),
    "RE-NET": _dynamic(
        lambda d, p: RENet(d.num_entities, d.num_relations, p.dim, p.history_length, seed=p.seed)
    ),
    "RGCRN": _recurrent_gcn(RGCRN),
    "RE-GCN": _recurrent_gcn(REGCN),
    "CEN": _recurrent_gcn(CEN),
    "TiRGN": _recurrent_gcn(TiRGN),
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


_CACHE: Dict[Tuple[str, str], TrainedMethod] = {}
_DATASETS: Dict[str, TKGDataset] = {}


def bench_dataset(name: str) -> TKGDataset:
    if name not in _DATASETS:
        _DATASETS[name] = load_dataset(name)
    return _DATASETS[name]


def revealed_model(dataset: TKGDataset, *, seed: int, dtype: str) -> RETIA:
    """An untrained bench-profile RETIA with train+valid history, in eval mode.

    Scoring and serving cost depend on history shape and embedding
    sizes, not on parameter values, so ``repro.cli serve`` skips
    training.
    """
    config = build_retia_config(dataset, BENCH_PROFILES[dataset.name], seed=seed, dtype=dtype)
    model = RETIA(config)
    model.set_history(dataset.train)
    for t in dataset.valid.timestamps:
        model.record_snapshot(dataset.valid.snapshot(int(t)))
    model.eval()
    return model


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
