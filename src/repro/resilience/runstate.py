"""The resumable run-state schema.

A :class:`RunState` is everything :class:`~repro.core.trainer.Trainer`
needs to continue a killed run bit-for-bit: model parameters, optimizer
moments, every random-generator state, the position inside the current
epoch (including the shuffled batch order and partial loss sums), the
epoch log, early-stopping bookkeeping and the best-state snapshot.

Serialisation is a flat ``{str: np.ndarray}`` payload (one ``.npz``
archive): arrays go under prefixed keys (``model/``, ``best/``,
``optim/``), everything scalar — including the JSON-representable
bit-generator states — goes into a single ``meta`` JSON blob.  The
schema carries a ``version`` field; loaders reject versions they do not
understand rather than mis-restoring silently (see DESIGN.md, "RunState
schema and versioning").
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

RUNSTATE_VERSION = 1

_META_KEY = "meta"
_MODEL_PREFIX = "model/"
_BEST_PREFIX = "best/"
_OPTIM_PREFIX = "optim/"

#: fit() lifecycle values stored in ``RunState.status``.
STATUS_RUNNING = "running"
STATUS_INTERRUPTED = "interrupted"
STATUS_COMPLETED = "completed"


class RunStateError(ValueError):
    """A payload that is not a valid RunState of a known version."""


@dataclass
class RunState:
    """Complete snapshot of a :class:`~repro.core.trainer.Trainer` run."""

    # Position: `epoch` is the epoch currently (or next) being processed;
    # `batch_index` is the next position inside `order` (0 = epoch start,
    # in which case `order` is regenerated from the shuffle rng).
    epoch: int = 0
    batch_index: int = 0
    global_batch: int = 0
    order: List[int] = field(default_factory=list)

    # Partial sums of the in-flight epoch (mid-epoch checkpoints only).
    joint_sum: float = 0.0
    entity_sum: float = 0.0
    relation_sum: float = 0.0
    batches: int = 0
    epoch_nonfinite: int = 0

    # Early stopping.
    best_metric: float = -np.inf
    bad_epochs: int = 0

    # Sentinel bookkeeping (mirrors NonFiniteGuard.state_dict()).
    guard_state: dict = field(default_factory=dict)

    # Epoch log as plain dicts (EpochLog dataclass fields).
    log: List[dict] = field(default_factory=list)

    # Heavy state.
    model_state: Dict[str, np.ndarray] = field(default_factory=dict)
    best_state: Optional[Dict[str, np.ndarray]] = None
    optimizer_state: dict = field(default_factory=dict)

    # Random generators: the trainer's shuffle rng plus every distinct
    # generator inside the model tree (dropout/RReLU), in traversal order.
    trainer_rng_state: Optional[dict] = None
    model_rng_states: List[dict] = field(default_factory=list)

    # Precision policy of the model that produced this state.  Optional
    # in the meta blob (absent in pre-dtype version-1 archives, which
    # were all float64), so the schema version stays at 1.
    dtype: str = "float64"

    status: str = STATUS_RUNNING
    version: int = RUNSTATE_VERSION

    # ------------------------------------------------------------------
    # Flat-payload serialisation
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, np.ndarray]:
        """Flatten into an ``{key: array}`` dict ready for ``np.savez``."""
        payload: Dict[str, np.ndarray] = {}
        optim_meta: dict = {}
        for key, value in self.optimizer_state.items():
            if isinstance(value, list):
                for i, arr in enumerate(value):
                    payload[f"{_OPTIM_PREFIX}{key}/{i:04d}"] = np.asarray(arr)
            elif isinstance(value, np.ndarray):
                payload[f"{_OPTIM_PREFIX}{key}"] = value
            else:
                optim_meta[key] = value
        for name, arr in self.model_state.items():
            payload[_MODEL_PREFIX + name] = np.asarray(arr)
        if self.best_state is not None:
            for name, arr in self.best_state.items():
                payload[_BEST_PREFIX + name] = np.asarray(arr)
        meta = {
            "version": self.version,
            "status": self.status,
            "epoch": self.epoch,
            "batch_index": self.batch_index,
            "global_batch": self.global_batch,
            "order": [int(t) for t in self.order],
            "joint_sum": self.joint_sum,
            "entity_sum": self.entity_sum,
            "relation_sum": self.relation_sum,
            "batches": self.batches,
            "epoch_nonfinite": self.epoch_nonfinite,
            # -inf is not valid JSON; use None as the sentinel.
            "best_metric": None if np.isneginf(self.best_metric) else self.best_metric,
            "bad_epochs": self.bad_epochs,
            "guard_state": self.guard_state,
            "log": self.log,
            "has_best_state": self.best_state is not None,
            "optimizer_meta": optim_meta,
            "trainer_rng_state": self.trainer_rng_state,
            "model_rng_states": self.model_rng_states,
            "dtype": self.dtype,
        }
        payload[_META_KEY] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        )
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, np.ndarray]) -> "RunState":
        """Rebuild from a payload produced by :meth:`to_payload`."""
        if _META_KEY not in payload:
            raise RunStateError("payload has no 'meta' entry; not a RunState archive")
        try:
            meta = json.loads(bytes(payload[_META_KEY]).decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise RunStateError(f"unreadable RunState meta blob: {exc}") from exc
        version = meta.get("version")
        if version != RUNSTATE_VERSION:
            raise RunStateError(
                f"unsupported RunState version {version!r} "
                f"(this build reads version {RUNSTATE_VERSION})"
            )
        # Archives written while data-parallel training existed carry the
        # run's gradient-shard plan; 0 was the serial path.  A sharded
        # run's moments and RNG streams cannot be continued serially
        # bit-for-bit, so such archives are refused rather than resumed.
        grad_shards = meta.get("grad_shards", 0)
        if grad_shards != 0:
            raise RunStateError(
                f"RunState meta has grad_shards={grad_shards!r}; only serial "
                f"checkpoints (grad_shards absent or 0) can be resumed"
            )
        model_state: Dict[str, np.ndarray] = {}
        best_state: Dict[str, np.ndarray] = {}
        optim_arrays: Dict[str, object] = {}
        for key, value in payload.items():
            if key == _META_KEY:
                continue
            if key.startswith(_MODEL_PREFIX):
                model_state[key[len(_MODEL_PREFIX):]] = value
            elif key.startswith(_BEST_PREFIX):
                best_state[key[len(_BEST_PREFIX):]] = value
            elif key.startswith(_OPTIM_PREFIX):
                rest = key[len(_OPTIM_PREFIX):]
                name, _, index = rest.partition("/")
                if index:
                    optim_arrays.setdefault(name, {})[int(index)] = value
                else:
                    optim_arrays[name] = value
        optimizer_state = dict(meta.get("optimizer_meta", {}))
        for name, value in optim_arrays.items():
            if isinstance(value, dict):
                optimizer_state[name] = [value[i] for i in sorted(value)]
            else:
                optimizer_state[name] = value
        best_metric = meta["best_metric"]
        return cls(
            epoch=int(meta["epoch"]),
            batch_index=int(meta["batch_index"]),
            global_batch=int(meta["global_batch"]),
            order=[int(t) for t in meta["order"]],
            joint_sum=float(meta["joint_sum"]),
            entity_sum=float(meta["entity_sum"]),
            relation_sum=float(meta["relation_sum"]),
            batches=int(meta["batches"]),
            epoch_nonfinite=int(meta["epoch_nonfinite"]),
            best_metric=-np.inf if best_metric is None else float(best_metric),
            bad_epochs=int(meta["bad_epochs"]),
            guard_state=meta.get("guard_state", {}),
            log=list(meta.get("log", [])),
            model_state=model_state,
            best_state=best_state if meta.get("has_best_state") else None,
            optimizer_state=optimizer_state,
            trainer_rng_state=meta.get("trainer_rng_state"),
            model_rng_states=list(meta.get("model_rng_states", [])),
            dtype=str(meta.get("dtype", "float64")),
            status=str(meta.get("status", STATUS_RUNNING)),
            version=int(version),
        )
