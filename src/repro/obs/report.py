"""JSONL run reports: one event per epoch/eval/checkpoint/skip.

A :class:`RunReporter` appends one JSON object per line to a ``run.jsonl``
file.  Every event carries the envelope fields ``event`` (type), ``seq``
(strictly increasing per run, the CI monotonicity invariant) and ``t``
(seconds since the reporter opened), plus the type's required fields —
see :data:`EVENT_SCHEMAS`, which is the single source of truth shared by
the writer (validation at emit time), ``repro.cli report`` and
``scripts/check_run_health.py``.

The reporter is cheap and crash-friendly: each event is one ``write`` +
``flush``, so a killed run leaves a readable prefix that the health
check can diagnose (truncated final line, missing ``run_end``).
"""

from __future__ import annotations

import io
import json
import time
from typing import Dict, Iterable, List, Optional, Union

SCHEMA_VERSION = 1

#: Event type → required payload fields (beyond the envelope
#: ``event``/``seq``/``t``).  Extra fields are always allowed.
EVENT_SCHEMAS: Dict[str, tuple] = {
    # Run lifecycle.
    "run_start": ("schema_version", "command", "config"),
    "run_end": ("status", "epochs_completed"),
    # One per training epoch (the EpochLog, plus telemetry).
    "epoch": (
        "epoch",
        "loss_joint",
        "loss_entity",
        "loss_relation",
        "lr",
        "nonfinite_skips",
        "batches",
        "global_batch",
        "seconds",
        "phase_seconds",
        "spans_open",
    ),
    # Validation / test evaluations.
    "eval": ("epoch", "metric", "value"),
    # Resilience machinery.
    "checkpoint": ("path", "epoch", "global_batch", "kind"),
    "nonfinite_skip": ("epoch", "global_batch", "stage"),
    # Online continuous training.
    "observe": ("time", "facts", "steps", "skips"),
    # Sharded evaluation: one per worker slot per batch run; ``scope``
    # is always "eval".
    "worker": ("scope", "worker", "shards", "seconds"),
    # Model introspection: one per probe firing (repro.obs.probes).
    "probe": (
        "epoch",
        "global_batch",
        "cadence",
        "stepped",
        "grad_norm",
        "modules",
        "embeddings",
        "gates",
    ),
    # Evaluation diagnostics (repro.eval.diagnostics decomposition).
    "diagnostic": ("task", "setting", "aggregate", "relations", "timestamps"),
    # Serving layer (repro.serve; invariants replayed by
    # scripts/check_run_health.py — see DESIGN.md §8).
    "request": ("kind", "status", "staleness", "latency_ms"),
    "shed": ("kind", "reason"),
    "refresh_retry": ("ts", "attempt", "outcome", "backoff_ms"),
    "breaker_transition": ("from_state", "to_state", "reason"),
    "degraded": ("ts", "staleness", "reason"),
    "drain": ("requests", "shed", "errors", "deadline_exceeded", "clean"),
    # SLO burn-rate alerting (repro.obs.slo): states strictly alternate
    # firing -> resolved per SLO and a terminated stream ends resolved.
    "alert": ("slo", "state", "burn_fast", "burn_slow", "reason"),
}

#: Legal ``refresh_retry`` outcomes.
REFRESH_OUTCOMES = ("ok", "failed", "gave_up")
#: Legal ``shed`` reasons — every shed must be explained by one of these.
SHED_REASONS = ("queue_full", "draining", "deadline", "breaker_open")

RUN_END_STATUSES = ("completed", "interrupted", "failed")


class ReportError(ValueError):
    """A malformed event or an unreadable report file."""


class RunReporter:
    """Streams schema-validated JSONL events for one run."""

    def __init__(self, sink: Union[str, io.TextIOBase], clock=time.perf_counter):
        self._clock = clock
        self._start = clock()
        self.seq = 0
        self.path: Optional[str] = None
        if isinstance(sink, (str, bytes)):
            self.path = str(sink)
            self._fh = open(sink, "w", encoding="utf-8")
            self._owns = True
        else:
            self._fh = sink
            self._owns = False
        self._closed = False

    # ------------------------------------------------------------------
    def emit(self, event: str, **fields) -> dict:
        """Validate, serialise and flush one event; returns the record."""
        schema = EVENT_SCHEMAS.get(event)
        if schema is None:
            raise ReportError(f"unknown event type {event!r}")
        missing = [name for name in schema if name not in fields]
        if missing:
            raise ReportError(f"event {event!r} missing required fields {missing}")
        record = {
            "event": event,
            "seq": self.seq,
            "t": round(self._clock() - self._start, 6),
            **fields,
        }
        line = json.dumps(record, sort_keys=False, default=_json_default)
        self._fh.write(line + "\n")
        self._fh.flush()
        self.seq += 1
        return record

    def close(self) -> None:
        if self._owns and not self._closed:
            self._fh.close()
        self._closed = True

    def __enter__(self) -> "RunReporter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _json_default(value):
    """Serialise numpy scalars/arrays without importing numpy here."""
    if hasattr(value, "item"):
        return value.item()
    if hasattr(value, "tolist"):
        return value.tolist()
    raise TypeError(f"not JSON serialisable: {type(value).__name__}")


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
def read_events(source: Union[str, Iterable[str]], strict: bool = True) -> List[dict]:
    """Parse a run report into event dicts.

    ``strict`` validates each event against :data:`EVENT_SCHEMAS` and the
    envelope (``event``/``seq``/``t`` present, ``seq`` strictly
    increasing from 0); violations raise :class:`ReportError` with the
    offending line number.
    """
    if isinstance(source, (str, bytes)):
        with open(source, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    else:
        lines = list(source)

    events: List[dict] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ReportError(f"line {lineno}: invalid JSON ({exc})") from exc
        if not isinstance(record, dict):
            raise ReportError(f"line {lineno}: event must be an object")
        if strict:
            _validate(record, lineno, expected_seq=len(events))
        events.append(record)
    return events


def _validate(record: dict, lineno: int, expected_seq: int) -> None:
    for field in ("event", "seq", "t"):
        if field not in record:
            raise ReportError(f"line {lineno}: missing envelope field {field!r}")
    event = record["event"]
    schema = EVENT_SCHEMAS.get(event)
    if schema is None:
        raise ReportError(f"line {lineno}: unknown event type {event!r}")
    missing = [name for name in schema if name not in record]
    if missing:
        raise ReportError(
            f"line {lineno}: event {event!r} missing required fields {missing}"
        )
    if record["seq"] != expected_seq:
        raise ReportError(
            f"line {lineno}: seq {record['seq']} breaks monotone counter "
            f"(expected {expected_seq})"
        )


# ----------------------------------------------------------------------
# Summaries (shared by ``repro.cli report`` and the health check)
# ----------------------------------------------------------------------
def summarize_run(events: List[dict]) -> dict:
    """Aggregate a run's events into one reconstructed-run dict."""
    epochs = [e for e in events if e["event"] == "epoch"]
    evals = [e for e in events if e["event"] == "eval"]
    checkpoints = [e for e in events if e["event"] == "checkpoint"]
    skips = [e for e in events if e["event"] == "nonfinite_skip"]
    observes = [e for e in events if e["event"] == "observe"]
    start = next((e for e in events if e["event"] == "run_start"), None)
    end = next((e for e in reversed(events) if e["event"] == "run_end"), None)

    phase_totals: Dict[str, float] = {}
    epoch_seconds = 0.0
    for e in epochs:
        epoch_seconds += e.get("seconds", 0.0)
        for name, stats in (e.get("phase_seconds") or {}).items():
            seconds = stats["seconds"] if isinstance(stats, dict) else float(stats)
            phase_totals[name] = phase_totals.get(name, 0.0) + seconds
    phase_share = {
        name: (seconds / epoch_seconds if epoch_seconds > 0 else 0.0)
        for name, seconds in sorted(phase_totals.items())
    }

    return {
        "status": end["status"] if end else "unterminated",
        "command": (start or {}).get("command"),
        "config": (start or {}).get("config"),
        "num_events": len(events),
        "epochs": [
            {
                "epoch": e["epoch"],
                "loss_joint": e["loss_joint"],
                "loss_entity": e["loss_entity"],
                "loss_relation": e["loss_relation"],
                "lr": e["lr"],
                "nonfinite_skips": e["nonfinite_skips"],
                "batches": e["batches"],
                "seconds": e.get("seconds", 0.0),
                "valid_mrr": e.get("valid_mrr"),
            }
            for e in epochs
        ],
        "evals": [
            {"epoch": e["epoch"], "metric": e["metric"], "value": e["value"]}
            for e in evals
        ],
        "checkpoints": [
            {
                "path": e["path"],
                "epoch": e["epoch"],
                "global_batch": e["global_batch"],
                "kind": e["kind"],
            }
            for e in checkpoints
        ],
        "nonfinite_skips": {
            "total": sum(e["nonfinite_skips"] for e in epochs),
            "explained": len(skips),
            "stages": sorted({e["stage"] for e in skips}),
        },
        "observes": len(observes),
        "phase_seconds": {k: round(v, 6) for k, v in sorted(phase_totals.items())},
        "phase_share": {k: round(v, 4) for k, v in phase_share.items()},
        "epoch_seconds": round(epoch_seconds, 6),
    }
