"""Bench history, the reference file and the one perf verdict.

* **Series.** Two runs are comparable only when they share a series:
  ``(name, dataset, dtype, labels)``.  :func:`series_key` is the one
  place that rule lives; every reference lookup and summary bucket goes
  through it, so an eval at 2 workers never gates against 1 worker and
  a float64 entry never gates a float32 run.
* **History.** ``BENCH_history.jsonl`` holds one schema-2 entry per run
  (:func:`make_entry`) with the raw samples per figure; appends are
  whole flushed lines, so concurrent jobs at worst interleave lines.
* **Reference.** When the history holds the series, a figure's
  reference is the minimum over the series' last :data:`DEFAULT_WINDOW`
  entries with bound ×:data:`HISTORY_TOLERANCE`; otherwise it is the
  ``benchmarks/baseline.json`` entry with that entry's own tolerance.
* **Verdict** (:func:`judge`): a figure *regressed* when every sample
  exceeds its bound and is *ok* when every sample is within it.
  Otherwise it *straddles* the bound: the caller re-measures once and
  judges the pooled samples (which include the straddling ones) by
  their median ± σ, σ estimated as 1.4826 × MAD: a band wholly above
  the bound is a regression, a band wholly within it is ok, and a band
  that still straddles it is *inconclusive* (exit 3), never a coin flip.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

HISTORY_SCHEMA_VERSION = 2

#: Allowed slowdown of a run over its own series' rolling noise floor.
HISTORY_TOLERANCE = 1.2
#: Entries of a series the history reference and summary consider.
DEFAULT_WINDOW = 10
#: Scales a MAD to the standard deviation it estimates for normal noise.
MAD_TO_SIGMA = 1.4826

BASELINE_PATH = Path(__file__).resolve().parents[3] / "benchmarks" / "baseline.json"

OK, REGRESSED, STRADDLES, INCONCLUSIVE = "ok", "regressed", "straddles", "inconclusive"
EXIT_CODES = {OK: 0, REGRESSED: 1, INCONCLUSIVE: 3}


class HistoryError(ValueError):
    """A malformed history file, entry or baseline file."""


def series_key(name: str, dataset: str, dtype: str, labels: Dict[str, object]) -> tuple:
    """The identity of a timing series; label values compare as strings."""
    return (name, dataset, dtype, tuple(sorted((k, str(v)) for k, v in labels.items())))


def series_id(key: tuple) -> str:
    """Readable form of a series key (the ``baseline.json`` key)."""
    name, dataset, dtype, labels = key
    return " ".join([name, dataset, dtype] + [f"{k}={v}" for k, v in labels])


def stats(samples: List[float]) -> Dict[str, float]:
    """Min, median and median absolute deviation (MAD) of one figure."""
    mid = median(samples)
    return {"min": min(samples), "median": mid, "mad": median(abs(x - mid) for x in samples)}


def entry_key(entry: dict) -> tuple:
    return series_key(entry["name"], entry["dataset"], entry["dtype"], entry.get("labels", {}))


def make_entry(run) -> dict:
    """One schema-2 history record from a :class:`~repro.bench.measure.Run`."""
    if not run.samples or not all(run.samples.values()):
        raise HistoryError(f"run of {run.name!r} has a figure without samples")
    entry = {
        "schema_version": HISTORY_SCHEMA_VERSION,
        "name": run.name,
        "dataset": run.dataset,
        "dtype": run.dtype,
        "labels": dict(run.labels),
        "recorded_at": time.time(),
        "figures": {figure: list(values) for figure, values in run.samples.items()},
        "extras": list(run.extras),
    }
    if run.per_step_sleep:
        entry["injected_sleep"] = run.per_step_sleep
    return entry


def append_entry(path: str, entry: dict) -> dict:
    """Append one entry as a JSONL line; returns the entry."""
    line = json.dumps(entry, sort_keys=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    return entry


def read_history(path: str) -> List[dict]:
    """Parse a schema-2 history file (missing file = empty history)."""
    if not os.path.exists(path):
        return []
    entries: List[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise HistoryError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
            if not isinstance(record, dict):
                raise HistoryError(f"{path}:{lineno}: entry must be an object")
            version = record.get("schema_version")
            if version != HISTORY_SCHEMA_VERSION:
                raise HistoryError(
                    f"{path}:{lineno}: schema_version {version!r}, "
                    f"expected {HISTORY_SCHEMA_VERSION}"
                )
            missing = [k for k in ("name", "dataset", "dtype", "figures") if k not in record]
            if missing:
                raise HistoryError(f"{path}:{lineno}: entry lacks {missing}")
            entries.append(record)
    return entries


def load_baseline(path=None) -> Dict[str, dict]:
    """The checked-in references (:data:`BASELINE_PATH`), keyed by :func:`series_id`.

    Any problem reading or validating the file raises
    :class:`HistoryError`: a silently absent budget is no gate at all.
    """
    path = BASELINE_PATH if path is None else path
    try:
        baseline = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise HistoryError(f"baseline file {path} is missing") from exc
    except (OSError, json.JSONDecodeError) as exc:
        raise HistoryError(f"baseline file {path} is unreadable: {exc}") from exc
    if not isinstance(baseline, dict):
        raise HistoryError(f"baseline file {path} must map series to figures")
    for sid, series in baseline.items():
        figures = series.get("figures") if isinstance(series, dict) else None
        if not figures:
            raise HistoryError(f"{path}: series {sid!r} has no figures")
        for figure, ref in figures.items():
            try:
                value, tolerance = float(ref["value"]), float(ref["tolerance"])
            except (KeyError, TypeError, ValueError) as exc:
                raise HistoryError(
                    f"{path}: {sid!r} {figure} needs a numeric value and tolerance"
                ) from exc
            if value <= 0 or tolerance <= 1.0:
                raise HistoryError(f"{path}: {sid!r} {figure} needs value > 0 and tolerance > 1")
    return baseline


def update_baseline(run, path=None) -> dict:
    """Write the run's per-figure minimum into its series' entry.

    Only figures the file already gates are updated: a new series or
    figure needs a tolerance, which is a decision, not a measurement.
    """
    path = BASELINE_PATH if path is None else path
    baseline = load_baseline(path)
    figures = baseline.get(series_id(run.key), {}).get("figures", {})
    missing = sorted(set(run.samples) - set(figures))
    if missing:
        raise HistoryError(
            f"{path} has no {series_id(run.key)!r} entry for {missing}; "
            "add it with its tolerance first"
        )
    for figure, values in run.samples.items():
        figures[figure]["value"] = min(values)
    Path(path).write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    return baseline


def reference(
    key: tuple,
    figure: str,
    history: List[dict],
    baseline: Dict[str, dict],
    window: int = DEFAULT_WINDOW,
) -> Optional[Tuple[float, float, str]]:
    """``(value, tolerance, source)`` a figure is judged against.

    ``None`` when neither the history nor the file knows the series.
    """
    tail = [e for e in history if entry_key(e) == key and e["figures"].get(figure)]
    tail = tail[-window:]
    if tail:
        value = min(min(e["figures"][figure]) for e in tail)
        return value, HISTORY_TOLERANCE, f"min of {len(tail)} history entries"
    ref = baseline.get(series_id(key), {}).get("figures", {}).get(figure)
    if ref is not None:
        return float(ref["value"]), float(ref["tolerance"]), "baseline.json"
    return None


@dataclass(frozen=True)
class FigureVerdict:
    """The verdict on one figure of one run."""

    figure: str
    status: str
    samples: Tuple[float, ...]
    reference: Optional[float] = None
    tolerance: Optional[float] = None
    source: str = "no reference (seeds the series)"

    @property
    def bound(self) -> Optional[float]:
        return None if self.reference is None else self.reference * self.tolerance

    def __str__(self) -> str:
        shown = ", ".join(f"{s:.4g}" for s in self.samples)
        if self.reference is None:
            return f"{self.status}: {self.figure} [{shown}] — {self.source}"
        return (
            f"{self.status}: {self.figure} [{shown}] vs bound {self.bound:.4g} "
            f"= {self.reference:.4g} x{self.tolerance:g} ({self.source})"
        )


def _status(samples: List[float], bound: float, pooled: bool) -> str:
    if all(s > bound for s in samples):
        return REGRESSED
    if all(s <= bound for s in samples):
        return OK
    if not pooled:
        return STRADDLES
    pooled_stats = stats(samples)
    sigma = MAD_TO_SIGMA * pooled_stats["mad"]
    if pooled_stats["median"] - sigma > bound:
        return REGRESSED
    if pooled_stats["median"] + sigma <= bound:
        return OK
    return INCONCLUSIVE


@dataclass(frozen=True)
class Verdict:
    """The verdict on one run: the worst of its figures."""

    series: str
    figures: Tuple[FigureVerdict, ...]

    @property
    def status(self) -> str:
        statuses = {f.status for f in self.figures}
        for status in (REGRESSED, STRADDLES, INCONCLUSIVE):
            if status in statuses:
                return status
        return OK

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.status]

    def __str__(self) -> str:
        head = {
            OK: "ok",
            REGRESSED: "REGRESSION",
            STRADDLES: "straddles its bound",
            INCONCLUSIVE: "INCONCLUSIVE",
        }[self.status]
        failed = [f.figure for f in self.figures if f.status == self.status != OK]
        named = f" ({', '.join(failed)})" if failed else ""
        return "\n".join([f"{head}: {self.series}{named}"] + [f"  {f}" for f in self.figures])


def judge(
    key: tuple,
    samples: Dict[str, List[float]],
    history: List[dict],
    baseline: Dict[str, dict],
    pooled: bool = False,
) -> Verdict:
    """Judge a run's samples against each figure's reference.

    ``pooled=False`` is the first look, where a figure whose samples
    straddle its bound is reported as :data:`STRADDLES` (re-measure);
    ``pooled=True`` decides such figures by median ± σ or reports
    :data:`INCONCLUSIVE`.
    """
    verdicts = []
    for figure, values in samples.items():
        ref = reference(key, figure, history, baseline)
        if ref is None:
            verdicts.append(FigureVerdict(figure, OK, tuple(values)))
            continue
        value, tolerance, source = ref
        status = _status(values, value * tolerance, pooled)
        verdicts.append(FigureVerdict(figure, status, tuple(values), value, tolerance, source))
    return Verdict(series_id(key), tuple(verdicts))


def summarize_history(entries: List[dict], window: int = DEFAULT_WINDOW) -> dict:
    """Rolling per-series summary: min / median / MAD / last per figure."""
    buckets: Dict[tuple, List[dict]] = {}
    for entry in entries:
        buckets.setdefault(entry_key(entry), []).append(entry)
    series = {}
    for key, bucket in sorted(buckets.items()):
        tail = bucket[-window:]
        figures = {}
        for figure in sorted({f for e in tail for f in e["figures"]}):
            values = [v for e in tail for v in e["figures"].get(figure, [])]
            last = next(e["figures"][figure] for e in reversed(tail) if figure in e["figures"])
            figures[figure] = {**stats(values), "last": min(last)}
        series[series_id(key)] = {
            "entries": len(bucket),
            "window_entries": len(tail),
            "figures": figures,
        }
    return {"schema_version": HISTORY_SCHEMA_VERSION, "window": window, "series": series}


def write_summary(path: str, entries: List[dict], window: int = DEFAULT_WINDOW) -> dict:
    """Write the rolling summary JSON; returns the summary dict."""
    summary = summarize_history(entries, window=window)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary
