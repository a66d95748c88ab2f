"""Dependency-free metrics: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` owns named metrics; each metric owns labeled
series (a Prometheus-style data model without the wire format).  The
registry serialises to one stable JSON structure:

    registry = MetricsRegistry()
    batches = registry.counter("batches_total", help="optimizer steps")
    batches.labels(dataset="YAGO").inc()
    lat = registry.histogram("step_seconds", buckets=(0.01, 0.1, 1.0))
    lat.observe(0.03)
    registry.to_dict()  # {"metrics": [...]}

Series are keyed by their sorted label items, so ``labels(a=1, b=2)``
and ``labels(b=2, a=1)`` address the same series.  Re-registering a
metric name returns the existing metric when the type (and, for
histograms, the bucket edges) match, and raises otherwise — two call
sites can share a metric but cannot silently redefine it.
"""

from __future__ import annotations

import json
import math
import threading
from typing import Dict, Iterable, Optional, Tuple

#: Default histogram upper bucket edges (seconds-flavoured); a final
#: +inf bucket is always implied.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

LabelKey = Tuple[Tuple[str, str], ...]


class MetricError(ValueError):
    """Inconsistent metric registration or labeling."""


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Metric:
    """Base: a named family of labeled series."""

    kind = "untyped"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._series: Dict[LabelKey, object] = {}
        self._label_names: Optional[Tuple[str, ...]] = None
        self._lock = threading.Lock()

    def _make_series(self):
        raise NotImplementedError

    def labels(self, **labels):
        """The series for this label set (created on first use).

        Every series of a metric must use the same label *names*; the
        first call fixes them.
        """
        names = tuple(sorted(labels))
        key = _label_key(labels)
        with self._lock:
            if self._label_names is None:
                self._label_names = names
            elif names != self._label_names:
                raise MetricError(
                    f"metric {self.name!r} uses labels {self._label_names}, "
                    f"got {names}"
                )
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = self._make_series()
        return series

    def series_items(self):
        """``(labels_dict, series)`` pairs in sorted label order."""
        with self._lock:
            items = sorted(self._series.items())
        return [(dict(key), series) for key, series in items]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "type": self.kind,
            "help": self.help,
            "series": [
                {"labels": labels, **series.to_dict()}
                for labels, series in self.series_items()
            ],
        }


class _CounterSeries:
    __slots__ = ("value", "nonfinite")

    def __init__(self):
        self.value = 0.0
        self.nonfinite = 0

    def inc(self, amount: float = 1.0) -> None:
        # NaN/Inf would poison the running value silently (and NaN
        # dodges the < 0 check below); count and drop them instead.
        if not math.isfinite(amount):
            self.nonfinite += 1
            return
        if amount < 0:
            raise MetricError("counters only go up")
        self.value += amount

    def to_dict(self) -> dict:
        d = {"value": self.value}
        if self.nonfinite:
            d["nonfinite"] = self.nonfinite
        return d


class Counter(_Metric):
    """Monotonically increasing value, optionally labeled."""

    kind = "counter"

    def _make_series(self):
        return _CounterSeries()

    def inc(self, amount: float = 1.0, **labels) -> None:
        self.labels(**labels).inc(amount)

    def value(self, **labels) -> float:
        return self.labels(**labels).value


class _GaugeSeries:
    __slots__ = ("value", "nonfinite")

    def __init__(self):
        self.value = 0.0
        self.nonfinite = 0

    def set(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            self.nonfinite += 1
            return
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        if not math.isfinite(amount):
            self.nonfinite += 1
            return
        self.value += amount

    def to_dict(self) -> dict:
        d = {"value": self.value}
        if self.nonfinite:
            d["nonfinite"] = self.nonfinite
        return d


class Gauge(_Metric):
    """A value that can go up and down (sizes, shares, last-seen)."""

    kind = "gauge"

    def _make_series(self):
        return _GaugeSeries()

    def set(self, value: float, **labels) -> None:
        self.labels(**labels).set(value)

    def value(self, **labels) -> float:
        return self.labels(**labels).value


class _HistogramSeries:
    __slots__ = ("edges", "counts", "sum", "count", "nonfinite")

    def __init__(self, edges: Tuple[float, ...]):
        self.edges = edges
        # counts[i] observes values <= edges[i]; counts[-1] is +inf.
        self.counts = [0] * (len(edges) + 1)
        self.sum = 0.0
        self.count = 0
        self.nonfinite = 0

    def observe(self, value: float) -> None:
        value = float(value)
        # One NaN would make _sum (and every quantile derived from the
        # buckets) NaN forever; divert non-finite observations to the
        # side counter instead of folding them in.
        if not math.isfinite(value):
            self.nonfinite += 1
            return
        self.sum += value
        self.count += 1
        for i, edge in enumerate(self.edges):
            if value <= edge:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def cumulative(self):
        """Prometheus-style cumulative per-bucket counts."""
        total = 0
        out = []
        for c in self.counts:
            total += c
            out.append(total)
        return out

    def to_dict(self) -> dict:
        d = {
            "buckets": [
                {"le": edge, "count": cum}
                for edge, cum in zip(
                    list(self.edges) + ["+inf"], self.cumulative()
                )
            ],
            "sum": self.sum,
            "count": self.count,
        }
        if self.nonfinite:
            d["nonfinite"] = self.nonfinite
        return d


class Histogram(_Metric):
    """Fixed-bucket distribution of observed values."""

    kind = "histogram"

    def __init__(self, name: str, buckets: Iterable[float] = DEFAULT_BUCKETS, help: str = ""):
        super().__init__(name, help=help)
        edges = tuple(float(edge) for edge in buckets)
        if not edges:
            raise MetricError("histogram needs at least one bucket edge")
        if list(edges) != sorted(edges) or len(set(edges)) != len(edges):
            raise MetricError("bucket edges must be strictly increasing")
        self.edges = edges

    def _make_series(self):
        return _HistogramSeries(self.edges)

    def observe(self, value: float, **labels) -> None:
        self.labels(**labels).observe(value)


class MetricsRegistry:
    """Named counters/gauges/histograms with one JSON export format."""

    def __init__(self):
        self._metrics: Dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _register(self, name: str, factory, kind: type, check=None) -> _Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise MetricError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                if check is not None:
                    check(existing)
                return existing
            metric = self._metrics[name] = factory()
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(name, lambda: Counter(name, help=help), Counter)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._register(name, lambda: Gauge(name, help=help), Gauge)

    def histogram(
        self, name: str, buckets: Iterable[float] = DEFAULT_BUCKETS, help: str = ""
    ) -> Histogram:
        edges = tuple(float(edge) for edge in buckets)

        def check(existing):
            if existing.edges != edges:
                raise MetricError(
                    f"histogram {name!r} already registered with buckets "
                    f"{existing.edges}, got {edges}"
                )

        return self._register(
            name, lambda: Histogram(name, buckets=edges, help=help), Histogram, check
        )

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def names(self):
        with self._lock:
            return sorted(self._metrics)

    def to_dict(self) -> dict:
        """The stable JSON structure: ``{"metrics": [...]}`` sorted by name."""
        return {"metrics": [self._metrics[name].to_dict() for name in self.names()]}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)
