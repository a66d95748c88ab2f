"""Run-wide observability: metrics, span tracing and JSONL run reports.

Dependency-free layers, designed so that *uninstrumented* code
pays nothing (the hot-path contract the end-to-end benchmark,
``benchmarks/e2e``, measures):

* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges and fixed-bucket histograms with labeled series and one JSON
  export format.
* :mod:`repro.obs.tracing` — hierarchical :func:`span` blocks that
  degrade to a no-op with nothing installed, record full parent/child
  trees with per-span metadata under :func:`collect_spans` (flattened
  to per-name totals by ``SpanCollector.summary``), and stitch worker
  trees across process boundaries (:class:`TraceContext`,
  ``SpanCollector.serialize_tree``/``splice``).
* :mod:`repro.obs.report` — a :class:`RunReporter` streaming one
  schema-validated JSONL event per epoch/eval/checkpoint/non-finite
  skip, and readers (:func:`read_events`, :func:`summarize_run`) used
  by ``repro.cli report`` and the CI telemetry gate
  (``scripts/check_run_health.py``).
* :mod:`repro.obs.exposition` — Prometheus text rendering of a
  registry plus the :class:`TelemetrySink` thread that snapshots live
  telemetry to disk atomically for ``repro.cli watch`` and CI scrapes.
* :mod:`repro.obs.slo` — declarative :class:`SLODef` objectives with
  ring-buffer windows and multi-window burn-rate alerting
  (:class:`SLOEngine`), emitting paired ``alert`` events.
"""

from repro.obs.exposition import (
    JSON_FILENAME,
    PROM_FILENAME,
    TelemetrySink,
    histogram_quantile,
    to_prometheus,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
)
from repro.obs.probes import (
    GATE_BUCKETS,
    PROBE_BUCKETS,
    ProbeConfig,
    ProbeSuite,
)
from repro.obs.report import (
    EVENT_SCHEMAS,
    REFRESH_OUTCOMES,
    RUN_END_STATUSES,
    SCHEMA_VERSION,
    SHED_REASONS,
    ReportError,
    RunReporter,
    read_events,
    summarize_run,
)
from repro.obs.slo import (
    ALERT_STATES,
    BurnWindow,
    SLODef,
    SLOEngine,
)
from repro.obs.tracing import (
    ResourceSampler,
    Span,
    SpanCollector,
    TraceContext,
    active,
    collect_spans,
    span,
    to_chrome_trace,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "GATE_BUCKETS",
    "PROBE_BUCKETS",
    "ProbeConfig",
    "ProbeSuite",
    "EVENT_SCHEMAS",
    "REFRESH_OUTCOMES",
    "RUN_END_STATUSES",
    "SCHEMA_VERSION",
    "SHED_REASONS",
    "ReportError",
    "RunReporter",
    "read_events",
    "summarize_run",
    "ALERT_STATES",
    "BurnWindow",
    "SLODef",
    "SLOEngine",
    "JSON_FILENAME",
    "PROM_FILENAME",
    "TelemetrySink",
    "histogram_quantile",
    "to_prometheus",
    "ResourceSampler",
    "Span",
    "SpanCollector",
    "TraceContext",
    "active",
    "collect_spans",
    "span",
    "to_chrome_trace",
]
