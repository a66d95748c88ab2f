"""Run-wide observability: span tracing, JSONL run reports and probes.

Dependency-free layers, designed so that *uninstrumented* code
pays nothing (the hot-path contract the end-to-end benchmark,
``benchmarks/e2e``, measures):

* :mod:`repro.obs.tracing` — hierarchical :func:`span` blocks that
  degrade to a no-op with nothing installed, record full parent/child
  trees with per-span metadata under :func:`collect_spans` (flattened
  to per-name totals by ``SpanCollector.summary``), plus the
  thread-safe ``SpanCollector.record`` for spans written from other
  threads (the serve drill's request chains and load plan).
* :mod:`repro.obs.report` — a :class:`RunReporter` streaming one
  schema-validated JSONL event per epoch/eval/checkpoint/non-finite
  skip, and readers (:func:`read_events`, :func:`summarize_run`) used
  by ``repro.cli report`` and the CI telemetry gate
  (``scripts/check_run_health.py``).
* :mod:`repro.obs.probes` — a :class:`ProbeSuite` of training
  introspection probes whose measurements ride in ``probe`` events.
"""

from repro.obs.probes import ProbeConfig, ProbeSuite
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
from repro.obs.tracing import (
    Span,
    SpanCollector,
    active,
    collect_spans,
    span,
    to_chrome_trace,
)

__all__ = [
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
    "Span",
    "SpanCollector",
    "active",
    "collect_spans",
    "span",
    "to_chrome_trace",
]
