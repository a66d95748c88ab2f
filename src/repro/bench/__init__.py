"""Benchmark harness: the paper's tables and figures, and the perf gate.

:mod:`repro.bench.runner` knows how to build, train and evaluate every
method on every synthetic benchmark (with caching, so tables that share
trained models — e.g. Table III entity scores, Table VII relation scores
and Table VIII timings — train each model once per pytest session).
:mod:`repro.bench.tables` renders paper-style result tables.
:mod:`repro.bench.measure` is the registry of perf series and their
runner; :mod:`repro.bench.history` holds their history, the reference
file and the one verdict (``repro.cli bench`` drives both).
"""

from repro.bench.history import (
    HistoryError,
    append_entry,
    make_entry,
    read_history,
    summarize_history,
    write_summary,
)
from repro.bench.runner import (
    BENCH_PROFILES,
    DEFAULT_METHODS,
    BenchProfile,
    TrainedMethod,
    get_trained,
    retia_variant,
)
from repro.bench.tables import format_table

__all__ = [
    "BenchProfile",
    "BENCH_PROFILES",
    "DEFAULT_METHODS",
    "HistoryError",
    "TrainedMethod",
    "append_entry",
    "get_trained",
    "make_entry",
    "read_history",
    "retia_variant",
    "summarize_history",
    "write_summary",
    "format_table",
]
