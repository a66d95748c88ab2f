"""Benchmark harness: the paper's tables and figures.

:mod:`repro.bench.runner` knows how to build, train and evaluate every
method on every synthetic benchmark (with caching, so tables that share
trained models — e.g. Table III entity scores, Table VII relation scores
and Table VIII timings — train each model once per pytest session).
:mod:`repro.bench.tables` renders paper-style result tables.  Timings
are measured by the end-to-end benchmark, ``benchmarks/e2e``.
"""

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
    "TrainedMethod",
    "get_trained",
    "retia_variant",
    "format_table",
]
