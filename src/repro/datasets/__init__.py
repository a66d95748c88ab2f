"""Synthetic TKG datasets standing in for the paper's five benchmarks.

The real ICEWS14 / ICEWS05-15 / ICEWS18 / YAGO / WIKI dumps are not
available offline, so :mod:`repro.datasets.synthetic` generates seeded
surrogates whose *relative* statistics follow Table V of the paper (entity
and relation vocabulary ratios, timestamp granularity, fact volume) and
whose temporal structure carries the signals the paper's comparison
hinges on: fact recurrence, neighbourhood evolution and relation
chaining.  See DESIGN.md §2 for the substitution rationale.
"""

from repro.datasets.synthetic import SyntheticTKGConfig, generate_tkg
from repro.datasets.registry import (
    DATASET_PROFILES,
    TKGDataset,
    dataset_statistics,
    load_dataset,
)

__all__ = [
    "SyntheticTKGConfig",
    "generate_tkg",
    "TKGDataset",
    "load_dataset",
    "dataset_statistics",
    "DATASET_PROFILES",
]
