"""Dataset registry with profiles mimicking the paper's five benchmarks.

Each profile scales the synthetic generator so the *relative* shape of
Table V holds: the ICEWS series has many relations, daily granularity and
moderate recurrence; YAGO and WIKI have tiny relation vocabularies,
yearly granularity and highly persistent facts (which is why all models
score far higher there, Table IV).  Absolute sizes are scaled down ~100x
for CPU training; pass ``scale`` to grow them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.datasets.synthetic import SyntheticTKGConfig, generate_tkg
from repro.graph import TemporalKG


@dataclass(frozen=True)
class TKGDataset:
    """A named dataset: full graph plus chronological train/valid/test."""

    name: str
    graph: TemporalKG
    train: TemporalKG
    valid: TemporalKG
    test: TemporalKG

    @property
    def num_entities(self) -> int:
        """Entity vocabulary size ``N``."""
        return self.graph.num_entities

    @property
    def num_relations(self) -> int:
        """Relation vocabulary size ``M`` (non-inverse)."""
        return self.graph.num_relations


#: Generator profiles per benchmark.  Entity/relation counts keep the
#: paper's ordering (ICEWS18 largest entity set; YAGO/WIKI few relations).
DATASET_PROFILES: Dict[str, dict] = {
    "ICEWS14": dict(
        num_entities=120,
        num_relations=24,
        num_timestamps=48,
        events_per_step=45,
        num_communities=10,
        base_pool_size=150,
        recurrence=0.45,
        mean_period=3.0,
        chain_relation_fraction=0.7,
        chain_probability=0.6,
        noise_fraction=0.10,
        object_jitter=0.15,
        objects_per_fact=8,
        object_drift=0.1,
        granularity="24 hours",
        seed=14,
    ),
    "ICEWS05-15": dict(
        num_entities=150,
        num_relations=26,
        num_timestamps=64,
        events_per_step=55,
        num_communities=11,
        base_pool_size=190,
        recurrence=0.45,
        mean_period=3.0,
        chain_relation_fraction=0.7,
        chain_probability=0.6,
        noise_fraction=0.10,
        object_jitter=0.15,
        objects_per_fact=8,
        object_drift=0.1,
        granularity="24 hours",
        seed=515,
    ),
    "ICEWS18": dict(
        num_entities=200,
        num_relations=28,
        num_timestamps=48,
        events_per_step=65,
        num_communities=13,
        base_pool_size=230,
        recurrence=0.4,
        mean_period=3.5,
        chain_relation_fraction=0.7,
        chain_probability=0.6,
        noise_fraction=0.12,
        object_jitter=0.18,
        objects_per_fact=8,
        object_drift=0.1,
        granularity="24 hours",
        seed=18,
    ),
    "YAGO": dict(
        num_entities=160,
        num_relations=5,
        num_timestamps=32,
        events_per_step=70,
        num_communities=6,
        base_pool_size=190,
        recurrence=0.9,
        mean_period=1.5,
        chain_relation_fraction=0.4,
        chain_probability=0.3,
        noise_fraction=0.02,
        object_jitter=0.08,
        granularity="1 year",
        seed=3,
    ),
    "WIKI": dict(
        num_entities=180,
        num_relations=6,
        num_timestamps=32,
        events_per_step=80,
        num_communities=7,
        base_pool_size=220,
        recurrence=0.9,
        mean_period=1.5,
        chain_relation_fraction=0.4,
        chain_probability=0.3,
        noise_fraction=0.02,
        object_jitter=0.08,
        granularity="1 year",
        seed=30,
    ),
}

def load_dataset(name: str, scale: float = 1.0, seed: int | None = None) -> TKGDataset:
    """Build the named synthetic benchmark with an 80/10/10 split.

    Parameters
    ----------
    name:
        One of :data:`DATASET_PROFILES` (case-insensitive).
    scale:
        Multiplies entity/fact volumes (1.0 = default small size).
    seed:
        Optional seed override for ablating generator randomness.
    """
    key = name.upper()
    if key in DATASET_PROFILES:
        profile = dict(DATASET_PROFILES[key])
    else:
        raise KeyError(f"unknown dataset {name!r}; choose from {sorted(DATASET_PROFILES)}")
    granularity = profile.pop("granularity")
    if seed is not None:
        profile["seed"] = seed
    if scale != 1.0:
        for field_name in ("num_entities", "num_timestamps", "events_per_step", "base_pool_size"):
            profile[field_name] = max(3, int(round(profile[field_name] * scale)))
    config = SyntheticTKGConfig(**profile)
    graph = generate_tkg(config, granularity=granularity)
    train, valid, test = graph.split((0.8, 0.1, 0.1))
    return TKGDataset(name=key, graph=graph, train=train, valid=valid, test=test)


def dataset_statistics(dataset: TKGDataset) -> dict:
    """Table V row for a dataset."""
    return {
        "#Datasets": dataset.name,
        "#Entities": dataset.num_entities,
        "#Relations": dataset.num_relations,
        "#Training": len(dataset.train),
        "#Validation": len(dataset.valid),
        "#Test": len(dataset.test),
        "#Granularity": dataset.graph.granularity,
    }
