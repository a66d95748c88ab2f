"""Pinned digests of the generated data and its Algorithm 1 output.

The generator and the per-snapshot preprocessing are rewritten for speed
from time to time; every such rewrite must reproduce the same facts,
the same hyperedges in the same order (the message plans sum in edge
order) and the same pooling pairs.  The digests below are SHA-256 over
the int64 bytes of:

* ``facts`` — the quadruples ``(s, r, o, t)`` of the generated graph;
* ``edges`` — the hyperedges of every snapshot, concatenated in
  timestamp order;
* ``pairs`` — per snapshot, ``relation_entity_pairs`` then the
  hypergraph's ``hyper_relation_pairs``.

Every registry profile is pinned at its registry seed, plus one graph
with ICEWS18's Table V vocabulary (23,033 entities, 256 relations), so
the generator's per-community member tables run at full width.
"""

import hashlib

import numpy as np
import pytest

from repro.datasets import DATASET_PROFILES, SyntheticTKGConfig, generate_tkg, load_dataset
from repro.graph import build_hyperrelation_graph

#: The ICEWS18-vocabulary graph of the end-to-end ``eval-wide`` workload.
WIDE_GRAPH = dict(
    num_entities=23033,
    num_relations=256,
    num_timestamps=30,
    events_per_step=80,
    num_communities=40,
    base_pool_size=800,
    recurrence=0.4,
    mean_period=3.5,
    chain_relation_fraction=0.7,
    chain_probability=0.6,
    noise_fraction=0.12,
    objects_per_fact=8,
    object_jitter=0.18,
    object_drift=0.1,
    seed=18,
)

#: name -> (facts, edges, pairs) digests.
DIGESTS = {
    "ICEWS14": (
        "be4d8cfeb96a74239319b20db48ae4cf85829ddc8d03b90c9d86f78e760ebbe0",
        "bda09370c4be6a6dea91b0d276bbb818b373f4a3fb462bee8714c14b86ef3f56",
        "8fabf72def57e05b75556d8bc80ff8946eba24cd9eb20d365ad950cf465e9530",
    ),
    "ICEWS05-15": (
        "984850e57a093f29d99cd67836678a053de913d5c62c5def5f16a3fe0fc3ec14",
        "870830059294c0dac69590650792fc96f9face00a6dfefba9229bf4b4e8da901",
        "a6366c03b34f9fe9d7e78996a02dab208b586d4d4e24cf9be4c2868c70fc7c26",
    ),
    "ICEWS18": (
        "f6b53cde85ae33fbcaef409dc49e9815ca888ee9ad8a60bf2161fbe981065be7",
        "093fcf4a1e17264171cc3e2a2ecdda23d9ac811ace1a19800e2392dfa686c564",
        "2bae0dcdff870866b0a0d20f0a0fdf18af11ba3d341ff2732c9506ab45a32e59",
    ),
    "YAGO": (
        "1b859819216256ababba85d5240e5056a6a40faad840bea557ad5663ef30b01c",
        "40aae08e294b87c52291397a2966112a76ac9b9cf0842b535c0528e069c18e1c",
        "f59fcd46c0ae2bdea1831575b309819f04e5bcbb08e7e7676952ba0b77c2ee7d",
    ),
    "WIKI": (
        "a6f1f3f32c2d8749e49a3e68d66e4de78879679e6fe0754c145beee6be27040e",
        "2ee837e555ede1417ce6e5051cfa4fbf5c08ea07c59fafd072edb9a6f8984531",
        "02c241f849ea6c939b4b0417c724dee4bd609aea52d5cbba4dc495f127e9dc19",
    ),
    "WIDE": (
        "6f3a0879a9abbd2d78a415960cc0c7e6dab819045c00b8fa65b894bf7c14f1af",
        "7fbdff7f8c954c017e20a14ed8a0ae886f8c6db37fc3e5c81d7f16bfcf646ae8",
        "ad900bc1feca9a241822b89d60d38e529a46ba5b6141d26b1ffa3314f5b35a25",
    ),
}


def sha256(arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())
    return digest.hexdigest()


def digests(graph) -> tuple:
    snapshots = graph.snapshots()
    hypers = [build_hyperrelation_graph(snapshot) for snapshot in snapshots]
    pairs = []
    for snapshot, hyper in zip(snapshots, hypers):
        pairs.extend(snapshot.relation_entity_pairs)
        pairs.extend(hyper.hyper_relation_pairs)
    return (
        sha256([np.array(graph.quadruples(), dtype=np.int64)]),
        sha256([hyper.edges for hyper in hypers]),
        sha256(pairs),
    )


def test_every_profile_is_pinned():
    assert set(DIGESTS) == set(DATASET_PROFILES) | {"WIDE"}


@pytest.mark.parametrize("name", sorted(DATASET_PROFILES))
def test_registry_profile_digests(name):
    assert digests(load_dataset(name).graph) == DIGESTS[name]


def test_wide_vocabulary_digests():
    graph = generate_tkg(SyntheticTKGConfig(**WIDE_GRAPH))
    assert (graph.num_entities, graph.num_relations) == (23033, 256)
    assert digests(graph) == DIGESTS["WIDE"]
