"""Tests for Algorithm 1: twin hyperrelation subgraph construction."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    HYPERRELATION_NAMES,
    NUM_HYPERRELATIONS,
    Snapshot,
    build_hyperrelation_graph,
)
from tests.oracles import reference_build_hyperrelation_graph


def make_snapshot(triples, num_entities=8, num_relations=4, ts=0):
    return Snapshot(np.array(triples), num_entities, num_relations, ts)


def hyperedges_of_type(hyper, htype):
    mask = hyper.edges[:, 1] == htype
    return {(int(a), int(b)) for a, _, b in hyper.edges[mask]}


class TestHyperrelationTypes:
    def test_names_and_count(self):
        assert HYPERRELATION_NAMES == ("o-s", "s-o", "o-o", "s-s")
        assert NUM_HYPERRELATIONS == 4

    def test_o_s_chain(self):
        """(0, r0, 1) then (1, r1, 2): object of r0 is subject of r1 -> o-s."""
        snap = make_snapshot([[0, 0, 1], [1, 1, 2]])
        hyper = build_hyperrelation_graph(snap)
        assert (0, 1) in hyperedges_of_type(hyper, 0)

    def test_s_o_reverse_chain(self):
        """Subject of r1 (=1) is object of r0 -> s-o edge from r1 to r0."""
        snap = make_snapshot([[0, 0, 1], [1, 1, 2]])
        hyper = build_hyperrelation_graph(snap)
        assert (1, 0) in hyperedges_of_type(hyper, 1)

    def test_o_o_common_object(self):
        snap = make_snapshot([[0, 0, 2], [1, 1, 2]])
        hyper = build_hyperrelation_graph(snap)
        oo = hyperedges_of_type(hyper, 2)
        assert (0, 1) in oo
        assert (1, 0) in oo

    def test_s_s_common_subject(self):
        snap = make_snapshot([[0, 0, 1], [0, 1, 2]])
        hyper = build_hyperrelation_graph(snap)
        ss = hyperedges_of_type(hyper, 3)
        assert (0, 1) in ss

    def test_o_o_diagonal_zeroed(self):
        """A single relation with a shared object must NOT self-loop."""
        snap = make_snapshot([[0, 0, 2], [1, 0, 2]])
        hyper = build_hyperrelation_graph(snap)
        oo = hyperedges_of_type(hyper, 2)
        assert (0, 0) not in oo

    def test_s_s_diagonal_zeroed(self):
        snap = make_snapshot([[0, 0, 1], [0, 0, 2]])
        hyper = build_hyperrelation_graph(snap)
        ss = hyperedges_of_type(hyper, 3)
        assert (0, 0) not in ss

    def test_o_s_self_loop_allowed(self):
        """o-s may connect a relation to itself (a genuine chain r->r);
        per Alg. 1 only the o-o and s-s diagonals are zeroed."""
        snap = make_snapshot([[0, 0, 1], [1, 0, 2]])
        hyper = build_hyperrelation_graph(snap)
        assert (0, 0) in hyperedges_of_type(hyper, 0)


class TestInverseHyperedges:
    def test_every_forward_edge_has_inverse(self):
        snap = make_snapshot([[0, 0, 1], [1, 1, 2], [0, 2, 3]])
        hyper = build_hyperrelation_graph(snap)
        for htype in range(NUM_HYPERRELATIONS):
            forward = hyperedges_of_type(hyper, htype)
            inverse = hyperedges_of_type(hyper, htype + NUM_HYPERRELATIONS)
            assert inverse == {(b, a) for a, b in forward}

    def test_hyper_types_cover_2h(self):
        snap = make_snapshot([[0, 0, 1], [1, 1, 2]])
        hyper = build_hyperrelation_graph(snap)
        assert hyper.edges[:, 1].max() < 2 * NUM_HYPERRELATIONS


class TestRelationNodeSpace:
    def test_nodes_are_doubled_relations(self):
        snap = make_snapshot([[0, 1, 2]], num_relations=4)
        hyper = build_hyperrelation_graph(snap)
        assert hyper.num_relation_nodes == 8

    def test_inverse_relations_are_not_hypergraph_sources(self):
        """Algorithm 1 traverses the original quadruples, so hyperedges
        connect only the original relations [0, M); inverse relations
        evolve through the TIM/R-GRU path instead.  (Building over the
        doubled edges would give every relation a trivial o-s edge to
        its own inverse.)"""
        snap = make_snapshot([[0, 0, 1], [1, 1, 2]], num_relations=4)
        hyper = build_hyperrelation_graph(snap)
        if len(hyper.edges):
            assert hyper.edges[:, [0, 2]].max() < 4

    def test_no_trivial_self_inverse_edges(self):
        snap = make_snapshot([[0, 0, 1]], num_relations=4)
        hyper = build_hyperrelation_graph(snap)
        pairs = {(int(a), int(b)) for a, _, b in hyper.edges}
        assert (0, 4) not in pairs
        assert (4, 0) not in pairs


class TestEmptyAndNorm:
    def test_empty_snapshot(self):
        snap = make_snapshot(np.zeros((0, 3)))
        hyper = build_hyperrelation_graph(snap)
        assert hyper.is_empty
        assert hyper.edge_norm.shape == (0,)
        rels, hts = hyper.hyper_relation_pairs
        assert len(rels) == 0 and len(hts) == 0

    def test_edge_norm_normalises_indegree(self):
        # Two relations both o-s-adjacent to relation 2.
        snap = make_snapshot([[0, 0, 2], [1, 1, 2], [2, 2, 3]])
        hyper = build_hyperrelation_graph(snap)
        edges, norms = hyper.edges, hyper.edge_norm
        mask = (edges[:, 2] == 2) & (edges[:, 1] == 0)
        count = mask.sum()
        assert count >= 2  # at least relations 0 and 1 reach relation 2
        np.testing.assert_allclose(norms[mask], 1.0 / count)

    def test_hyper_relation_pairs_dedup(self):
        snap = make_snapshot([[0, 0, 1], [1, 1, 2], [2, 0, 3]])
        hyper = build_hyperrelation_graph(snap)
        rels, hts = hyper.hyper_relation_pairs
        stacked = np.stack([rels, hts], axis=1)
        assert len(stacked) == len(np.unique(stacked, axis=0))

    def test_repr(self):
        snap = make_snapshot([[0, 0, 1]])
        assert "hyperedges" in repr(build_hyperrelation_graph(snap))


class TestDuplicateWitnesses:
    def test_multiple_shared_entities_collapse_to_one_edge(self):
        """Two distinct bridging entities between the same relation pair
        still produce a single hyperedge (binarised adjacency)."""
        snap = make_snapshot([[0, 0, 2], [0, 0, 3], [1, 1, 2], [1, 1, 3]])
        hyper = build_hyperrelation_graph(snap)
        oo = [tuple(e) for e in hyper.edges if e[1] == 2]
        assert len(oo) == len(set(oo))


class TestSharedEntityCounts:
    """Hyperedges survive however many entities witness them.

    The products of Algorithm 1 count shared entities; a count type
    that wraps at 256 made such a count read 0 and lose its hyperedge.
    """

    @staticmethod
    def bridged(shared, first_rel=0, second_rel=1, chain=True):
        """``shared`` entities that are objects of ``first_rel`` and
        subjects (``chain``) or objects of ``second_rel``."""
        ents = np.arange(shared)
        hub_a, hub_b = np.full(shared, 600), np.full(shared, 601)
        first = np.stack([hub_a, np.full(shared, first_rel), ents], axis=1)
        if chain:
            second = np.stack([ents, np.full(shared, second_rel), hub_b], axis=1)
        else:
            second = np.stack([hub_b, np.full(shared, second_rel), ents], axis=1)
        return Snapshot(np.concatenate([first, second]), 700, 2, 0)

    def test_chain_witnessed_by_256_or_more_entities(self):
        for shared in (255, 256, 512):
            hyper = build_hyperrelation_graph(self.bridged(shared))
            assert {tuple(e) for e in hyper.edges.tolist()} == {
                (0, 0, 1), (1, 4, 0), (1, 1, 0), (0, 5, 1)
            }, shared

    def test_common_object_witnessed_by_256_entities(self):
        hyper = build_hyperrelation_graph(self.bridged(256, chain=False))
        assert {tuple(e) for e in hyper.edges.tolist()} == {
            (0, 2, 1), (1, 2, 0), (1, 6, 0), (0, 6, 1)
        }

    def test_matches_oracle(self):
        for chain in (True, False):
            snap = self.bridged(256, chain=chain)
            np.testing.assert_array_equal(
                build_hyperrelation_graph(snap).edges,
                reference_build_hyperrelation_graph(snap),
            )


@st.composite
def snapshots(draw):
    """Small snapshots with self-loop facts (``s == o``), repeated facts,
    relations that have no facts, and empty fact lists."""
    num_entities = draw(st.integers(2, 9))
    num_relations = draw(st.integers(1, 6))
    used = draw(st.integers(1, num_relations))
    fact = st.tuples(
        st.integers(0, num_entities - 1),
        st.integers(0, used - 1),
        st.integers(0, num_entities - 1),
    )
    facts = draw(st.lists(fact, max_size=40))
    loops = draw(st.lists(st.integers(0, num_entities - 1), max_size=4))
    facts += [(e, draw(st.integers(0, used - 1)), e) for e in loops]
    if facts:
        facts += draw(st.lists(st.sampled_from(facts), max_size=5))
    triples = np.array(facts, dtype=np.int64).reshape(-1, 3)
    return Snapshot(triples, num_entities, num_relations, draw(st.integers(0, 50)))


@given(snapshot=snapshots())
@settings(max_examples=150, deadline=None)
def test_property_edges_equal_lil_oracle(snapshot):
    """Algorithm 1's hyperedges equal the LIL ``setdiag(0)`` form,
    order and dtype included (the message plans sum in edge order)."""
    hyper = build_hyperrelation_graph(snapshot)
    reference = reference_build_hyperrelation_graph(snapshot)
    assert hyper.edges.dtype == reference.dtype
    np.testing.assert_array_equal(hyper.edges, reference)


@given(
    n_facts=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=5000),
)
@settings(max_examples=30, deadline=None)
def test_property_hyperedges_witnessed_by_entity(n_facts, seed):
    """Property: every o-s hyperedge has a witnessing bridge entity that
    is the object of the source relation and the subject of the target."""
    rng = np.random.default_rng(seed)
    triples = np.stack(
        [
            rng.integers(0, 6, size=n_facts),
            rng.integers(0, 3, size=n_facts),
            rng.integers(0, 6, size=n_facts),
        ],
        axis=1,
    )
    snap = Snapshot(triples, num_entities=6, num_relations=3, ts=0)
    hyper = build_hyperrelation_graph(snap)
    objects_of = {}
    subjects_of = {}
    for s, r, o in snap.triples:
        objects_of.setdefault(int(r), set()).add(int(o))
        subjects_of.setdefault(int(r), set()).add(int(s))
    for r_src, htype, r_dst in hyper.edges:
        if htype != 0:  # o-s only
            continue
        bridge = objects_of.get(int(r_src), set()) & subjects_of.get(int(r_dst), set())
        assert bridge, f"o-s edge {r_src}->{r_dst} has no witnessing entity"
