"""Tests for RETIA's building blocks: RGCN, decoder, TIM, RAM, EAM."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core import (
    ConvTransE,
    EntityAggregationModule,
    RelationAggregationModule,
    RGCNLayer,
    RGCNStack,
    TwinInteractModule,
)
from repro.graph import NUM_HYPERRELATIONS, Snapshot, build_hyperrelation_graph
from tests.oracles import reference_probabilities


def make_snapshot(triples, num_entities=6, num_relations=3, ts=0):
    return Snapshot(np.array(triples), num_entities, num_relations, ts)


RNG = np.random.default_rng


class TestRGCNLayer:
    def test_output_shape(self):
        layer = RGCNLayer(num_edge_types=6, dim=8, rng=RNG(0)).eval()
        snap = make_snapshot([[0, 1, 2], [3, 0, 4]])
        nodes = Tensor(RNG(1).normal(size=(6, 8)))
        rels = Tensor(RNG(2).normal(size=(6, 8)))
        out = layer(nodes, rels, snap.edges_with_inverse, snap.edge_norm)
        assert out.shape == (6, 8)

    def test_isolated_nodes_selfloop_only(self):
        """Nodes with no in-edges still get the W_0 self-loop term."""
        layer = RGCNLayer(6, 4, dropout=0.0, activation=False, rng=RNG(0)).eval()
        snap = make_snapshot([[0, 1, 2]])
        nodes = Tensor(RNG(1).normal(size=(6, 4)))
        rels = Tensor(np.zeros((6, 4)))
        out = layer(nodes, rels, snap.edges_with_inverse, snap.edge_norm)
        expected = nodes.data[5] @ layer.self_weight.data
        np.testing.assert_allclose(out.data[5], expected, atol=1e-10)

    def test_empty_graph(self):
        layer = RGCNLayer(6, 4, dropout=0.0, rng=RNG(0)).eval()
        snap = make_snapshot(np.zeros((0, 3)))
        nodes = Tensor(np.ones((6, 4)))
        rels = Tensor(np.zeros((6, 4)))
        out = layer(nodes, rels, snap.edges_with_inverse, snap.edge_norm)
        assert out.shape == (6, 4)

    def test_message_includes_relation_embedding(self):
        """Eq. 4 messages are W_r (e_s + r): changing r changes the output."""
        layer = RGCNLayer(6, 4, dropout=0.0, activation=False, rng=RNG(0)).eval()
        snap = make_snapshot([[0, 1, 2]])
        nodes = Tensor(np.ones((6, 4)))
        out_a = layer(nodes, Tensor(np.zeros((6, 4))), snap.edges_with_inverse, snap.edge_norm)
        out_b = layer(nodes, Tensor(np.ones((6, 4))), snap.edges_with_inverse, snap.edge_norm)
        assert not np.allclose(out_a.data[2], out_b.data[2])

    def test_normalisation_averages_neighbors(self):
        """With identity weights and two same-relation neighbors, the
        aggregated message is their average."""
        layer = RGCNLayer(6, 2, dropout=0.0, activation=False, rng=RNG(0)).eval()
        layer.weight.data[...] = np.eye(2)
        layer.self_weight.data[...] = 0.0
        snap = make_snapshot([[0, 1, 2], [3, 1, 2]])
        nodes = Tensor(np.array([[2.0, 0.0]] * 6))
        nodes.data[3] = [4.0, 0.0]
        rels = Tensor(np.zeros((6, 2)))
        out = layer(nodes, rels, snap.edges_with_inverse, snap.edge_norm)
        np.testing.assert_allclose(out.data[2], [3.0, 0.0])

    def test_gradients_reach_weight_bank(self):
        layer = RGCNLayer(6, 4, dropout=0.0, rng=RNG(0))
        snap = make_snapshot([[0, 1, 2]])
        nodes = Tensor(RNG(1).normal(size=(6, 4)), requires_grad=True)
        rels = Tensor(RNG(2).normal(size=(6, 4)))
        layer(nodes, rels, snap.edges_with_inverse, snap.edge_norm).sum().backward()
        assert layer.weight.grad is not None
        assert layer.self_weight.grad is not None
        assert nodes.grad is not None

    def test_stack_depth(self):
        stack = RGCNStack(6, 4, num_layers=2, rng=RNG(0))
        assert len(stack.parameters()) == 4  # two layers x (bank, self)
        with pytest.raises(ValueError):
            RGCNStack(6, 4, num_layers=0)


class TestConvTransE:
    def test_score_shape(self):
        dec = ConvTransE(dim=8, num_kernels=4, rng=RNG(0)).eval()
        a = Tensor(RNG(1).normal(size=(5, 8)))
        b = Tensor(RNG(2).normal(size=(5, 8)))
        candidates = Tensor(RNG(3).normal(size=(11, 8)))
        assert dec(a, b, candidates).shape == (5, 11)

    def test_probabilities_normalised(self):
        dec = ConvTransE(dim=8, num_kernels=4, rng=RNG(0)).eval()
        a = Tensor(RNG(1).normal(size=(3, 8)))
        b = Tensor(RNG(2).normal(size=(3, 8)))
        candidates = Tensor(RNG(3).normal(size=(7, 8)))
        probs = reference_probabilities(dec, a, b, candidates)
        np.testing.assert_allclose(probs.data.sum(axis=1), np.ones(3), atol=1e-10)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            ConvTransE(dim=8, kernel_width=2)

    def test_gradients_flow_to_conv(self):
        dec = ConvTransE(dim=8, num_kernels=4, rng=RNG(0))
        a = Tensor(RNG(1).normal(size=(2, 8)))
        b = Tensor(RNG(2).normal(size=(2, 8)))
        candidates = Tensor(RNG(3).normal(size=(5, 8)), requires_grad=True)
        dec(a, b, candidates).sum().backward()
        assert dec.conv.weight.grad is not None
        assert dec.project.weight.grad is not None
        assert candidates.grad is not None


class TestTwinInteractModule:
    def test_relation_mean_shape(self):
        tim = TwinInteractModule(num_relations=3, dim=8, rng=RNG(0))
        snap = make_snapshot([[0, 1, 2], [3, 0, 4]])
        entity_prev = Tensor(RNG(1).normal(size=(6, 8)))
        r0 = Tensor(RNG(2).normal(size=(6, 8)))  # 2M = 6
        out = tim.relation_mean(entity_prev, r0, snap)
        assert out.shape == (6, 16)  # (2M, 2d)

    def test_relation_mean_pools_connected_entities(self):
        tim = TwinInteractModule(num_relations=2, dim=4, rng=RNG(0))
        snap = make_snapshot([[0, 1, 2]], num_relations=2)
        entity_prev = Tensor(np.zeros((6, 4)))
        entity_prev.data[0] = 1.0
        entity_prev.data[2] = 3.0
        r0 = Tensor(np.zeros((4, 4)))
        out = tim.relation_mean(entity_prev, r0, snap)
        # Relation 1 connects entities {0, 2} -> mean = 2.0 in columns d:.
        np.testing.assert_allclose(out.data[1, 4:], np.full(4, 2.0))
        # Relation 0 has no incident entities -> zero pool.
        np.testing.assert_allclose(out.data[0, 4:], np.zeros(4))

    def test_hyper_mean_shape(self):
        tim = TwinInteractModule(num_relations=3, dim=8, rng=RNG(0))
        snap = make_snapshot([[0, 0, 1], [1, 1, 2]])
        hyper = build_hyperrelation_graph(snap)
        r_lstm = Tensor(RNG(1).normal(size=(6, 8)))
        hr0 = Tensor(RNG(2).normal(size=(2 * NUM_HYPERRELATIONS, 8)))
        out = tim.hyper_mean(r_lstm, hr0, hyper)
        assert out.shape == (2 * NUM_HYPERRELATIONS, 16)

    def test_full_step_shapes(self):
        tim = TwinInteractModule(num_relations=3, dim=8, rng=RNG(0))
        snap = make_snapshot([[0, 0, 1], [1, 1, 2]])
        hyper = build_hyperrelation_graph(snap)
        entity_prev = Tensor(RNG(1).normal(size=(6, 8)))
        r_prev = Tensor(RNG(2).normal(size=(6, 8)))
        hr_prev = Tensor(RNG(3).normal(size=(8, 8)))
        r0, hr0 = r_prev, hr_prev
        r_lstm, c, hr, hc = tim(
            entity_prev, r_prev, None, hr_prev, None, r0, hr0, snap, hyper
        )
        assert r_lstm.shape == (6, 8)
        assert c.shape == (6, 8)
        assert hr.shape == (8, 8)
        assert hc.shape == (8, 8)


class TestRAMAndEAM:
    def test_ram_shapes(self):
        ram = RelationAggregationModule(dim=8, rng=RNG(0)).eval()
        snap = make_snapshot([[0, 0, 1], [1, 1, 2]])
        hyper = build_hyperrelation_graph(snap)
        r_lstm = Tensor(RNG(1).normal(size=(6, 8)))
        hr = Tensor(RNG(2).normal(size=(2 * NUM_HYPERRELATIONS, 8)))
        out = ram(r_lstm, hr, hyper)
        assert out.shape == (6, 8)

    def test_eam_shapes(self):
        eam = EntityAggregationModule(num_relations=3, dim=8, rng=RNG(0)).eval()
        snap = make_snapshot([[0, 1, 2], [3, 2, 4]])
        entity_prev = Tensor(RNG(1).normal(size=(6, 8)))
        relations = Tensor(RNG(2).normal(size=(6, 8)))
        out = eam(entity_prev, relations, snap)
        assert out.shape == (6, 8)

    def test_eam_gru_blends_history(self):
        """E_t depends on E_{t-1} through the R-GRU even for inactive
        entities (their embedding must not be zeroed)."""
        eam = EntityAggregationModule(num_relations=3, dim=8, rng=RNG(0)).eval()
        snap = make_snapshot([[0, 1, 2]])
        entity_prev = Tensor(RNG(1).normal(size=(6, 8)))
        relations = Tensor(RNG(2).normal(size=(6, 8)))
        out = eam(entity_prev, relations, snap)
        assert not np.allclose(out.data[5], np.zeros(8))

    def test_ram_messages_cross_entity_gap(self):
        """The message-islands fix: relation 2's embedding must be
        influenced by relation 0 two hyper-hops away."""
        ram = RelationAggregationModule(dim=4, num_layers=2, dropout=0.0, rng=RNG(0)).eval()
        # Chain 0 -r0-> 1 -r1-> 2 -r2-> 3: r0 and r2 are not adjacent in
        # the original graph but are two hops apart in the hypergraph.
        snap = make_snapshot([[0, 0, 1], [1, 1, 2], [2, 2, 3]])
        hyper = build_hyperrelation_graph(snap)
        r_base = RNG(1).normal(size=(6, 4))
        hr = Tensor(RNG(2).normal(size=(2 * NUM_HYPERRELATIONS, 4)))
        out_a = ram(Tensor(r_base.copy()), hr, hyper)
        perturbed = r_base.copy()
        perturbed[0] += 10.0  # change r0 only
        out_b = ram(Tensor(perturbed), hr, hyper)
        assert not np.allclose(out_a.data[2], out_b.data[2])
