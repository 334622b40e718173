"""Correctness of sampled GraphSAGE: ``BlockBuilder`` blocks through
``SampledTrainer._forward_blocks``.

With full fanout (≥ max degree) and dropout disabled, the sampled
forward must reproduce the full-batch GraphSAGE computation for the
batch nodes — a strong equivalence check on the block machinery and on
:meth:`GraphSAGE.block_adjacency`.
"""

import numpy as np
import pytest

from repro.graph.graph import Graph, build_adjacency
from repro.models import GraphSAGE
from repro.sampling import BlockBuilder
from repro.training import make_rng
from repro.training.sampled import SampledTrainer


def make_sage(graph, seed=0, dropout=0.0):
    return GraphSAGE(
        graph.num_features, graph.num_classes, make_rng(seed),
        hidden=8, num_layers=2, dropout=dropout,
    )


def full_fanouts(graph):
    max_degree = int(np.diff(graph.adjacency.indptr).max())
    return (max_degree, max_degree)


def sampled_and_full_logits(graph, seeds, fanouts, sample_seed=1):
    model = make_sage(graph)
    model.eval()
    full_logits = model(graph).data
    batch = BlockBuilder(graph.adjacency, fanouts, seed=sample_seed).build(seeds)
    sampled = SampledTrainer._forward_blocks(model, graph, batch).data
    return sampled, full_logits[batch.seeds]


class TestSampledForwardEquivalence:
    def test_full_fanout_matches_full_batch(self, tiny_graph):
        sampled, full = sampled_and_full_logits(
            tiny_graph, tiny_graph.train_index[:5], full_fanouts(tiny_graph)
        )
        np.testing.assert_allclose(sampled, full, rtol=0, atol=1e-10)

    def test_full_fanout_matches_full_batch_sparse_features(self, small_citation):
        graph = small_citation
        assert graph.features.format == "csr"
        sampled, full = sampled_and_full_logits(graph, graph.train_index, full_fanouts(graph))
        np.testing.assert_allclose(sampled, full, rtol=0, atol=1e-10)

    def test_isolated_nodes_get_a_zero_neighbor_mean(self):
        # Nodes 4 and 5 have no neighbors: their neighbor mean is zero in
        # the full-batch forward, so it must be zero in a block too (a
        # self edge standing in for a neighbor would count the node's own
        # features twice).
        adjacency = build_adjacency(6, np.array([[0, 1], [1, 2], [2, 3], [0, 3]]))
        features = np.random.default_rng(3).normal(size=(6, 5))
        labels = np.array([0, 1, 0, 1, 0, 1])
        graph = Graph(adjacency, features, labels, np.array([0, 1]), np.array([2, 3]),
                      np.array([4, 5]))
        sampled, full = sampled_and_full_logits(graph, np.arange(6), (2, 2))
        np.testing.assert_allclose(sampled, full, rtol=0, atol=1e-10)

    def test_partial_fanout_approximates_full_batch(self, tiny_graph):
        sampled, reference = sampled_and_full_logits(
            tiny_graph, tiny_graph.train_index[:5], (3, 3), sample_seed=2
        )
        # Sampling noise is bounded: predictions correlate with the exact ones.
        correlation = np.corrcoef(sampled.ravel(), reference.ravel())[0, 1]
        assert correlation > 0.6


class TestSampledTraining:
    # Training to accuracy on tiny_graph is in
    # tests/graph/test_sampling.py::TestMiniBatchSAGE.

    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_sparse_feature_fit(self, small_citation, dropout):
        graph = small_citation
        model = make_sage(graph, dropout=dropout)
        before = model.state_dict()
        result = SampledTrainer(
            fanouts=(5, 5), batch_size=64, max_epochs=3, patience=10
        ).fit(model, graph)
        assert result.epochs_run == 3
        assert result.predictions.shape == (graph.num_nodes, graph.num_classes)
        assert np.isfinite(result.predictions).all()
        assert any(not np.array_equal(before[k], v) for k, v in model.state_dict().items())
