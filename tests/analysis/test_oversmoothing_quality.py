"""Tests for over-smoothing metrics and reliability-quality diagnostics."""

import numpy as np
import pytest

from repro.analysis import (
    depth_collapse_curve,
    edge_reliability_quality,
    mad_gap,
    mean_pairwise_distance,
    node_reliability_quality,
)
from repro.core import node_reliability, teacher_context
from repro.errors import ShapeError
from repro.models import GCN
from repro.models.base import softmax_rows
from repro.training import Trainer, make_rng


class TestOversmoothingMetrics:
    def test_collapsed_embeddings_zero_distance(self):
        embeddings = np.ones((50, 8))
        assert mean_pairwise_distance(embeddings) == pytest.approx(0.0)

    def test_spread_embeddings_positive_distance(self, rng):
        embeddings = rng.normal(size=(50, 8))
        assert mean_pairwise_distance(embeddings) > 1.0

    def test_distance_shape_validation(self):
        with pytest.raises(ShapeError):
            mean_pairwise_distance(np.ones(10))

    def test_mad_gap_positive_for_community_structure(self, tiny_graph):
        # Embeddings = one-hot community indicator → neighbors nearly always
        # same community → positive gap.
        embeddings = np.zeros((tiny_graph.num_nodes, 2))
        embeddings[np.arange(tiny_graph.num_nodes), tiny_graph.labels] = 1.0
        assert mad_gap(tiny_graph, embeddings) > 0.1

    def test_mad_gap_zero_for_constant_embeddings(self, tiny_graph):
        embeddings = np.ones((tiny_graph.num_nodes, 4))
        assert mad_gap(tiny_graph, embeddings) == pytest.approx(0.0, abs=1e-9)

    def test_depth_collapse_curve_structure(self, tiny_graph):
        curve = depth_collapse_curve(tiny_graph, depths=(2, 4), max_epochs=30)
        assert set(curve) == {2, 4}
        for metrics in curve.values():
            assert {"test_accuracy", "mean_pairwise_distance", "mad_gap"} <= set(metrics)


class TestReliabilityQuality:
    def _setup(self, graph):
        model = GCN(graph.num_features, graph.num_classes, make_rng(0), hidden=8)
        Trainer(max_epochs=60).fit(model, graph)
        probs = softmax_rows(model.predict_logits(graph))
        context = teacher_context(probs, graph.labels, graph.train_index, p=40.0)
        sets = node_reliability(probs, context)
        return probs, sets

    def test_reliable_nodes_are_more_accurate(self, tiny_graph):
        probs, sets = self._setup(tiny_graph)
        quality = node_reliability_quality(sets, probs, tiny_graph.labels)
        assert quality.reliable_precision >= quality.unreliable_precision
        assert quality.separation >= 0.0
        assert 0.0 < quality.reliable_fraction < 1.0
        assert quality.distill_fraction <= quality.reliable_fraction

    def test_node_quality_shape_validation(self, tiny_graph):
        probs, sets = self._setup(tiny_graph)
        with pytest.raises(ShapeError):
            node_reliability_quality(sets, probs[:5], tiny_graph.labels)

    def test_reliable_edges_purer_than_raw(self, tiny_graph):
        probs, sets = self._setup(tiny_graph)
        quality = edge_reliability_quality(tiny_graph, sets, probs.argmax(axis=1))
        assert quality.reliable_edge_same_class_rate >= quality.all_edge_same_class_rate - 0.05
        assert 0.0 <= quality.reliable_edge_fraction <= 1.0
        assert quality.purity_gain == pytest.approx(
            quality.reliable_edge_same_class_rate - quality.all_edge_same_class_rate
        )
