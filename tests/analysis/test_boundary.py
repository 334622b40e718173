"""Tests for decision-boundary analysis."""

import numpy as np
import pytest

from repro.analysis import boundary_mask, boundary_reliability_report
from repro.core import node_reliability, teacher_context
from repro.errors import ShapeError
from repro.graph import Graph, build_adjacency
from repro.models import GCN
from repro.models.base import softmax_rows
from repro.training import Trainer, make_rng


def two_triangles_with_bridge():
    """Two 3-cliques connected by one edge: nodes 2 and 3 are boundary."""
    edges = np.array([[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5], [2, 3]])
    adjacency = build_adjacency(6, edges)
    labels = np.array([0, 0, 0, 1, 1, 1])
    return Graph(
        adjacency, np.eye(6), labels,
        train_index=np.array([0, 5]),
        val_index=np.array([1, 4]),
        test_index=np.array([2, 3]),
    )


class TestBoundaryMask:
    def test_identifies_bridge_endpoints(self):
        graph = two_triangles_with_bridge()
        mask = boundary_mask(graph)
        np.testing.assert_array_equal(mask, [False, False, True, True, False, False])

    def test_fully_homophilous_graph_has_no_boundary(self):
        adjacency = build_adjacency(4, np.array([[0, 1], [2, 3]]))
        graph = Graph(adjacency, np.eye(4), np.array([0, 0, 1, 1]),
                      np.array([0]), np.array([1]), np.array([2]))
        assert not boundary_mask(graph).any()


class TestBoundaryReliabilityReport:
    def _report(self, graph):
        model = GCN(graph.num_features, graph.num_classes, make_rng(0), hidden=8)
        Trainer(max_epochs=60).fit(model, graph)
        probs = softmax_rows(model.predict_logits(graph))
        context = teacher_context(probs, graph.labels, graph.train_index, p=40.0)
        sets = node_reliability(probs, context)
        return boundary_reliability_report(graph, sets, probs)

    def test_report_fields_well_formed(self, tiny_graph):
        report = self._report(tiny_graph)
        assert 0.0 <= report.boundary_fraction <= 1.0
        for value in (
            report.reliable_rate_boundary,
            report.reliable_rate_interior,
            report.teacher_accuracy_boundary,
            report.teacher_accuracy_interior,
        ):
            assert np.isnan(value) or 0.0 <= value <= 1.0

    def test_paper_claim_boundary_nodes_harder(self, tiny_graph):
        # "nodes lying near the decision boundary ... are actually the
        # ones on which predictions are unreliable" (§1.2): teacher
        # accuracy on boundary nodes should not exceed interior accuracy.
        report = self._report(tiny_graph)
        assert report.teacher_accuracy_boundary <= report.teacher_accuracy_interior + 0.1

    def test_shape_validation(self, tiny_graph):
        model = GCN(tiny_graph.num_features, tiny_graph.num_classes, make_rng(0), hidden=8)
        probs = softmax_rows(model.predict_logits(tiny_graph))
        context = teacher_context(probs, tiny_graph.labels, tiny_graph.train_index)
        sets = node_reliability(probs, context)
        with pytest.raises(ShapeError):
            boundary_reliability_report(tiny_graph, sets, probs[:5])
