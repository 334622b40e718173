"""Tests for the Label Propagation baseline."""

import numpy as np

from repro.baselines import LabelPropagation
from repro.tensor.functional import accuracy


class TestLabelPropagation:
    def test_probabilities_normalized(self, tiny_graph):
        probs = LabelPropagation().predict_proba(tiny_graph)
        assert probs.shape == (tiny_graph.num_nodes, tiny_graph.num_classes)
        sums = probs.sum(axis=1)
        np.testing.assert_allclose(sums[sums > 0], 1.0)

    def test_labeled_nodes_keep_their_class(self, tiny_graph):
        preds = LabelPropagation().predict(tiny_graph)
        train = tiny_graph.train_index
        assert accuracy(preds, tiny_graph.labels, train) == 1.0

    def test_solves_homophilous_two_block_task(self, tiny_graph):
        preds = LabelPropagation().predict(tiny_graph)
        acc = accuracy(preds, tiny_graph.labels, tiny_graph.test_index)
        assert acc > 0.8

    def test_deterministic(self, tiny_graph):
        a = LabelPropagation().predict_proba(tiny_graph)
        b = LabelPropagation().predict_proba(tiny_graph)
        np.testing.assert_allclose(a, b)
