"""Tests for the GCN base model and GraphModel interface."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.models import GCN
from repro.models.base import softmax_rows
from repro.training import Trainer, make_rng


class TestShapes:
    def test_logits_shape(self, tiny_graph, rng):
        model = GCN(tiny_graph.num_features, tiny_graph.num_classes, rng)
        logits = model(tiny_graph)
        assert logits.shape == (tiny_graph.num_nodes, tiny_graph.num_classes)

    def test_deeper_configurations(self, tiny_graph, rng):
        for layers in (1, 2, 3, 4):
            model = GCN(tiny_graph.num_features, tiny_graph.num_classes, rng, num_layers=layers)
            assert model(tiny_graph).shape == (tiny_graph.num_nodes, tiny_graph.num_classes)

    def test_explicit_hidden_widths(self, tiny_graph, rng):
        model = GCN(tiny_graph.num_features, tiny_graph.num_classes, rng, hidden=[32, 8], num_layers=3)
        assert model(tiny_graph).shape[1] == tiny_graph.num_classes

    def test_wrong_width_count_raises(self, rng):
        with pytest.raises(ConfigError):
            GCN(4, 2, rng, hidden=[8], num_layers=3)

    def test_zero_layers_raises(self, rng):
        with pytest.raises(ConfigError):
            GCN(4, 2, rng, num_layers=0)

    @pytest.mark.parametrize("hidden", [0, -3, [8, 0]], ids=["0", "-3", "8,0"])
    def test_hidden_width_below_one_raises(self, rng, hidden):
        # A zero width would predict from the last bias alone.
        with pytest.raises(ConfigError):
            GCN(4, 2, rng, hidden=hidden, num_layers=3)

    def test_subclasses_inherit_width_check(self, rng):
        from repro.models import GraphSAGE
        from repro.robustness.aggregation import RobustGCN

        for cls in (GraphSAGE, RobustGCN):
            with pytest.raises(ConfigError):
                cls(4, 2, rng, hidden=0)


class TestPredictionAPI:
    def test_predict_logits_is_deterministic_in_eval(self, tiny_graph, rng):
        model = GCN(tiny_graph.num_features, tiny_graph.num_classes, rng, dropout=0.5)
        a = model.predict_logits(tiny_graph)
        b = model.predict_logits(tiny_graph)
        np.testing.assert_allclose(a, b)

    def test_predict_logits_restores_training_mode(self, tiny_graph, rng):
        model = GCN(tiny_graph.num_features, tiny_graph.num_classes, rng)
        model.train()
        model.predict_logits(tiny_graph)
        assert model.training

    def test_predict_proba_rows_sum_to_one(self, tiny_graph, rng):
        model = GCN(tiny_graph.num_features, tiny_graph.num_classes, rng)
        probs = model.predict_proba(tiny_graph)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(tiny_graph.num_nodes))

    def test_predict_returns_classes(self, tiny_graph, rng):
        model = GCN(tiny_graph.num_features, tiny_graph.num_classes, rng)
        preds = model.predict(tiny_graph)
        assert preds.shape == (tiny_graph.num_nodes,)
        assert set(np.unique(preds)) <= set(range(tiny_graph.num_classes))

    def test_softmax_rows_helper(self):
        probs = softmax_rows(np.array([[0.0, 0.0], [10.0, -10.0]]))
        np.testing.assert_allclose(probs.sum(axis=1), [1.0, 1.0])
        assert probs[1, 0] > 0.99


class TestLearning:
    def test_learns_two_block_task(self, tiny_graph):
        model = GCN(tiny_graph.num_features, tiny_graph.num_classes, make_rng(0), hidden=8)
        result = Trainer(max_epochs=120, patience=30).fit(model, tiny_graph)
        assert result.test_accuracy >= 0.85

    def test_training_reduces_loss(self, tiny_graph):
        from repro.tensor import ops
        from repro.tensor.functional import masked_cross_entropy

        model = GCN(tiny_graph.num_features, tiny_graph.num_classes, make_rng(1), dropout=0.0)

        def loss_value():
            logits = model(tiny_graph)
            return masked_cross_entropy(
                ops.log_softmax(logits, axis=1), tiny_graph.labels, tiny_graph.train_index
            ).item()

        before = loss_value()
        Trainer(max_epochs=50, patience=50).fit(model, tiny_graph)
        model.eval()
        assert loss_value() < before

    def test_propagation_uses_graph_structure(self, tiny_graph, rng):
        # Shuffling the adjacency (random graph, same features) should hurt:
        # accuracy with the true structure exceeds chance clearly.
        model = GCN(tiny_graph.num_features, tiny_graph.num_classes, make_rng(2), hidden=8)
        result = Trainer(max_epochs=100, patience=30).fit(model, tiny_graph)
        assert result.test_accuracy > 0.6
