"""Tests for the Bagging and BANs baselines."""

import numpy as np
import pytest

from repro.baselines import BaggingEnsemble, BANsEnsemble
from repro.models.base import softmax_rows
from repro.tensor import Tensor, ops
from repro.tensor.functional import kl_divergence, masked_cross_entropy


class TestBagging:
    def test_result_structure(self, tiny_graph):
        result = BaggingEnsemble(num_base_models=3, hidden=8, max_epochs=40).fit(tiny_graph, seed=0)
        assert len(result.base_test_accuracies) == 3
        assert len(result.ensemble_curve) == 3
        assert result.ensemble_curve[-1] == pytest.approx(result.ensemble_test_accuracy)

    def test_learns_task(self, tiny_graph):
        result = BaggingEnsemble(num_base_models=3, hidden=8, max_epochs=80).fit(tiny_graph, seed=0)
        assert result.ensemble_test_accuracy > 0.8

    def test_base_models_differ(self, tiny_graph):
        result = BaggingEnsemble(num_base_models=4, hidden=8, max_epochs=40).fit(tiny_graph, seed=0)
        # Independent inits: at least two base accuracies differ (diversity).
        assert len(set(result.base_test_accuracies)) >= 2 or result.average_base_accuracy == 1.0

    def test_deterministic_per_seed(self, tiny_graph):
        a = BaggingEnsemble(num_base_models=2, hidden=8, max_epochs=30).fit(tiny_graph, seed=5)
        b = BaggingEnsemble(num_base_models=2, hidden=8, max_epochs=30).fit(tiny_graph, seed=5)
        assert a.base_test_accuracies == b.base_test_accuracies

    def test_average_base_accuracy_property(self, tiny_graph):
        result = BaggingEnsemble(num_base_models=3, hidden=8, max_epochs=40).fit(tiny_graph, seed=0)
        assert result.average_base_accuracy == pytest.approx(
            float(np.mean(result.base_test_accuracies))
        )

    def test_models_to_reach(self, tiny_graph):
        result = BaggingEnsemble(num_base_models=3, hidden=8, max_epochs=60).fit(tiny_graph, seed=0)
        needed = result.models_to_reach(0.5)
        assert needed is None or 1 <= needed <= 3
        assert result.models_to_reach(2.0) is None  # unreachable target


class TestBANs:
    def test_result_structure(self, tiny_graph):
        result = BANsEnsemble(num_base_models=3, hidden=8, max_epochs=40).fit(tiny_graph, seed=0)
        assert len(result.base_test_accuracies) == 3

    def test_learns_task(self, tiny_graph):
        result = BANsEnsemble(num_base_models=3, hidden=8, max_epochs=80).fit(tiny_graph, seed=0)
        assert result.ensemble_test_accuracy > 0.8

    def test_kd_loss_is_supervised_plus_untempered_kl(self, tiny_graph):
        # Born-again KD: cross entropy plus KL toward the previous
        # generation's softmax, both at weight one and neither tempered.
        rng = np.random.default_rng(0)
        shape = (tiny_graph.num_nodes, tiny_graph.num_classes)
        teacher = softmax_rows(rng.normal(size=shape))
        logits = Tensor(rng.normal(size=shape), requires_grad=True)
        loss = BANsEnsemble()._kd_loss(tiny_graph, teacher)(None, logits, 0)
        log_probs = ops.log_softmax(logits, axis=1)
        supervised = masked_cross_entropy(log_probs, tiny_graph.labels, tiny_graph.train_index)
        assert loss.item() == supervised.item() + kl_divergence(log_probs, teacher).item()
