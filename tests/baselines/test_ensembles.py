"""Tests for the Bagging and BANs baselines."""

import numpy as np
import pytest

from repro.baselines import BaggingEnsemble, BANsEnsemble
from repro.errors import ConfigError


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

    def test_custom_factory(self, tiny_graph):
        from repro.models import MLP

        ensemble = BaggingEnsemble(
            num_base_models=2, max_epochs=30,
            model_factory=lambda g, rng: MLP(g.num_features, g.num_classes, rng, hidden=8),
        )
        result = ensemble.fit(tiny_graph, seed=0)
        assert len(result.base_test_accuracies) == 2

    def test_average_and_gain_properties(self, tiny_graph):
        result = BaggingEnsemble(num_base_models=3, hidden=8, max_epochs=40).fit(tiny_graph, seed=0)
        assert result.average_base_accuracy == pytest.approx(
            float(np.mean(result.base_test_accuracies))
        )
        assert result.ensemble_gain == pytest.approx(
            result.ensemble_test_accuracy - result.average_base_accuracy
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

    def test_distill_weight_validation(self):
        with pytest.raises(ConfigError):
            BANsEnsemble(distill_weight=-1.0)

    def test_zero_distill_weight_reduces_to_independent_chain(self, tiny_graph):
        # With weight 0, generations are Bagging-like (no KD supervision).
        result = BANsEnsemble(num_base_models=2, distill_weight=0.0, hidden=8, max_epochs=40).fit(
            tiny_graph, seed=0
        )
        assert len(result.base_test_accuracies) == 2
