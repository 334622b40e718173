"""Tests for the graph-data-based ensemble (§4.3, Eq. 12–13)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EnsembleModel, ensemble_weight, uniform_softmax_ensemble
from repro.errors import ConfigError, ShapeError


def confident_probs(n=4, k=3, confidence=0.95, rng=None):
    rng = rng or np.random.default_rng(0)
    probs = np.full((n, k), (1 - confidence) / (k - 1))
    winners = rng.integers(0, k, n)
    probs[np.arange(n), winners] = confidence
    return probs


class TestEnsembleWeight:
    def test_confident_model_gets_higher_weight(self):
        pagerank = np.full(4, 0.25)
        confident = confident_probs(confidence=0.99)
        unsure = confident_probs(confidence=0.4)
        assert ensemble_weight(confident, pagerank) > ensemble_weight(unsure, pagerank)

    def test_pagerank_weights_node_importance(self):
        # Uncertainty on a high-PageRank node should cost more weight.
        probs = np.array([[0.5, 0.5], [0.99, 0.01]])
        pr_uncertain_hub = np.array([0.9, 0.1])  # node 0 (unsure) is the hub
        pr_confident_hub = np.array([0.1, 0.9])
        assert ensemble_weight(probs, pr_confident_hub) > ensemble_weight(probs, pr_uncertain_hub)

    def test_perfectly_confident_model_finite_weight(self):
        probs = np.eye(3)
        weight = ensemble_weight(probs, np.full(3, 1 / 3))
        assert np.isfinite(weight) and weight > 0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            ensemble_weight(np.ones((3, 2)) / 2, np.ones(4))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 100))
    def test_property_weight_positive(self, seed):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(3), size=10)
        pr = rng.dirichlet(np.ones(10))
        assert ensemble_weight(probs, pr) > 0


class TestEnsembleModel:
    def test_empty_ensemble_raises(self):
        with pytest.raises(ConfigError):
            EnsembleModel().probs()

    def test_weights_normalized(self):
        ens = EnsembleModel()
        probs = confident_probs()
        ens.add(probs, np.log(probs), 2.0)
        ens.add(probs, np.log(probs), 6.0)
        np.testing.assert_allclose(ens.weights, [0.25, 0.75])
        np.testing.assert_allclose(ens.raw_weights, [2.0, 6.0])

    def test_probs_are_weighted_average(self):
        ens = EnsembleModel()
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        ens.add(a, a, 3.0)
        ens.add(b, b, 1.0)
        np.testing.assert_allclose(ens.probs(), [[0.75, 0.25]])

    def test_probs_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        ens = EnsembleModel()
        for _ in range(3):
            probs = rng.dirichlet(np.ones(4), size=6)
            ens.add(probs, np.log(probs + 1e-9), float(rng.random() + 0.1))
        np.testing.assert_allclose(ens.probs().sum(axis=1), np.ones(6))

    def test_embeddings_weighted_average(self):
        ens = EnsembleModel()
        probs = confident_probs(n=2, k=2)
        ens.add(probs, np.ones((2, 2)), 1.0)
        ens.add(probs, np.full((2, 2), 3.0), 1.0)
        np.testing.assert_allclose(ens.embeddings(), np.full((2, 2), 2.0))

    def test_predict_argmax(self):
        ens = EnsembleModel()
        probs = np.array([[0.8, 0.2], [0.1, 0.9]])
        ens.add(probs, probs, 1.0)
        np.testing.assert_array_equal(ens.predict(), [0, 1])

    def test_len(self):
        ens = EnsembleModel()
        assert len(ens) == 0
        probs = confident_probs()
        ens.add(probs, probs, 1.0)
        assert len(ens) == 1

    def test_mismatched_probs_logits_raise(self):
        ens = EnsembleModel()
        with pytest.raises(ShapeError):
            ens.add(np.ones((2, 2)) / 2, np.ones((3, 2)), 1.0)

    def test_mismatched_base_shape_raises(self):
        ens = EnsembleModel()
        probs = confident_probs(n=4)
        ens.add(probs, probs, 1.0)
        other = confident_probs(n=5)
        with pytest.raises(ShapeError):
            ens.add(other, other, 1.0)

    def test_nonpositive_weight_raises(self):
        ens = EnsembleModel()
        probs = confident_probs()
        with pytest.raises(ConfigError):
            ens.add(probs, probs, 0.0)


class TestUniformEnsemble:
    def test_average(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        np.testing.assert_allclose(uniform_softmax_ensemble([a, b]), [[0.5, 0.5]])

    def test_empty_raises(self):
        with pytest.raises(ConfigError):
            uniform_softmax_ensemble([])
