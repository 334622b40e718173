"""Tests for the pluggable reliability uncertainty scores."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scores import RELIABILITY_SCORES, uncertainty_score
from repro.core import RDDConfig, node_reliability, teacher_context, train_rdd
from repro.errors import ConfigError


def confident(p, k=3):
    row = np.full(k, (1 - p) / (k - 1))
    row[0] = p
    return row


class TestUncertaintyScore:
    @pytest.mark.parametrize("score", RELIABILITY_SCORES)
    def test_confident_rows_score_lower(self, score):
        probs = np.stack([confident(0.95), confident(0.4)])
        values = uncertainty_score(probs, score)
        assert values[0] < values[1]

    def test_entropy_matches_functional(self):
        from repro.tensor.functional import entropy

        probs = np.random.default_rng(0).dirichlet(np.ones(4), size=10)
        np.testing.assert_allclose(uncertainty_score(probs, "entropy"), entropy(probs))

    def test_margin_values(self):
        probs = np.array([[0.7, 0.2, 0.1]])
        assert uncertainty_score(probs, "margin")[0] == pytest.approx(1.0 - 0.5)

    def test_confidence_values(self):
        probs = np.array([[0.7, 0.2, 0.1]])
        assert uncertainty_score(probs, "confidence")[0] == pytest.approx(0.3)

    def test_unknown_score_raises(self):
        with pytest.raises(ConfigError):
            uncertainty_score(np.ones((2, 2)) / 2, "variance")

    def test_margin_needs_two_classes(self):
        with pytest.raises(ConfigError):
            uncertainty_score(np.ones((2, 1)), "margin")

    def test_rejects_1d(self):
        with pytest.raises(ConfigError):
            uncertainty_score(np.ones(3), "entropy")

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 100))
    def test_property_scores_nonnegative(self, seed):
        probs = np.random.default_rng(seed).dirichlet(np.ones(4), size=15)
        for score in RELIABILITY_SCORES:
            assert (uncertainty_score(probs, score) >= -1e-12).all()


class TestScoreIntegration:
    @pytest.mark.parametrize("score", RELIABILITY_SCORES)
    def test_node_reliability_accepts_score(self, score):
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(3), size=30)
        context = teacher_context(
            probs, np.zeros(30, dtype=np.int64), np.arange(5), p=40.0, score=score
        )
        sets = node_reliability(probs, context)
        assert np.all(sets.reliable_mask[sets.distill_mask])

    def test_rdd_config_validates_score(self):
        with pytest.raises(ConfigError):
            RDDConfig(reliability_score="variance")

    @pytest.mark.parametrize("score", RELIABILITY_SCORES)
    def test_rdd_trains_with_every_score(self, tiny_graph, score):
        config = RDDConfig(
            num_base_models=2, max_epochs=20, hidden=8, reliability_score=score
        )
        result = train_rdd(tiny_graph, config, seed=0)
        assert 0.0 <= result.ensemble_test_accuracy <= 1.0


class TestMarginPartitionParity:
    """The argpartition-based top-two margin must equal the full-sort
    formulation exactly (same floats, not just close)."""

    @staticmethod
    def sort_reference(probs):
        top_two = np.sort(probs, axis=1)[:, -2:]
        return 1.0 - (top_two[:, 1] - top_two[:, 0])

    def test_two_classes(self):
        probs = np.array([[0.9, 0.1], [0.5, 0.5], [0.2, 0.8]])
        np.testing.assert_array_equal(
            uncertainty_score(probs, "margin"), self.sort_reference(probs)
        )

    def test_tied_maxima(self):
        probs = np.array([[0.4, 0.4, 0.2], [1 / 3, 1 / 3, 1 / 3]])
        np.testing.assert_array_equal(
            uncertainty_score(probs, "margin"), self.sort_reference(probs)
        )

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(2, 12))
    def test_property_matches_full_sort(self, seed, k):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(k), size=int(rng.integers(1, 40)))
        np.testing.assert_array_equal(
            uncertainty_score(probs, "margin"), self.sort_reference(probs)
        )
