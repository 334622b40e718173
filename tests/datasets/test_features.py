"""Tests for the class-topic feature generator."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.features import generate_topic_features, one_hot_identity_features
from repro.errors import DatasetError


class TestTopicFeatures:
    def test_shape_and_sparsity(self, rng):
        labels = np.repeat([0, 1, 2], 40)
        features = generate_topic_features(labels, 200, rng)
        assert features.shape == (120, 200)
        assert sp.issparse(features)
        assert features.nnz < 120 * 200 * 0.5

    def test_binary_values(self, rng):
        labels = np.repeat([0, 1], 30)
        features = generate_topic_features(labels, 100, rng)
        assert set(np.unique(features.data)) == {1.0}

    def test_every_row_nonempty(self, rng):
        labels = np.repeat([0, 1, 2, 3], 25)
        features = generate_topic_features(labels, 150, rng, words_per_doc=3.0)
        row_sums = np.asarray(features.sum(axis=1)).ravel()
        assert row_sums.min() >= 1

    def test_words_per_doc_controls_density(self):
        labels = np.repeat([0, 1], 200)
        sparse_feats = generate_topic_features(labels, 300, np.random.default_rng(0), words_per_doc=5.0)
        dense_feats = generate_topic_features(labels, 300, np.random.default_rng(0), words_per_doc=30.0)
        assert dense_feats.nnz > 2 * sparse_feats.nnz

    def test_signal_terms_are_class_discriminative(self):
        rng = np.random.default_rng(1)
        labels = np.repeat([0, 1], 150)
        features = generate_topic_features(labels, 200, rng, signal_strength=12.0).toarray()
        # Class 0's signal block must fire more for class-0 docs.
        signal_width = max(1, int(200 * 0.25 / 2))
        class0_rate = features[labels == 0, :signal_width].mean()
        class1_rate = features[labels == 1, :signal_width].mean()
        assert class0_rate > 3 * class1_rate

    def test_noise_reduces_discriminability(self):
        labels = np.repeat([0, 1], 150)
        clean = generate_topic_features(labels, 200, np.random.default_rng(2), noise=0.0).toarray()
        noisy = generate_topic_features(labels, 200, np.random.default_rng(2), noise=0.8).toarray()
        width = max(1, int(200 * 0.25 / 2))

        def contrast(feats):
            return feats[labels == 0, :width].mean() - feats[labels == 1, :width].mean()

        assert contrast(noisy) < contrast(clean)

    def test_invalid_noise_raises(self, rng):
        with pytest.raises(DatasetError):
            generate_topic_features(np.array([0, 1]), 50, rng, noise=1.5)

    def test_vocab_too_small_raises(self, rng):
        with pytest.raises(DatasetError):
            generate_topic_features(np.arange(10), 5, rng, signal_fraction=10.0)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 50), classes=st.integers(2, 5))
    def test_property_shape_and_rows(self, seed, classes):
        rng = np.random.default_rng(seed)
        labels = np.repeat(np.arange(classes), 20)
        features = generate_topic_features(labels, 120, rng)
        assert features.shape == (20 * classes, 120)
        assert np.asarray(features.sum(axis=1)).ravel().min() >= 1


class TestIdentityFeatures:
    def test_identity_block(self):
        features = one_hot_identity_features(5)
        np.testing.assert_allclose(features.toarray(), np.eye(5))

    def test_padding(self):
        features = one_hot_identity_features(4, num_extra=3)
        assert features.shape == (4, 7)
        assert features[:, 4:].nnz == 0
