"""Tests for metrics, records, and seeding utilities."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.training import (
    EnsembleResult,
    TrainResult,
    confusion_matrix,
    macro_f1,
    make_rng,
    spawn_rngs,
)


class TestMetrics:
    def test_confusion_matrix_values(self):
        preds = np.array([0, 1, 1, 0])
        labels = np.array([0, 1, 0, 0])
        matrix = confusion_matrix(preds, labels)
        np.testing.assert_array_equal(matrix, [[2, 1], [0, 1]])

    def test_confusion_matrix_from_probabilities(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.8]])
        matrix = confusion_matrix(probs, np.array([0, 1]))
        np.testing.assert_array_equal(matrix, [[1, 0], [0, 1]])

    def test_confusion_matrix_shape_mismatch(self):
        with pytest.raises(ShapeError):
            confusion_matrix(np.array([0]), np.array([0, 1]))

    def test_macro_f1_perfect(self):
        preds = np.array([0, 1, 2])
        assert macro_f1(preds, preds) == 1.0

    def test_macro_f1_worst(self):
        preds = np.array([1, 2, 0])
        labels = np.array([0, 1, 2])
        assert macro_f1(preds, labels) == 0.0

    def test_macro_f1_unweighted_across_classes(self):
        # Class 1 rare but fully correct; class 0 common and half wrong.
        preds = np.array([0, 0, 1, 1, 1])
        labels = np.array([0, 1, 1, 0, 0])
        value = macro_f1(preds, labels)
        assert 0.0 < value < 1.0


class TestRecords:
    def _result(self, **kw):
        defaults = dict(train_accuracy=1.0, val_accuracy=0.8, test_accuracy=0.7,
                        epochs_run=10, best_epoch=5, wall_time_s=1.0)
        defaults.update(kw)
        return TrainResult(**defaults)

    def test_ensemble_result_properties(self):
        result = EnsembleResult(
            ensemble_test_accuracy=0.9,
            ensemble_val_accuracy=0.85,
            base_test_accuracies=[0.7, 0.8],
            base_results=[self._result(wall_time_s=2.0), self._result(wall_time_s=4.0)],
            ensemble_curve=[0.75, 0.9],
        )
        assert result.average_base_accuracy == pytest.approx(0.75)
        assert result.ensemble_gain == pytest.approx(0.15)
        assert result.last_base_test_accuracy == 0.8
        assert result.average_model_time_s == pytest.approx(3.0)
        assert result.models_to_reach(0.8) == 2
        assert result.models_to_reach(0.7) == 1
        assert result.models_to_reach(0.95) is None
        assert "ensemble=" in result.summary()

    def test_average_model_time_empty(self):
        result = EnsembleResult(0.5, 0.5, [0.5])
        assert result.average_model_time_s == 0.0


class TestSeeding:
    def test_make_rng_deterministic(self):
        assert make_rng(3).random() == make_rng(3).random()

    def test_spawn_rngs_independent(self):
        rngs = spawn_rngs(0, 3)
        values = [rng.random() for rng in rngs]
        assert len(set(values)) == 3

    def test_spawn_rngs_reproducible(self):
        a = [rng.random() for rng in spawn_rngs(42, 4)]
        b = [rng.random() for rng in spawn_rngs(42, 4)]
        assert a == b
