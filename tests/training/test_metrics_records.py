"""Tests for records and seeding utilities."""

import pytest

from repro.training import EnsembleResult, TrainResult, make_rng, spawn_rngs


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
