"""Tests for the cosine γ schedule (Eq. 14) and early stopping."""

import math

import pytest

from repro.nn import EarlyStopping, cosine_annealing_gamma


class TestCosineAnnealingGamma:
    def test_starts_at_zero(self):
        assert cosine_annealing_gamma(1.0, 0, 100) == pytest.approx(0.0)

    def test_midpoint_equals_initial(self):
        assert cosine_annealing_gamma(2.0, 50, 100) == pytest.approx(2.0)

    def test_ends_at_twice_initial(self):
        assert cosine_annealing_gamma(1.5, 100, 100) == pytest.approx(3.0)

    def test_monotone_nondecreasing(self):
        values = [cosine_annealing_gamma(1.0, e, 50) for e in range(51)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_scales_linearly_with_initial(self):
        a = cosine_annealing_gamma(1.0, 30, 100)
        b = cosine_annealing_gamma(3.0, 30, 100)
        assert b == pytest.approx(3.0 * a)

    def test_epoch_clipping(self):
        assert cosine_annealing_gamma(1.0, -5, 100) == pytest.approx(0.0)
        assert cosine_annealing_gamma(1.0, 500, 100) == pytest.approx(2.0)

    def test_rejects_nonpositive_total(self):
        with pytest.raises(ValueError):
            cosine_annealing_gamma(1.0, 1, 0)


class TestEarlyStopping:
    def test_no_stop_while_improving(self):
        stopper = EarlyStopping(patience=2)
        assert not stopper.update(0.1, 0)
        assert not stopper.update(0.2, 1)
        assert not stopper.update(0.3, 2)
        assert stopper.best_epoch == 2

    def test_stops_after_patience_bad_steps(self):
        stopper = EarlyStopping(patience=2)
        stopper.update(0.5, 0)
        assert not stopper.update(0.4, 1)
        assert stopper.update(0.4, 2)

    def test_improvement_resets_counter(self):
        stopper = EarlyStopping(patience=2)
        stopper.update(0.5, 0)
        stopper.update(0.4, 1)
        stopper.update(0.6, 2)  # reset
        assert not stopper.update(0.5, 3)
        assert stopper.update(0.5, 4)

    def test_equal_metric_counts_as_no_improvement(self):
        stopper = EarlyStopping(patience=1)
        stopper.update(0.5, 0)
        assert stopper.update(0.5, 1)

    def test_improved_flag(self):
        stopper = EarlyStopping(patience=3)
        stopper.update(0.5, 0)
        assert stopper.improved
        stopper.update(0.4, 1)
        assert not stopper.improved

    def test_best_metric_tracked(self):
        stopper = EarlyStopping(patience=5)
        for epoch, metric in enumerate([0.3, 0.8, 0.5]):
            stopper.update(metric, epoch)
        assert stopper.best_metric == pytest.approx(0.8)
        assert stopper.best_epoch == 1

    def test_rejects_bad_patience(self):
        with pytest.raises(ValueError):
            EarlyStopping(patience=0)


class TestInitializers:
    def test_glorot_uniform_bounds(self, rng):
        from repro.nn import glorot_uniform

        w = glorot_uniform(rng, 30, 20)
        limit = math.sqrt(6.0 / 50)
        assert w.shape == (30, 20)
        assert w.min() >= -limit and w.max() <= limit

    def test_zeros(self):
        from repro.nn import zeros

        assert not zeros((3, 3)).any()
