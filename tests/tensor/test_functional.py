"""Tests for loss functions and metrics in repro.tensor.functional."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.tensor import Tensor, ops
from repro.tensor.functional import (
    accuracy,
    cross_entropy,
    edge_regularization,
    embedding_mse,
    entropy,
    kl_divergence,
    masked_cross_entropy,
)


def log_probs_for(probs):
    return Tensor(np.log(np.asarray(probs)))


class TestCrossEntropy:
    def test_perfect_prediction_near_zero_loss(self):
        lp = log_probs_for([[0.999, 0.0005, 0.0005]])
        assert cross_entropy(lp, np.array([0])).item() < 0.01

    def test_uniform_prediction_is_log_k(self):
        lp = log_probs_for([[1 / 3] * 3])
        assert cross_entropy(lp, np.array([1])).item() == pytest.approx(np.log(3))

    def test_mean_over_rows(self):
        lp = log_probs_for([[0.5, 0.5], [0.25, 0.75]])
        expected = -(np.log(0.5) + np.log(0.75)) / 2
        assert cross_entropy(lp, np.array([0, 1])).item() == pytest.approx(expected)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            cross_entropy(log_probs_for([[0.5, 0.5]]), np.array([0, 1]))

    def test_gradient_points_toward_label(self):
        logits = Tensor(np.zeros((1, 3)), requires_grad=True)
        loss = cross_entropy(ops.log_softmax(logits, axis=1), np.array([2]))
        loss.backward()
        assert logits.grad[0, 2] < 0  # pushing the label logit up lowers loss
        assert logits.grad[0, 0] > 0


class TestMaskedCrossEntropy:
    def test_restricts_to_index(self):
        lp = log_probs_for([[0.9, 0.1], [0.1, 0.9], [0.5, 0.5]])
        labels = np.array([0, 0, 0])  # row 1 is wrong, but it's masked out
        loss = masked_cross_entropy(lp, labels, np.array([0]))
        assert loss.item() == pytest.approx(-np.log(0.9))

    def test_empty_index_gives_zero(self):
        lp = log_probs_for([[0.5, 0.5]])
        loss = masked_cross_entropy(lp, np.array([0]), np.array([], dtype=np.int64))
        assert loss.item() == 0.0


class TestEmbeddingMse:
    def test_zero_when_equal(self):
        student = Tensor(np.ones((3, 2)))
        assert embedding_mse(student, np.ones((3, 2))).item() == 0.0

    def test_value_is_mean_row_squared_distance(self):
        student = Tensor(np.zeros((2, 2)))
        teacher = np.array([[1.0, 1.0], [0.0, 2.0]])
        # rows: 2 and 4 → mean 3
        assert embedding_mse(student, teacher).item() == pytest.approx(3.0)

    def test_gradient_flows_only_into_student_rows(self):
        student = Tensor(np.zeros((3, 2)), requires_grad=True)
        teacher = np.ones((3, 2))
        rows = np.array([1])
        embedding_mse(ops.gather(student, rows), teacher[rows]).backward()
        assert np.all(student.grad[0] == 0)
        assert np.all(student.grad[1] != 0)
        assert np.all(student.grad[2] == 0)


class TestEdgeRegularization:
    def test_zero_for_equal_embeddings(self):
        emb = Tensor(np.ones((4, 3)))
        loss = edge_regularization(emb, np.array([0, 1]), np.array([2, 3]))
        assert loss.item() == 0.0

    def test_empty_edge_set_gives_zero(self):
        emb = Tensor(np.ones((4, 3)))
        empty = np.array([], dtype=np.int64)
        assert edge_regularization(emb, empty, empty).item() == 0.0

    def test_value(self):
        emb = Tensor(np.array([[0.0], [2.0], [5.0]]))
        loss = edge_regularization(emb, np.array([0, 1]), np.array([1, 2]))
        assert loss.item() == pytest.approx((4.0 + 9.0) / 2)

    def test_mismatched_arrays_raise(self):
        emb = Tensor(np.ones((4, 3)))
        with pytest.raises(ShapeError):
            edge_regularization(emb, np.array([0]), np.array([1, 2]))

    def test_gradient_pulls_endpoints_together(self):
        emb = Tensor(np.array([[0.0], [2.0]]), requires_grad=True)
        edge_regularization(emb, np.array([0]), np.array([1])).backward()
        assert emb.grad[0, 0] < 0  # node 0 moves up toward node 1
        assert emb.grad[1, 0] > 0


class TestKlDivergence:
    def test_zero_entropy_teacher_equals_cross_entropy(self):
        teacher = np.array([[1.0, 0.0]])
        slp = log_probs_for([[0.25, 0.75]])
        assert kl_divergence(slp, teacher).item() == pytest.approx(-np.log(0.25))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            kl_divergence(log_probs_for([[0.5, 0.5]]), np.ones((2, 2)) / 2)


class TestEntropy:
    def test_uniform_is_log_k(self):
        assert entropy(np.full((1, 4), 0.25))[0] == pytest.approx(np.log(4))

    def test_one_hot_is_zero(self):
        assert entropy(np.array([[1.0, 0.0, 0.0]]))[0] == pytest.approx(0.0, abs=1e-9)

    def test_monotone_in_uncertainty(self):
        low = entropy(np.array([[0.9, 0.1]]))[0]
        high = entropy(np.array([[0.6, 0.4]]))[0]
        assert high > low

    def test_vectorized_over_rows(self):
        probs = np.array([[0.5, 0.5], [1.0, 0.0]])
        values = entropy(probs)
        assert values.shape == (2,)
        assert values[0] > values[1]


class TestAccuracyAndPenalty:
    def test_accuracy_from_probabilities(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.8]])
        assert accuracy(probs, np.array([0, 1])) == 1.0

    def test_accuracy_from_predictions(self):
        assert accuracy(np.array([1, 0, 1]), np.array([1, 1, 1])) == pytest.approx(2 / 3)

    def test_accuracy_with_index(self):
        preds = np.array([0, 0, 0])
        labels = np.array([0, 1, 1])
        assert accuracy(preds, labels, np.array([0])) == 1.0

    def test_accuracy_empty_index_raises(self):
        with pytest.raises(ShapeError):
            accuracy(np.array([0]), np.array([0]), np.array([], dtype=np.int64))
