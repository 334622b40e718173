"""Edge-case and error-path tests for the tensor engine."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.tensor import Tensor, ops
from repro.tensor.functional import edge_regularization, embedding_mse


class TestIndexingEdgeCases:
    def test_gather_with_boolean_mask(self):
        a = Tensor(np.arange(6, dtype=np.float64).reshape(3, 2), requires_grad=True)
        mask = np.array([True, False, True])
        out = ops.gather(a, mask)
        np.testing.assert_allclose(out.data, [[0, 1], [4, 5]])
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [[1, 1], [0, 0], [1, 1]])

    def test_gather_empty_index(self):
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        out = ops.gather(a, np.array([], dtype=np.int64))
        assert out.shape == (0, 2)

    def test_scatter_empty_values(self):
        values = Tensor(np.empty((0, 3)), requires_grad=True)
        out = ops.scatter_add_rows(values, np.array([], dtype=np.int64), 4)
        np.testing.assert_allclose(out.data, np.zeros((4, 3)))

    def test_concat_single_tensor(self):
        a = Tensor(np.ones((2, 2)))
        out = ops.concat([a], axis=1)
        np.testing.assert_allclose(out.data, a.data)

    def test_concat_axis0_gradients(self):
        a = Tensor(np.ones((1, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        ops.sum(ops.mul(ops.concat([a, b], axis=0), 2.0)).backward()
        np.testing.assert_allclose(a.grad, np.full((1, 3), 2.0))
        np.testing.assert_allclose(b.grad, np.full((2, 3), 2.0))


class TestNumericalEdgeCases:
    def test_division_by_zero_propagates_inf(self):
        with np.errstate(divide="ignore"):
            out = ops.div(Tensor([1.0]), Tensor([0.0]))
        assert np.isinf(out.data[0])

    def test_log_of_zero_is_minus_inf(self):
        with np.errstate(divide="ignore"):
            out = ops.log(Tensor([0.0]))
        assert np.isneginf(out.data[0])

    def test_softmax_of_single_class(self):
        out = ops.softmax(Tensor([[42.0]]), axis=1)
        np.testing.assert_allclose(out.data, [[1.0]])

    def test_power_with_negative_exponent(self):
        out = ops.power(Tensor([2.0]), -1.0)
        np.testing.assert_allclose(out.data, [0.5])

    def test_relu_at_exact_zero_has_zero_gradient(self):
        x = Tensor(np.array([0.0]), requires_grad=True)
        ops.sum(ops.relu(x)).backward()
        np.testing.assert_allclose(x.grad, [0.0])

    def test_sum_of_empty_tensor(self):
        out = ops.sum(Tensor(np.empty((0, 3))))
        assert out.item() == 0.0


class TestLossEdgeCases:
    def test_embedding_mse_all_rows(self):
        student = Tensor(np.zeros((2, 2)), requires_grad=True)
        teacher = np.ones((2, 2))
        loss = embedding_mse(student, teacher)
        assert loss.item() == pytest.approx(2.0)

    def test_edge_regularization_self_loop_contributes_zero(self):
        emb = Tensor(np.random.default_rng(0).normal(size=(3, 2)))
        loss = edge_regularization(emb, np.array([1]), np.array([1]))
        assert loss.item() == pytest.approx(0.0)

    def test_embedding_mse_shape_mismatch(self):
        with pytest.raises(ShapeError):
            embedding_mse(Tensor(np.ones((2, 3))), np.ones((2, 2)))


class TestTapeHygiene:
    def test_eval_mode_forward_builds_no_tape_for_constants(self):
        # Constant-only computation produces constant outputs.
        a, b = Tensor(np.ones(3)), Tensor(np.ones(3))
        out = ops.mul(ops.add(a, b), 2.0)
        assert not out.requires_grad

    def test_backward_twice_on_same_graph_accumulates(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = ops.sum(ops.mul(x, x))
        y.backward()
        first = x.grad.copy()
        y.backward()
        np.testing.assert_allclose(x.grad, 2 * first)

    def test_grad_shape_always_matches_parameter(self):
        x = Tensor(np.ones((3, 1)), requires_grad=True)
        bias_style = ops.add(Tensor(np.ones((3, 4))), x)  # broadcast (3,1)→(3,4)
        ops.sum(bias_style).backward()
        assert x.grad.shape == (3, 1)
        np.testing.assert_allclose(x.grad, np.full((3, 1), 4.0))
