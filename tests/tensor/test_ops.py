"""Forward-value correctness for every differentiable op."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.tensor import Tensor, ops


def t(arr, grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


class TestArithmetic:
    def test_add_broadcasting(self):
        out = ops.add(t(np.ones((2, 3))), t(np.array([1.0, 2.0, 3.0])))
        np.testing.assert_allclose(out.data, [[2, 3, 4], [2, 3, 4]])

    def test_sub(self):
        out = ops.sub(t([5.0]), t([2.0]))
        np.testing.assert_allclose(out.data, [3.0])

    def test_mul(self):
        out = ops.mul(t([2.0, 3.0]), t([4.0, 5.0]))
        np.testing.assert_allclose(out.data, [8.0, 15.0])

    def test_div(self):
        out = ops.div(t([8.0]), t([2.0]))
        np.testing.assert_allclose(out.data, [4.0])

    def test_power(self):
        out = ops.power(t([2.0, 3.0]), 3)
        np.testing.assert_allclose(out.data, [8.0, 27.0])

    def test_matmul(self):
        a = t([[1.0, 2.0], [3.0, 4.0]])
        b = t([[5.0], [6.0]])
        np.testing.assert_allclose(ops.matmul(a, b).data, [[17.0], [39.0]])

    def test_matmul_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            ops.matmul(t([1.0, 2.0]), t([[1.0], [2.0]]))


class TestIndexingShaping:
    def test_gather_rows(self):
        a = t(np.arange(12).reshape(4, 3))
        out = ops.gather(a, np.array([2, 0]))
        np.testing.assert_allclose(out.data, [[6, 7, 8], [0, 1, 2]])

    def test_gather_tuple_index(self):
        a = t(np.arange(12).reshape(4, 3))
        out = ops.gather(a, (np.array([0, 1]), np.array([2, 1])))
        np.testing.assert_allclose(out.data, [2, 4])

    def test_gather_backward_accumulates_repeated_indices(self):
        a = t(np.zeros((3, 2)))
        out = ops.gather(a, np.array([1, 1]))
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [[0, 0], [2, 2], [0, 0]])

    def test_scatter_add_rows(self):
        values = t([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        out = ops.scatter_add_rows(values, np.array([0, 1, 0]), 2)
        np.testing.assert_allclose(out.data, [[4.0, 4.0], [2.0, 2.0]])

    def test_scatter_add_rows_bad_index_shape(self):
        with pytest.raises(ShapeError):
            ops.scatter_add_rows(t(np.ones((3, 2))), np.array([0, 1]), 2)

    def test_concat_axis1(self):
        out = ops.concat([t(np.ones((2, 2))), t(np.zeros((2, 3)))], axis=1)
        assert out.shape == (2, 5)

    def test_concat_axis0(self):
        out = ops.concat([t(np.ones((1, 2))), t(np.zeros((3, 2)))], axis=0)
        assert out.shape == (4, 2)

    def test_concat_backward_splits_gradient(self):
        a, b = t(np.ones((2, 2))), t(np.ones((2, 1)))
        out = ops.concat([a, b], axis=1)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 2)))
        np.testing.assert_allclose(b.grad, np.ones((2, 1)))

    def test_reshape(self):
        out = ops.reshape(t(np.arange(6)), (2, 3))
        assert out.shape == (2, 3)

    def test_transpose(self):
        out = ops.transpose(t(np.ones((2, 5))))
        assert out.shape == (5, 2)

    def test_transpose_rejects_1d(self):
        with pytest.raises(ShapeError):
            ops.transpose(t(np.ones(3)))


class TestReductions:
    def test_sum_all(self):
        assert ops.sum(t(np.ones((2, 3)))).item() == pytest.approx(6.0)

    def test_sum_axis(self):
        out = ops.sum(t(np.ones((2, 3))), axis=0)
        np.testing.assert_allclose(out.data, [2.0, 2.0, 2.0])

    def test_sum_keepdims(self):
        out = ops.sum(t(np.ones((2, 3))), axis=1, keepdims=True)
        assert out.shape == (2, 1)

    def test_mean_all(self):
        assert ops.mean(t([2.0, 4.0])).item() == pytest.approx(3.0)

    def test_mean_axis_backward(self):
        a = t(np.ones((2, 4)))
        ops.mean(a, axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 4), 0.25))


class TestNonlinearities:
    def test_relu(self):
        np.testing.assert_allclose(ops.relu(t([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])

    def test_leaky_relu(self):
        np.testing.assert_allclose(
            ops.leaky_relu(t([-10.0, 10.0]), 0.1).data, [-1.0, 10.0]
        )

    def test_elu_continuity_at_zero(self):
        near = ops.elu(t([1e-9, -1e-9])).data
        assert abs(near[0] - near[1]) < 1e-6

    def test_exp_log_roundtrip(self):
        x = t([0.5, 1.5])
        np.testing.assert_allclose(ops.log(ops.exp(x)).data, x.data)

    def test_tanh_range(self):
        out = ops.tanh(t([-100.0, 0.0, 100.0])).data
        np.testing.assert_allclose(out, [-1.0, 0.0, 1.0], atol=1e-12)

    def test_sigmoid_symmetry(self):
        out = ops.sigmoid(t([-2.0, 2.0])).data
        assert out[0] + out[1] == pytest.approx(1.0)


class TestSoftmax:
    def test_softmax_rows_sum_to_one(self):
        out = ops.softmax(t(np.random.default_rng(0).normal(size=(5, 4))))
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(5))

    def test_softmax_is_shift_invariant(self):
        x = np.random.default_rng(1).normal(size=(3, 4))
        a = ops.softmax(t(x)).data
        b = ops.softmax(t(x + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_softmax_handles_large_values(self):
        out = ops.softmax(t([[1000.0, 1000.0]])).data
        np.testing.assert_allclose(out, [[0.5, 0.5]])

    def test_log_softmax_matches_log_of_softmax(self):
        x = np.random.default_rng(2).normal(size=(4, 3))
        np.testing.assert_allclose(
            ops.log_softmax(t(x)).data, np.log(ops.softmax(t(x)).data), atol=1e-12
        )


class TestDropoutWhere:
    def test_dropout_identity_in_eval(self):
        x = t(np.ones((10, 10)))
        out = ops.dropout(x, 0.5, np.random.default_rng(0), training=False)
        assert out is x

    def test_dropout_identity_at_rate_zero(self):
        x = t(np.ones((4, 4)))
        assert ops.dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_dropout_preserves_expectation(self):
        rng = np.random.default_rng(3)
        x = t(np.ones((200, 200)))
        out = ops.dropout(x, 0.3, rng)
        assert out.data.mean() == pytest.approx(1.0, abs=0.02)

    def test_dropout_invalid_rate(self):
        with pytest.raises(ValueError):
            ops.dropout(t(np.ones(3)), 1.0, np.random.default_rng(0))
