"""Tests of the core Tensor mechanics: tape, backward, bookkeeping."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.tensor import Tensor, as_tensor, ops, unbroadcast


class TestConstruction:
    def test_wraps_ndarray_without_copy_for_float64(self):
        data = np.ones((2, 3))
        t = Tensor(data)
        assert t.data is data

    def test_casts_dtype_to_float64(self):
        t = Tensor(np.ones((2, 2), dtype=np.float32))
        assert t.dtype == np.float64

    def test_accepts_scalars_and_lists(self):
        assert Tensor(3.0).shape == ()
        assert Tensor([1.0, 2.0]).shape == (2,)
        assert Tensor([[1, 2], [3, 4]]).shape == (2, 2)

    def test_properties(self):
        t = Tensor(np.zeros((4, 5)), requires_grad=True, name="w")
        assert t.shape == (4, 5)
        assert t.ndim == 2
        assert t.size == 20
        assert len(t) == 4
        assert "w" in repr(t)
        assert "requires_grad" in repr(t)

    def test_item_on_scalar(self):
        assert Tensor(2.5).item() == pytest.approx(2.5)

    def test_copy_is_deep(self):
        t = Tensor(np.ones(3))
        c = t.copy()
        c.data[0] = 99.0
        assert t.data[0] == 1.0

    def test_as_tensor_passthrough(self):
        t = Tensor(np.ones(2))
        assert as_tensor(t) is t
        assert isinstance(as_tensor([1.0, 2.0]), Tensor)


class TestBackward:
    def test_scalar_backward_default_gradient(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        y = (x * x).sum()
        y.backward()
        np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])

    def test_backward_with_explicit_gradient(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        y = x * 3.0
        y.backward(np.full((2, 2), 2.0))
        np.testing.assert_allclose(x.grad, np.full((2, 2), 6.0))

    def test_backward_nonscalar_without_gradient_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x * 2.0
        with pytest.raises(ShapeError):
            y.backward()

    def test_backward_wrong_gradient_shape_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x * 2.0
        with pytest.raises(ShapeError):
            y.backward(np.ones(4))

    def test_backward_on_constant_raises(self):
        x = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            x.backward(np.ones(3))

    def test_gradients_accumulate_across_backward_calls(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        (x * 2.0).sum().backward()
        (x * 2.0).sum().backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_zero_grad_clears(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        (x * 2.0).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph_accumulates_through_both_paths(self):
        # y = x*2 + x*3 → dy/dx = 5
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = (x * 2.0 + x * 3.0).sum()
        y.backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_shared_subexpression_counted_once_per_use(self):
        # z = (x*2); y = z + z → dy/dx = 4
        x = Tensor(np.array([1.0]), requires_grad=True)
        z = x * 2.0
        y = (z + z).sum()
        y.backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_deep_chain_does_not_overflow(self):
        # Iterative topological sort must handle thousands of nodes.
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 0.001
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_constant_branches_do_not_get_gradients(self):
        x = Tensor(np.ones(2), requires_grad=True)
        c = Tensor(np.ones(2))
        y = (x * c).sum()
        y.backward()
        assert c.grad is None

    def test_output_of_constant_only_op_has_no_tape(self):
        a, b = Tensor(np.ones(2)), Tensor(np.ones(2))
        out = ops.add(a, b)
        assert not out.requires_grad
        assert out._parents == ()


class TestUnbroadcast:
    def test_identity_when_shapes_match(self):
        g = np.ones((2, 3))
        assert unbroadcast(g, (2, 3)) is g

    def test_sums_leading_axes(self):
        g = np.ones((4, 2, 3))
        np.testing.assert_allclose(unbroadcast(g, (2, 3)), np.full((2, 3), 4.0))

    def test_sums_size_one_axes(self):
        g = np.ones((2, 3))
        np.testing.assert_allclose(unbroadcast(g, (2, 1)), np.full((2, 1), 3.0))

    def test_sums_both(self):
        g = np.ones((5, 2, 3))
        np.testing.assert_allclose(unbroadcast(g, (1, 3)), np.full((1, 3), 10.0))

    def test_incompatible_raises(self):
        with pytest.raises(ShapeError):
            unbroadcast(np.ones((2, 3)), (4,))


class TestOperatorSugar:
    def test_radd_rsub_rmul_rtruediv(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        np.testing.assert_allclose((1.0 + x).data, [3.0])
        np.testing.assert_allclose((1.0 - x).data, [-1.0])
        np.testing.assert_allclose((3.0 * x).data, [6.0])
        np.testing.assert_allclose((4.0 / x).data, [2.0])

    def test_neg_and_pow(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        np.testing.assert_allclose((-x).data, [-3.0])
        np.testing.assert_allclose((x**2).data, [9.0])

    def test_matmul_operator(self):
        a = Tensor(np.eye(2))
        b = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_allclose((a @ b).data, b.data)

    def test_transpose_property(self):
        a = Tensor(np.array([[1.0, 2.0]]))
        assert a.T.shape == (2, 1)

    def test_getitem(self):
        a = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
        np.testing.assert_allclose(a[1].data, [3.0, 4.0, 5.0])
