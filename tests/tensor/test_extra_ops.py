"""Tests for the clip op."""

import numpy as np
import pytest

from repro.tensor import Tensor, check_gradients, ops


class TestClip:
    def test_forward(self):
        out = ops.clip(Tensor([-5.0, 0.5, 5.0]), 0.0, 1.0)
        np.testing.assert_allclose(out.data, [0.0, 0.5, 1.0])

    def test_gradient_zero_outside_range(self):
        x = Tensor(np.array([-5.0, 0.5, 5.0]), requires_grad=True)
        ops.sum(ops.clip(x, 0.0, 1.0)).backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            ops.clip(Tensor([1.0]), 2.0, 1.0)

    def test_gradcheck_interior(self):
        x = Tensor(np.array([0.2, 0.4, 0.7]), requires_grad=True)
        check_gradients(lambda: ops.sum(ops.mul(ops.clip(x, 0.0, 1.0), ops.clip(x, 0.0, 1.0))), [x])
