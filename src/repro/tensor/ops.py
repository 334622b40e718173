"""Differentiable operations for the :class:`repro.tensor.Tensor` engine.

Each function takes tensors (or array-likes, which are promoted to
constant tensors), computes the forward value with numpy, and wires a
backward closure into the tape via :meth:`Tensor._make`.

Shapes follow numpy broadcasting rules; gradients of broadcast operands
are reduced back with :func:`repro.tensor.tensor.unbroadcast`.
"""

from __future__ import annotations

import builtins
from typing import Sequence, Tuple, Union

import numpy as np

from repro.errors import ShapeError
from repro.tensor.tensor import ArrayLike, Tensor, as_tensor

__all__ = [
    "add",
    "sub",
    "mul",
    "div",
    "power",
    "matmul",
    "gather",
    "scatter_add_rows",
    "concat",
    "reshape",
    "transpose",
    "sum",
    "mean",
    "relu",
    "leaky_relu",
    "elu",
    "exp",
    "log",
    "tanh",
    "sigmoid",
    "softmax",
    "log_softmax",
    "dropout",
    "clip",
]


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------
def add(a: Union[Tensor, ArrayLike], b: Union[Tensor, ArrayLike]) -> Tensor:
    """Elementwise ``a + b`` with broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad)
        if b.requires_grad:
            b._accumulate(grad)

    return Tensor._make(out_data, (a, b), backward)


def sub(a: Union[Tensor, ArrayLike], b: Union[Tensor, ArrayLike]) -> Tensor:
    """Elementwise ``a - b`` with broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data - b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad)
        if b.requires_grad:
            b._accumulate(-grad)

    return Tensor._make(out_data, (a, b), backward)


def mul(a: Union[Tensor, ArrayLike], b: Union[Tensor, ArrayLike]) -> Tensor:
    """Elementwise ``a * b`` with broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * b.data)
        if b.requires_grad:
            b._accumulate(grad * a.data)

    return Tensor._make(out_data, (a, b), backward)


def div(a: Union[Tensor, ArrayLike], b: Union[Tensor, ArrayLike]) -> Tensor:
    """Elementwise ``a / b`` with broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data / b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad / b.data)
        if b.requires_grad:
            b._accumulate(-grad * a.data / (b.data * b.data))

    return Tensor._make(out_data, (a, b), backward)


def power(a: Union[Tensor, ArrayLike], exponent: float) -> Tensor:
    """Elementwise ``a ** exponent`` for a scalar exponent."""
    a = as_tensor(a)
    exponent = float(exponent)
    out_data = a.data**exponent

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * exponent * a.data ** (exponent - 1.0))

    return Tensor._make(out_data, (a,), backward)


def matmul(a: Union[Tensor, ArrayLike], b: Union[Tensor, ArrayLike]) -> Tensor:
    """Matrix product of two 2-D tensors."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
    out_data = a.data @ b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ grad)

    return Tensor._make(out_data, (a, b), backward)


# ----------------------------------------------------------------------
# Indexing / shaping
# ----------------------------------------------------------------------
def gather(a: Tensor, index) -> Tensor:
    """Index ``a`` (rows, slices, or fancy indexing) differentiably.

    The backward pass scatter-adds the output gradient back into the
    indexed positions, so repeated indices accumulate correctly.
    """
    a = as_tensor(a)
    out_data = a.data[index]

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            full = np.zeros_like(a.data)
            np.add.at(full, index, grad)
            a._accumulate(full)

    return Tensor._make(out_data, (a,), backward)


def scatter_add_rows(values: Tensor, index: np.ndarray, num_rows: int) -> Tensor:
    """Sum rows of ``values`` into ``num_rows`` output rows by ``index``.

    ``out[i] = sum over j with index[j] == i of values[j]``.  This is the
    segment-sum primitive used by attention aggregation in GAT.
    """
    values = as_tensor(values)
    index = np.asarray(index, dtype=np.int64)
    if index.ndim != 1 or len(index) != values.shape[0]:
        raise ShapeError(
            f"index must be 1-D with one entry per row, got {index.shape} for values {values.shape}"
        )
    out_shape = (num_rows,) + values.shape[1:]
    out_data = np.zeros(out_shape, dtype=values.dtype)
    np.add.at(out_data, index, values.data)

    def backward(grad: np.ndarray) -> None:
        if values.requires_grad:
            values._accumulate(grad[index])

    return Tensor._make(out_data, (values,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 1) -> Tensor:
    """Concatenate tensors along ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                slicer = [builtins.slice(None)] * grad.ndim
                slicer[axis] = builtins.slice(start, stop)
                tensor._accumulate(grad[tuple(slicer)])

    return Tensor._make(out_data, tuple(tensors), backward)


def reshape(a: Tensor, shape: Tuple[int, ...]) -> Tensor:
    """Reshape ``a`` to ``shape``."""
    a = as_tensor(a)
    out_data = a.data.reshape(shape)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad.reshape(a.shape))

    return Tensor._make(out_data, (a,), backward)


def transpose(a: Tensor) -> Tensor:
    """Transpose a 2-D tensor."""
    a = as_tensor(a)
    if a.ndim != 2:
        raise ShapeError(f"transpose expects a 2-D tensor, got shape {a.shape}")
    out_data = a.data.T

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad.T)

    return Tensor._make(out_data, (a,), backward)


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------
def sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Sum of elements along ``axis`` (all elements when None)."""
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(grad: np.ndarray) -> None:
        if not a.requires_grad:
            return
        g = grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis=axis)
        a._accumulate(np.broadcast_to(g, a.shape))

    return Tensor._make(out_data, (a,), backward)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Mean of elements along ``axis`` (all elements when None)."""
    a = as_tensor(a)
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    if axis is None:
        count = a.size
    else:
        count = a.shape[axis] if isinstance(axis, int) else int(np.prod([a.shape[ax] for ax in axis]))

    def backward(grad: np.ndarray) -> None:
        if not a.requires_grad:
            return
        g = grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis=axis)
        a._accumulate(np.broadcast_to(g, a.shape) / count)

    return Tensor._make(out_data, (a,), backward)


# ----------------------------------------------------------------------
# Nonlinearities
# ----------------------------------------------------------------------
def relu(a: Tensor) -> Tensor:
    """Rectified linear unit ``max(0, a)``."""
    a = as_tensor(a)
    out_data = np.maximum(a.data, 0.0)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * (a.data > 0.0))

    return Tensor._make(out_data, (a,), backward)


def leaky_relu(a: Tensor, negative_slope: float = 0.2) -> Tensor:
    """Leaky ReLU with configurable slope for negative inputs."""
    a = as_tensor(a)
    out_data = np.where(a.data > 0.0, a.data, negative_slope * a.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * np.where(a.data > 0.0, 1.0, negative_slope))

    return Tensor._make(out_data, (a,), backward)


def elu(a: Tensor, alpha: float = 1.0) -> Tensor:
    """Exponential linear unit."""
    a = as_tensor(a)
    neg = alpha * (np.exp(np.minimum(a.data, 0.0)) - 1.0)
    out_data = np.where(a.data > 0.0, a.data, neg)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * np.where(a.data > 0.0, 1.0, neg + alpha))

    return Tensor._make(out_data, (a,), backward)


def exp(a: Tensor) -> Tensor:
    """Elementwise exponential."""
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * out_data)

    return Tensor._make(out_data, (a,), backward)


def log(a: Tensor) -> Tensor:
    """Elementwise natural logarithm."""
    a = as_tensor(a)
    out_data = np.log(a.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad / a.data)

    return Tensor._make(out_data, (a,), backward)


def tanh(a: Tensor) -> Tensor:
    """Elementwise hyperbolic tangent."""
    a = as_tensor(a)
    out_data = np.tanh(a.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * (1.0 - out_data * out_data))

    return Tensor._make(out_data, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    """Elementwise logistic sigmoid."""
    a = as_tensor(a)
    out_data = 1.0 / (1.0 + np.exp(-a.data))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * out_data * (1.0 - out_data))

    return Tensor._make(out_data, (a,), backward)


# ----------------------------------------------------------------------
# Softmax family
# ----------------------------------------------------------------------
def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - logsumexp
    softmax_data = np.exp(out_data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad - softmax_data * grad.sum(axis=axis, keepdims=True))

    return Tensor._make(out_data, (a,), backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    out_data = exps / exps.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            inner = (grad * out_data).sum(axis=axis, keepdims=True)
            a._accumulate(out_data * (grad - inner))

    return Tensor._make(out_data, (a,), backward)


# ----------------------------------------------------------------------
# Regularization / misc
# ----------------------------------------------------------------------
def dropout(a: Tensor, rate: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: zero entries with probability ``rate`` and rescale.

    At evaluation time (``training=False``) or rate 0 this is the identity.
    """
    a = as_tensor(a)
    if not training or rate <= 0.0:
        return a
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    keep = 1.0 - rate
    # Draw and hold the mask in the activation dtype: float32 draws halve
    # the rng cost, and a float64 mask would silently promote float32
    # activations.  The float64 path is bitwise identical to the plain
    # ``(rng.random(shape) < keep) / keep`` formulation.
    dtype = a.data.dtype if a.data.dtype == np.float32 else np.float64
    draws = rng.random(a.shape, dtype=dtype) if dtype == np.float32 else rng.random(a.shape)
    mask = (draws < keep).astype(dtype, copy=False) / keep
    out_data = a.data * mask

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * mask)

    return Tensor._make(out_data, (a,), backward)


def clip(a: Tensor, low: float, high: float) -> Tensor:
    """Clamp values to [low, high]; gradient flows only inside the range."""
    if low > high:
        raise ValueError(f"clip needs low <= high, got {low} > {high}")
    a = as_tensor(a)
    out_data = np.clip(a.data, low, high)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            inside = (a.data >= low) & (a.data <= high)
            a._accumulate(grad * inside)

    return Tensor._make(out_data, (a,), backward)
