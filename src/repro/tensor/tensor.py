"""A small reverse-mode automatic differentiation engine on numpy.

This module is the substrate that replaces PyTorch in this reproduction.
It implements a tape-based :class:`Tensor` holding a ``numpy.ndarray`` and,
when ``requires_grad`` is set, enough bookkeeping to backpropagate through
the graph of operations that produced it.

The design follows the classic "define-by-run" scheme:

* every operation returns a new :class:`Tensor` whose ``_parents`` point at
  its inputs and whose ``_backward`` closure knows how to push the output
  gradient into the parents' ``grad`` buffers;
* :meth:`Tensor.backward` topologically sorts the tape and runs the
  closures in reverse order.

Only the operations needed for graph convolutional networks are provided,
but they are implemented with full broadcasting support so the engine is
usable as a general (if small) autodiff library.  Gradients are verified
against central finite differences in ``tests/tensor/test_gradcheck.py``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ShapeError

ArrayLike = Union[np.ndarray, float, int, Sequence]

# ----------------------------------------------------------------------
# Global autograd / dtype modes
# ----------------------------------------------------------------------
# Whether newly created op outputs are wired into the tape.  Toggled by
# the ``no_grad`` / ``enable_grad`` context managers; inference paths
# (``predict_logits`` etc.) run with this off so evaluation forwards pay
# no tape-construction or closure-retention cost.  The flag is
# *thread-local* (defaulting to enabled): serving runs no-grad inference
# on worker threads concurrently with training, and a process-wide flag
# would let one thread's ``__exit__`` restore a state snapshotted by
# another, leaving grad mode stuck off for everyone.
_GRAD_STATE = threading.local()

# Dtype used when coercing raw values into tensors (parameter init,
# constants, loss targets).  float64 is the default so gradient checks
# keep full precision; float32 is an opt-in for bandwidth-bound runs.
_DEFAULT_DTYPE = np.dtype(np.float64)

_ALLOWED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def is_grad_enabled() -> bool:
    """Whether op outputs are currently recorded on the autodiff tape.

    Per-thread: toggling grad mode on one thread never affects another.
    """
    return getattr(_GRAD_STATE, "enabled", True)


class no_grad:
    """Context manager that disables tape construction on this thread.

    Inside the context every operation returns a plain (grad-free) tensor:
    no parents, no backward closures, no graph retention.  Numerical
    results are bitwise identical to the recorded path.
    """

    def __enter__(self) -> "no_grad":
        self._previous = is_grad_enabled()
        _GRAD_STATE.enabled = False
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _GRAD_STATE.enabled = self._previous
        return False


class enable_grad:
    """Context manager that re-enables tape construction inside ``no_grad``."""

    def __enter__(self) -> "enable_grad":
        self._previous = is_grad_enabled()
        _GRAD_STATE.enabled = True
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _GRAD_STATE.enabled = self._previous
        return False


def _normalize_dtype(dtype) -> np.dtype:
    resolved = np.dtype(dtype)
    if resolved not in _ALLOWED_DTYPES:
        raise ValueError(f"compute dtype must be float32 or float64, got {resolved}")
    return resolved


def get_default_dtype() -> np.dtype:
    """The dtype new tensors are coerced to (float64 unless overridden)."""
    return _DEFAULT_DTYPE


def set_default_dtype(dtype) -> np.dtype:
    """Set the default compute dtype; returns the previous one."""
    global _DEFAULT_DTYPE
    previous = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = _normalize_dtype(dtype)
    return previous


class default_dtype:
    """Context manager scoping the default compute dtype.

    ``default_dtype(None)`` is a no-op, which lets callers thread an
    optional dtype knob without branching.
    """

    def __init__(self, dtype=None):
        self._dtype = None if dtype is None else _normalize_dtype(dtype)

    def __enter__(self) -> "default_dtype":
        self._previous = _DEFAULT_DTYPE
        if self._dtype is not None:
            set_default_dtype(self._dtype)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        set_default_dtype(self._previous)
        return False


# Active gradient-buffer arena (see :class:`GradArena`).  When set,
# first-touch gradient accumulation draws reusable buffers from the
# arena instead of allocating fresh arrays; when None (the default, and
# everywhere outside a trainer's backward pass) behavior is unchanged.
_ACTIVE_ARENA: Optional["GradArena"] = None

# Arena whose ``GradArena.record`` scope is open: fused forward kernels
# lease their per-step scratch from it (see ``fused.dropout``).
_RECORDING_ARENA: Optional["GradArena"] = None


def _as_array(value: ArrayLike, dtype=None) -> np.ndarray:
    """Coerce ``value`` to a float ndarray without copying when possible."""
    if dtype is None:
        dtype = _DEFAULT_DTYPE
    if isinstance(value, np.ndarray):
        if value.dtype == dtype:
            return value
        return value.astype(dtype)
    return np.asarray(value, dtype=dtype)


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after a broadcast operation.

    Numpy broadcasting may expand an operand along leading axes or along
    axes of size one.  The gradient of a broadcast is the sum over the
    expanded axes, which this helper performs.
    """
    if grad.shape == shape:
        return grad
    # Sum out the leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size 1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    if grad.shape != shape:
        raise ShapeError(f"cannot unbroadcast gradient of shape {grad.shape} to {shape}")
    return grad


class Tensor:
    """A numpy array plus the bookkeeping needed for reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array (or scalar / nested sequence) holding the tensor's value.
    requires_grad:
        When True, operations involving this tensor are recorded so that
        :meth:`backward` can compute ``grad``.
    name:
        Optional human-readable label used in ``repr`` and error messages.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data: ArrayLike, requires_grad: bool = False, name: str = ""):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad}{label})"

    def numpy(self) -> np.ndarray:
        """Return the underlying ndarray (shared, not copied)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a new tensor sharing this data but cut from the tape."""
        out = Tensor._from_array(self.data)
        out.name = self.name
        return out

    def copy(self) -> "Tensor":
        """Return a tape-free deep copy of this tensor."""
        out = Tensor._from_array(self.data.copy())
        out.name = self.name
        return out

    # ------------------------------------------------------------------
    # Tape construction
    # ------------------------------------------------------------------
    @staticmethod
    def _from_array(data) -> "Tensor":
        """Fast constructor: wrap an ndarray without dtype coercion.

        Op outputs already carry the right (dtype-propagated) ndarray, so
        the ``_as_array`` round trip of ``__init__`` is pure overhead on
        the hot path.  Non-ndarray values are wrapped as-is.
        """
        out = Tensor.__new__(Tensor)
        out.data = data if isinstance(data, np.ndarray) else np.asarray(data)
        out.requires_grad = False
        out.grad = None
        out._backward = None
        out._parents = ()
        out.name = ""
        return out

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create an output tensor wired into the tape.

        The output requires grad iff grad mode is on and any parent does;
        otherwise the backward closure is dropped so unused graphs are
        garbage collected (and, under ``no_grad``, never retained at all).
        """
        out = Tensor._from_array(data)
        if is_grad_enabled():
            for parent in parents:
                if parent.requires_grad:
                    out.requires_grad = True
                    out._parents = parents
                    out._backward = backward
                    break
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into this tensor's gradient buffer.

        The first contribution normally allocates a fresh copy; inside a
        :class:`GradArena`-managed backward pass it is written into a
        recycled buffer instead (``np.copyto`` then in-place adds — the
        same values bit for bit, with zero steady-state allocation).
        """
        grad = unbroadcast(grad, self.shape)
        if not isinstance(grad, np.ndarray):
            # Scalar reductions (unbroadcast to ()) yield numpy scalars;
            # in-place accumulation needs a writable 0-d array.
            grad = np.asarray(grad)
        if self.grad is None:
            arena = _ACTIVE_ARENA
            self.grad = grad.copy() if arena is None else arena._take(grad)
        else:
            np.add(self.grad, grad, out=self.grad)

    def zero_grad(self, set_to_none: bool = True) -> None:
        """Clear the accumulated gradient.

        With ``set_to_none`` (the default, and the only behavior this
        engine has ever had) the gradient reference is dropped, so
        untouched buffers are never zero-filled; ``set_to_none=False``
        zeroes the existing buffer in place instead (kept for API parity
        with torch-style optimizers).
        """
        if set_to_none:
            self.grad = None
        elif self.grad is not None:
            self.grad.fill(0.0)

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor through the recorded tape.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.
            Defaults to 1.0, which is only valid for scalar outputs.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.size != 1:
                raise ShapeError(
                    "backward() without an explicit gradient requires a scalar output, "
                    f"got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = _as_array(grad)
        if grad.shape != self.shape:
            raise ShapeError(f"gradient shape {grad.shape} does not match tensor shape {self.shape}")

        order = self._topological_order()
        # Reset *intermediate* gradients so repeated backward calls on the
        # same graph stay correct; leaf tensors keep accumulating, which is
        # the standard autograd contract.
        for node in order:
            if node._backward is not None:
                node.grad = None
        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def _topological_order(self) -> List["Tensor"]:
        """Return tape nodes reachable from ``self`` in topological order."""
        order: List[Tensor] = []
        visited = set()
        # Iterative DFS: recursion would overflow on deep training graphs.
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        return order

    # ------------------------------------------------------------------
    # Arithmetic (implemented in ops.py, bound here for ergonomics)
    # ------------------------------------------------------------------
    def __add__(self, other):
        from repro.tensor import ops

        return ops.add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        from repro.tensor import ops

        return ops.sub(self, other)

    def __rsub__(self, other):
        from repro.tensor import ops

        return ops.sub(other, self)

    def __mul__(self, other):
        from repro.tensor import ops

        return ops.mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        from repro.tensor import ops

        return ops.div(self, other)

    def __rtruediv__(self, other):
        from repro.tensor import ops

        return ops.div(other, self)

    def __neg__(self):
        from repro.tensor import ops

        return ops.mul(self, -1.0)

    def __pow__(self, exponent):
        from repro.tensor import ops

        return ops.power(self, exponent)

    def __matmul__(self, other):
        from repro.tensor import ops

        return ops.matmul(self, other)

    def __getitem__(self, index):
        from repro.tensor import ops

        return ops.gather(self, index)

    # Reductions / shaping -------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False):
        from repro.tensor import ops

        return ops.sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        from repro.tensor import ops

        return ops.mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        from repro.tensor import ops

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return ops.reshape(self, shape)

    def transpose(self):
        from repro.tensor import ops

        return ops.transpose(self)

    @property
    def T(self):
        return self.transpose()

    # Elementwise ----------------------------------------------------------
    def relu(self):
        from repro.tensor import ops

        return ops.relu(self)

    def exp(self):
        from repro.tensor import ops

        return ops.exp(self)

    def log(self):
        from repro.tensor import ops

        return ops.log(self)

    def tanh(self):
        from repro.tensor import ops

        return ops.tanh(self)

    def sigmoid(self):
        from repro.tensor import ops

        return ops.sigmoid(self)


class GradArena:
    """Gradient-buffer pool for train loops.

    A training step rebuilds the same op graph every step, and in the
    stock backward pass every tensor's first gradient contribution
    allocates a fresh array.  The arena recycles those arrays instead:
    buffers handed out during one step are reclaimed when the next
    :meth:`record` scope opens and reused (keyed by shape/dtype), so
    steady-state gradient accumulation allocates nothing.  Combined with
    ``zero_grad(set_to_none=True)`` semantics (the engine's default) no
    buffer is ever redundantly zero-filled.  :meth:`backward` is
    ``Tensor.backward`` with that pool attached, so gradients are
    bitwise identical to it.

    Usage (what :class:`repro.training.trainer.Trainer` does)::

        arena = GradArena()
        for epoch in range(max_epochs):
            with arena.record():
                loss = compute_loss(model(graph))
            optimizer.zero_grad()
            arena.backward(loss)
            optimizer.step()

    The arena assumes the gradients of one step are dead once the next
    ``record()`` scope opens (true after ``optimizer.step()`` has
    consumed them); reading ``param.grad`` across steps while an arena
    is in use observes recycled buffers.
    """

    # Free-pool size cap.  Graphs whose intermediate shapes drift epoch
    # to epoch (e.g. reliability-filtered edge sets) retire buffers that
    # will never be reused; once the pool exceeds this budget it is
    # dropped wholesale (correctness-neutral — only a warm-up cost).
    # Sized to hold the forward scratch of a full-scale dense model
    # (three feature-sized buffers per dropout) plus its gradients.
    MAX_POOL_BYTES = 256 * 1024 * 1024

    def __init__(self) -> None:
        self._free: dict = {}  # (shape, dtype) -> [ndarray, ...]
        self._free_bytes = 0
        self._in_use: List[np.ndarray] = []

    def _take(self, grad: np.ndarray) -> np.ndarray:
        """A buffer shaped like ``grad`` holding a copy of its values."""
        buffer = self.take_buffer(grad.shape, grad.dtype)
        np.copyto(buffer, grad)
        return buffer

    def take_buffer(self, shape, dtype) -> np.ndarray:
        """An uninitialised scratch buffer leased until the next ``record()``.

        Fused forward kernels lease their large per-step intermediates
        (dropout draws, masks, outputs) from the same pool as gradient
        buffers, so in steady state the whole train step allocates
        nothing feature-sized.  The buffer's contents are arbitrary —
        callers must overwrite it fully — and it is reclaimed, like
        gradient buffers, when the next :meth:`record` scope opens.
        """
        key = (tuple(shape), np.dtype(dtype))
        pool = self._free.get(key)
        if pool:
            buffer = pool.pop()
            self._free_bytes -= buffer.nbytes
        else:
            buffer = np.empty(shape, dtype=dtype)
        self._in_use.append(buffer)
        return buffer

    def _reclaim(self) -> None:
        """Return all handed-out buffers to the free pool."""
        for buffer in self._in_use:
            self._free.setdefault((buffer.shape, buffer.dtype), []).append(buffer)
            self._free_bytes += buffer.nbytes
        self._in_use.clear()
        if self._free_bytes > self.MAX_POOL_BYTES:
            self._free.clear()
            self._free_bytes = 0

    @contextmanager
    def record(self) -> Iterator["GradArena"]:
        """Scope of one step's forward pass.

        Entering reclaims the previous step's buffers (they must no
        longer be referenced — see class docs); inside, fused kernels
        lease their scratch from this arena.
        """
        global _RECORDING_ARENA
        previous = _RECORDING_ARENA
        self._reclaim()
        _RECORDING_ARENA = self
        try:
            yield self
        finally:
            _RECORDING_ARENA = previous

    def backward(self, output: Tensor) -> None:
        """``output.backward()`` with first-touch gradients drawn from the pool."""
        global _ACTIVE_ARENA
        previous = _ACTIVE_ARENA
        _ACTIVE_ARENA = self
        try:
            output.backward()
        finally:
            _ACTIVE_ARENA = previous


def as_tensor(value: Union[Tensor, ArrayLike]) -> Tensor:
    """Return ``value`` unchanged if it is a Tensor, else wrap it (no grad)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)
