"""Fused taped operations for the training-step hot path.

Each fused op collapses a chain of elementary taped ops into a single
tape node with one forward kernel and one closed-form backward closure:

* :func:`softmax_cross_entropy` — the masked cross-entropy objective
  (row gather → log-softmax → NLL gather → mean → negate, five nodes in
  the op-by-op formulation) as one node whose backward is the classic
  ``(softmax - onehot) / n`` scatter;
* :func:`linear` — ``x @ W + b`` (matmul + broadcast add) with a
  combined backward;
* :func:`gcn_layer` — the full GCN propagation ``Â (x W) + b``
  (matmul/sparse-matmul + spmm + broadcast add) with a combined backward
  that reuses the cached sparse transposes from
  :mod:`repro.tensor.sparse`;
* :func:`dropout` — inverted dropout whose draws/mask/output scratch is
  leased from the recording :class:`~repro.tensor.tensor.GradArena`
  instead of freshly allocated (the dominant per-step allocation on
  dense-state models).

Every fused op is **bitwise identical** to the elementary-op chain it
replaces: the forward evaluates the same numpy expressions in the same
association order, and the backward reproduces, step for step, the exact
arithmetic the chain of elementary backward closures would perform
(including the order in which gradient contributions reach shared
parents).  ``tests/tensor/test_gradcheck.py`` verifies both the
finite-difference correctness and the bitwise parity, and the
differential suite trains the full model zoo fused-vs-elementary.

The layers and losses tape only these kernels.  The elementary chains
live in ``tests/elementary_tape.py`` as the oracle;
every call site looks the kernels up as ``fused.<name>``, so swapping
them on this module routes the whole training step through the oracle.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np
import scipy.sparse as sp

from repro.errors import ShapeError
from repro.tensor.sparse import cached_transpose, sparse_dense_matmul
from repro.tensor.tensor import ArrayLike, Tensor, _as_array, as_tensor

__all__ = [
    "softmax_cross_entropy",
    "linear",
    "gcn_layer",
    "dropout",
]


# ----------------------------------------------------------------------
# Fused losses
# ----------------------------------------------------------------------
def softmax_cross_entropy(
    logits: Tensor,
    labels: np.ndarray,
    index: Optional[np.ndarray] = None,
) -> Tensor:
    """Mean cross entropy of raw ``logits`` against integer ``labels``.

    With ``index`` the loss is restricted to those rows (the masked
    formulation used by every trainer).  One tape node replaces the
    gather → log-softmax → gather → mean → negate chain; the backward
    pushes ``(softmax - onehot) / n`` through the row scatter in the
    exact arithmetic of the elementary chain, so gradients are bitwise
    identical to the op-by-op path.
    """
    logits = as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or labels.ndim != 1 or len(labels) != logits.shape[0]:
        raise ShapeError(
            f"softmax_cross_entropy shapes mismatch: {logits.shape} vs labels {labels.shape}"
        )
    if index is not None:
        index = np.asarray(index, dtype=np.int64)
        if index.size == 0:
            return Tensor(0.0)
        rows = logits.data[index]
        picked_labels = labels[index]
    else:
        rows = logits.data
        picked_labels = labels
    n = rows.shape[0]

    # Forward: same expressions, same association order as
    # ops.log_softmax + cross_entropy.
    shifted = rows - rows.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - logsumexp
    softmax_data = np.exp(log_probs)
    arange = np.arange(n)
    picked = log_probs[arange, picked_labels]
    # -mean(picked) is mean followed by mul with a default-dtype -1.0
    # constant in the elementary chain; use the same constant so dtype
    # promotion (and hence every bit) matches.
    minus_one = _as_array(-1.0)
    out_data = np.asarray(picked.mean() * minus_one)

    def backward(grad: np.ndarray) -> None:
        if not logits.requires_grad:
            return
        # Replay the elementary chain's backward arithmetic exactly:
        # negate (mul by -1) -> mean -> NLL gather -> log-softmax ->
        # row gather.
        grad_picked = np.broadcast_to(grad * minus_one, (n,)) / n
        grad_logp = np.zeros_like(log_probs)
        np.add.at(grad_logp, (arange, picked_labels), grad_picked)
        grad_rows = grad_logp - softmax_data * grad_logp.sum(axis=1, keepdims=True)
        if index is None:
            logits._accumulate(grad_rows)
        else:
            full = np.zeros_like(logits.data)
            np.add.at(full, index, grad_rows)
            logits._accumulate(full)

    return Tensor._make(out_data, (logits,), backward)


# ----------------------------------------------------------------------
# Fused layers
# ----------------------------------------------------------------------
FeatureOperand = Union[Tensor, np.ndarray, sp.spmatrix, ArrayLike]


def linear(x: FeatureOperand, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ W + b`` as a single tape node.

    ``x`` may be a dense tensor/array (gradients flow into it when taped)
    or a constant scipy sparse matrix (first-layer features; gradient
    w.r.t. ``W`` uses the cached transpose).  Bitwise identical to
    ``add(matmul(x, W), b)`` / ``add(sparse_feature_matmul(x, W), b)``.
    """
    weight = as_tensor(weight)
    x_csr = None
    x_t: Optional[Tensor] = None
    if sp.issparse(x):
        if weight.ndim != 2 or x.shape[1] != weight.shape[0]:
            raise ShapeError(f"shape mismatch: {x.shape} @ {weight.shape}")
        x_csr = x.tocsr()
        out = sparse_dense_matmul(x_csr, weight.data)
        parents = (weight,)
    else:
        x_t = as_tensor(x)
        if x_t.ndim != 2 or weight.ndim != 2:
            raise ShapeError(f"matmul expects 2-D operands, got {x_t.shape} @ {weight.shape}")
        out = x_t.data @ weight.data
        parents = (x_t, weight)
    if bias is not None:
        # `out` is freshly allocated above, so the in-place add is safe
        # and bitwise equal to the allocating `out + bias`.
        out += bias.data
        parents = parents + (bias,)

    def backward(grad: np.ndarray) -> None:
        # Same leaf order as the elementary chain: the add node fires
        # first (bias), then the matmul node (x, then W).
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad)
        if x_t is not None and x_t.requires_grad:
            x_t._accumulate(grad @ weight.data.T)
        if weight.requires_grad:
            if x_csr is not None:
                weight._accumulate(sparse_dense_matmul(cached_transpose(x_csr), grad))
            else:
                weight._accumulate(x_t.data.T @ grad)

    return Tensor._make(out, parents, backward)


def gcn_layer(
    adjacency: sp.spmatrix,
    x: FeatureOperand,
    weight: Tensor,
    bias: Optional[Tensor] = None,
) -> Tensor:
    """One GCN propagation ``Â (x W) + b`` as a single tape node.

    Fuses the feature transform (dense or sparse ``x``), the constant
    sparse aggregation, and the bias broadcast; the backward runs the
    transposed products through the cached CSR/CSC transposes.  Bitwise
    identical to ``add(spmm(Â, matmul(x, W)), b)``.
    """
    if not sp.issparse(adjacency):
        raise TypeError(f"gcn_layer expects a scipy sparse adjacency, got {type(adjacency).__name__}")
    weight = as_tensor(weight)
    adj_csr = adjacency.tocsr()
    x_csr = None
    x_t: Optional[Tensor] = None
    if sp.issparse(x):
        if weight.ndim != 2 or x.shape[1] != weight.shape[0]:
            raise ShapeError(f"shape mismatch: {x.shape} @ {weight.shape}")
        x_csr = x.tocsr()
        support = sparse_dense_matmul(x_csr, weight.data)
        parents = (weight,)
    else:
        x_t = as_tensor(x)
        if x_t.ndim != 2 or weight.ndim != 2:
            raise ShapeError(f"matmul expects 2-D operands, got {x_t.shape} @ {weight.shape}")
        support = x_t.data @ weight.data
        parents = (x_t, weight)
    if adj_csr.shape[1] != support.shape[0]:
        raise ShapeError(f"spmm shape mismatch: {adj_csr.shape} @ {support.shape}")
    out = sparse_dense_matmul(adj_csr, support)
    if bias is not None:
        out += bias.data  # fresh array: in-place add is bitwise safe
        parents = parents + (bias,)

    def backward(grad: np.ndarray) -> None:
        # Leaf order matches the elementary chain: add node (bias),
        # spmm node (support), matmul node (x, then W).
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad)
        grad_support = sparse_dense_matmul(cached_transpose(adj_csr), grad)
        if x_t is not None and x_t.requires_grad:
            x_t._accumulate(grad_support @ weight.data.T)
        if weight.requires_grad:
            if x_csr is not None:
                weight._accumulate(sparse_dense_matmul(cached_transpose(x_csr), grad_support))
            else:
                weight._accumulate(x_t.data.T @ grad_support)

    return Tensor._make(out, parents, backward)


def dropout(a, rate: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout whose scratch arrays are leased from the arena.

    The arithmetic — and therefore the rng stream and every output bit —
    is identical to :func:`repro.tensor.ops.dropout`; what changes is
    allocation.  A training-scale dense dropout materialises three
    feature-sized arrays per call (the uniform draws, the scaled mask,
    and the output), and on dense-state models those fresh allocations
    dominate the step.  When a :class:`~repro.tensor.tensor.GradArena`
    is recording, all three are written into pool buffers with ``out=``
    ufunc calls instead, so steady-state steps allocate nothing here.
    Without a recording arena (no buffer lifecycle to lean on) the call
    defers to the elementary op unchanged.
    """
    import repro.tensor.tensor as _tape

    a = as_tensor(a)
    if not training or rate <= 0.0:
        return a
    arena = _tape._RECORDING_ARENA
    if arena is None:
        from repro.tensor import ops

        return ops.dropout(a, rate, rng, training=training)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    keep = 1.0 - rate
    # Same dtype rule as the elementary op: float32 activations keep a
    # float32 mask, everything else draws float64.
    dtype = a.data.dtype if a.data.dtype == np.float32 else np.float64
    draws = arena.take_buffer(a.shape, dtype)
    if dtype == np.float32:
        rng.random(out=draws, dtype=np.float32)
    else:
        rng.random(out=draws)
    # ``np.less`` into a float buffer writes 0.0/1.0 — the same values
    # ``(draws < keep).astype(dtype)`` produces — and ``np.divide`` with
    # the identical python-float ``keep`` reproduces ``mask / keep``
    # bit for bit (the ``<`` and ``/`` operators call these very ufuncs).
    mask = arena.take_buffer(a.shape, dtype)
    np.less(draws, keep, out=mask)
    np.divide(mask, keep, out=mask)
    out_data = arena.take_buffer(a.shape, dtype)
    np.multiply(a.data, mask, out=out_data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * mask)

    return Tensor._make(out_data, (a,), backward)
