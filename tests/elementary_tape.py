"""The elementary op-by-op chains behind the fused training-step kernels.

:mod:`repro.tensor.fused` collapses each chain below into one tape node
whose forward and backward are bitwise identical to the chain.  This
module keeps the chains as the oracle that claim is checked against:
the gradcheck parity tests call them directly, and
:func:`elementary_tape` swaps them into ``repro.tensor.fused`` so a
whole training step (layers, dropout, loss) runs on the elementary
tape.  Every call site looks the kernels up as ``fused.<name>``, so the
swap reaches all of them; the differential suite trains through it and
counts the tape nodes each step records on both paths.
"""

from __future__ import annotations

import contextlib

import numpy as np
import scipy.sparse as sp

from repro.tensor import fused, ops
from repro.tensor.functional import cross_entropy
from repro.tensor.sparse import sparse_feature_matmul, spmm
from repro.tensor.tensor import as_tensor


def _feature_matmul(x, weight):
    """``x @ W`` for dense tensors/arrays or constant sparse features."""
    if sp.issparse(x):
        return sparse_feature_matmul(x, weight)
    return ops.matmul(as_tensor(x), weight)


def linear(x, weight, bias=None):
    """``add(matmul(x, W), b)``: two tape nodes."""
    out = _feature_matmul(x, weight)
    if bias is not None:
        out = ops.add(out, bias)
    return out


def gcn_layer(adjacency, x, weight, bias=None):
    """``add(spmm(Â, matmul(x, W)), b)``: three tape nodes."""
    out = spmm(adjacency, _feature_matmul(x, weight))
    if bias is not None:
        out = ops.add(out, bias)
    return out


def softmax_cross_entropy(logits, labels, index=None):
    """Row gather → log-softmax → NLL gather → mean → negate."""
    labels = np.asarray(labels)
    if index is None:
        return cross_entropy(ops.log_softmax(logits, axis=1), labels)
    return cross_entropy(ops.log_softmax(ops.gather(logits, index), axis=1), labels[index])


def dropout(a, rate, rng, training=True):
    """Inverted dropout with freshly allocated draws, mask and output."""
    return ops.dropout(a, rate, rng, training=training)


KERNELS = {
    "linear": linear,
    "gcn_layer": gcn_layer,
    "softmax_cross_entropy": softmax_cross_entropy,
    "dropout": dropout,
}


@contextlib.contextmanager
def elementary_tape():
    """Route every fused kernel through its elementary chain."""
    saved = {name: getattr(fused, name) for name in KERNELS}
    for name, chain in KERNELS.items():
        setattr(fused, name, chain)
    try:
        yield
    finally:
        for name, kernel in saved.items():
            setattr(fused, name, kernel)
