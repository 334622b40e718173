"""Neural-network layers: dense, graph convolution, attention, dropout.

The :class:`GraphConvolution` layer implements Kipf & Welling's propagation
rule (paper Eq. 1): ``H' = act(Â H W + b)`` where ``Â`` is the
symmetrically normalized adjacency with self-loops, supplied as a constant
scipy sparse matrix.  :class:`GraphAttention` implements a single-head GAT
layer on the edge list using segment-softmax attention.
"""

from __future__ import annotations

from typing import Union

import numpy as np
import scipy.sparse as sp

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor import fused, ops
from repro.tensor.sparse import sparse_dense_matmul, sparse_feature_matmul
from repro.tensor.tensor import Tensor, as_tensor, is_grad_enabled

FeatureInput = Union[Tensor, np.ndarray, sp.spmatrix]


def _feature_matmul(features: FeatureInput, weight: Parameter) -> Tensor:
    """``features @ weight`` accepting dense tensors or constant sparse features."""
    if sp.issparse(features):
        return sparse_feature_matmul(features, weight)
    return ops.matmul(as_tensor(features), weight)


def _raw_data(x: FeatureInput):
    """Unwrap a dense/sparse feature input to its raw array for inference."""
    return x.data if isinstance(x, Tensor) else x


def _feature_product(x: FeatureInput, weight: Parameter) -> np.ndarray:
    """Raw-numpy ``x @ W`` for inference.  The product is a fresh array,
    so adding the bias to it in place is bitwise identical to the ops
    path."""
    data = _raw_data(x)
    if sp.issparse(data):
        return sparse_dense_matmul(data.tocsr(), weight.data)
    return data @ weight.data


class Linear(Module):
    """Affine layer ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.glorot_uniform(rng, in_features, out_features), name="weight")
        self.bias = Parameter(init.zeros(out_features), name="bias")

    def forward(self, x: FeatureInput) -> Tensor:
        if not is_grad_enabled():
            out = _feature_product(x, self.weight)
            out += self.bias.data
            return Tensor._from_array(out)
        return fused.linear(x, self.weight, self.bias)


class GraphConvolution(Module):
    """One GCN layer: ``Â (X W) + b`` with ``Â`` a constant sparse matrix."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.glorot_uniform(rng, in_features, out_features), name="weight")
        self.bias = Parameter(init.zeros(out_features), name="bias")

    def forward(self, adjacency: sp.spmatrix, x: FeatureInput) -> Tensor:
        if not is_grad_enabled():
            out = sparse_dense_matmul(adjacency.tocsr(), _feature_product(x, self.weight))
            out += self.bias.data
            return Tensor._from_array(out)
        return fused.gcn_layer(adjacency, x, self.weight, self.bias)


class GraphAttention(Module):
    """Single-head graph attention layer (Velickovic et al., 2018).

    Attention logits ``e_ij = LeakyReLU(a_src^T W h_i + a_dst^T W h_j)`` are
    computed per directed edge (including self loops), normalized with a
    per-destination segment softmax, and used to aggregate transformed
    neighbor features.
    """

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.glorot_uniform(rng, in_features, out_features), name="weight")
        self.attn_src = Parameter(init.glorot_uniform(rng, out_features, 1), name="attn_src")
        self.attn_dst = Parameter(init.glorot_uniform(rng, out_features, 1), name="attn_dst")

    def forward(self, edge_src: np.ndarray, edge_dst: np.ndarray, x: FeatureInput) -> Tensor:
        """Aggregate features along directed edges ``src -> dst``.

        ``edge_src`` / ``edge_dst`` must include self-loops so every node
        attends at least to itself.
        """
        num_nodes = x.shape[0]
        h = _feature_matmul(x, self.weight)
        score_src = ops.matmul(h, self.attn_src)  # (n, 1)
        score_dst = ops.matmul(h, self.attn_dst)
        # LeakyReLU at the op's default slope 0.2, GAT's value.
        logits = ops.leaky_relu(
            ops.add(ops.gather(score_src, edge_src), ops.gather(score_dst, edge_dst))
        )
        weights = _segment_softmax(logits, edge_dst, num_nodes)
        messages = ops.mul(ops.gather(h, edge_src), weights)
        return ops.scatter_add_rows(messages, edge_dst, num_nodes)


def _segment_softmax(logits: Tensor, segments: np.ndarray, num_segments: int) -> Tensor:
    """Softmax over groups of rows sharing the same segment id.

    Implemented with differentiable ops: exponentiate shifted logits, sum
    per segment, and divide.  The shift uses per-segment maxima (constant
    w.r.t. gradients) for numerical stability.
    """
    segments = np.asarray(segments, dtype=np.int64)
    # Constant per-segment max for stability (gradient of a shift is zero-sum).
    seg_max = np.full((num_segments, 1), -np.inf)
    np.maximum.at(seg_max, segments, logits.data)
    shifted = ops.sub(logits, Tensor(seg_max[segments]))
    exps = ops.exp(shifted)
    seg_sum = ops.scatter_add_rows(exps, segments, num_segments)
    return ops.div(exps, ops.gather(seg_sum, segments))


class Dropout(Module):
    """Inverted dropout driven by an explicit random generator."""

    def __init__(self, rate: float, rng: np.random.Generator):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.rng = rng

    def forward(self, x: FeatureInput) -> FeatureInput:
        if not self.training or self.rate <= 0.0:
            # The identity returns its input as is, whatever its type: a
            # Tensor wrap would cast dense float32 features to the
            # process default dtype.
            return x
        if sp.issparse(x):
            # Sparse dropout: mask the stored nonzeros and rescale.
            keep = 1.0 - self.rate
            if sp.isspmatrix_csr(x):
                # Masking keeps the sparsity structure, so reuse the
                # index arrays instead of round-tripping through COO
                # (same storage order, so the rng stream and the masked
                # values are bitwise identical to the COO path).  Draws
                # match the value dtype; float64 keeps the seed stream.
                if x.data.dtype == np.float32:
                    mask = self.rng.random(x.nnz, dtype=np.float32) < keep
                else:
                    mask = self.rng.random(x.nnz) < keep
                # The index arrays are reused verbatim from a valid CSR
                # matrix, so re-validating them in __init__ is pure
                # overhead on the train-step hot path; build the
                # container directly around them.
                out = sp.csr_matrix.__new__(sp.csr_matrix)
                out.data = x.data * mask / keep
                out.indices = x.indices
                out.indptr = x.indptr
                out._shape = x.shape
                return out
            x = x.tocoo(copy=True)
            mask = self.rng.random(x.nnz) < keep
            x.data = x.data * mask / keep
            return x.tocsr()
        return fused.dropout(as_tensor(x), self.rate, self.rng)
