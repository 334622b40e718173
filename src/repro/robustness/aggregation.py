"""Robust-aggregation GCN baselines: soft-median and trimmed-mean layers.

Vanilla GCN aggregation is a weighted *mean* over the closed neighborhood
— a statistic with a breakdown point of zero: one adversarially inserted
neighbor moves it arbitrarily far.  The classical fix is to aggregate
with a robust location estimator instead.  This module provides the two
standard choices as drop-in variants of
:class:`~repro.nn.layers.GraphConvolution`, built entirely on the
existing tensor ops:

``soft_median``
    The soft weighted median: per node, compute the weighted
    dimension-wise median of the (transformed) neighbor embeddings,
    then downweight each neighbor by a softmax over its negative
    distance to that median, ``c_j ∝ exp(-‖x_j - med‖ / (T·√d))`` at
    temperature ``T = 1``.  The reweighted row is rescaled to the
    original ``Â`` row mass (as ``T → ∞`` the layer would degenerate to
    vanilla GCN).
``trimmed_mean``
    Per node, drop the 45% of neighbors farthest (in L2)
    from the weighted neighborhood mean — per *node*, not per
    coordinate, a deliberate simplification that keeps the estimator
    one CSR reweighting — and rescale the survivors to the original
    row mass.  The self-loop entry is never trimmed.

Both estimators reduce to a data reweighting of the cached ``Â``: the
structure (indices/indptr) is shared, only the values change.  The
weights are recomputed each forward from the *current* support
``X W`` but treated as constants by the tape — the gradient flows
through the dense support via :func:`~repro.tensor.sparse.spmm`'s
constant-sparse contract, exactly like the stability shift in
segment-softmax attention.  This is the standard straight-through
treatment for robust aggregation and keeps backward a single transposed
sparse product.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp

from repro.errors import ConfigError
from repro.models.gcn import GCN
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor import ops
from repro.tensor.sparse import (
    sparse_dense_matmul,
    sparse_feature_matmul,
    spmm,
)
from repro.tensor.tensor import Tensor, as_tensor, is_grad_enabled

__all__ = [
    "AGGREGATIONS",
    "RobustGCN",
    "RobustGraphConvolution",
    "robust_weights",
    "soft_median_weights",
    "trimmed_mean_weights",
]

# Robust neighbor-aggregation variants (the paper's weighted mean is
# the plain GCN).
AGGREGATIONS = ("soft_median", "trimmed_mean")

# Soft-median temperature, and the fraction of each neighborhood the
# trimmed mean drops (it must stay below one half, or the estimator
# would discard a majority of honest neighbors).
TEMPERATURE = 1.0
TRIM = 0.45


def _weighted_dimwise_median(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted median of each column of ``values`` (rows weighted).

    The weighted median of a column is the smallest entry at which the
    cumulative weight (in sorted order) reaches half the total — the
    minimizer of the weighted L1 distance, robust to a minority of
    outliers no matter how extreme.
    """
    m, d = values.shape
    order = np.argsort(values, axis=0, kind="stable")
    sorted_weights = weights[order]
    cumulative = np.cumsum(sorted_weights, axis=0)
    half = 0.5 * weights.sum()
    first_crossing = np.argmax(cumulative >= half, axis=0)
    cols = np.arange(d)
    return values[order[first_crossing, cols], cols]


def soft_median_weights(base: sp.csr_matrix, h: np.ndarray) -> sp.csr_matrix:
    """Soft-median reweighting of ``base`` (``Â``) against embeddings ``h``.

    Per row: softmax of negative distances to the weighted dim-wise
    median, multiplied into the original weights and rescaled to the
    original row mass.  Structure is shared with ``base``; only the data
    array is new.
    """
    h = np.asarray(h, dtype=np.float64)
    scale = TEMPERATURE * np.sqrt(h.shape[1])
    indptr, indices = base.indptr, base.indices
    data = base.data.astype(np.float64)
    new_data = data.copy()
    for row in range(base.shape[0]):
        lo, hi = int(indptr[row]), int(indptr[row + 1])
        if hi - lo <= 1:
            continue
        cols = indices[lo:hi]
        weights = data[lo:hi]
        neighborhood = h[cols]
        median = _weighted_dimwise_median(neighborhood, weights)
        distances = np.sqrt(((neighborhood - median) ** 2).sum(axis=1))
        logits = -distances / scale
        logits -= logits.max()
        soft = np.exp(logits)
        reweighted = soft * weights
        total = reweighted.sum()
        if total > 0.0:
            new_data[lo:hi] = reweighted * (weights.sum() / total)
    return sp.csr_matrix(
        (new_data.astype(base.dtype, copy=False), indices, indptr),
        shape=base.shape,
        copy=False,
    )


def trimmed_mean_weights(base: sp.csr_matrix, h: np.ndarray) -> sp.csr_matrix:
    """Trimmed-mean reweighting: zero the farthest :data:`TRIM` fraction per row.

    Distances are to the weighted neighborhood mean; the diagonal
    (self-loop) entry is exempt from trimming; survivors are rescaled to
    the original row mass.
    """
    h = np.asarray(h, dtype=np.float64)
    indptr, indices = base.indptr, base.indices
    data = base.data.astype(np.float64)
    new_data = data.copy()
    for row in range(base.shape[0]):
        lo, hi = int(indptr[row]), int(indptr[row + 1])
        degree = hi - lo
        num_drop = int(np.floor(TRIM * (degree - 1))) if degree > 1 else 0
        if num_drop == 0:
            continue
        cols = indices[lo:hi]
        weights = data[lo:hi]
        mean = (weights @ h[cols]) / weights.sum()
        distances = np.sqrt(((h[cols] - mean) ** 2).sum(axis=1))
        distances = distances.copy()
        distances[cols == row] = -1.0  # self-loop is never trimmed
        order = np.argsort(-distances, kind="stable")
        keep_weights = weights.copy()
        keep_weights[order[:num_drop]] = 0.0
        total = keep_weights.sum()
        if total > 0.0:
            new_data[lo:hi] = keep_weights * (weights.sum() / total)
    return sp.csr_matrix(
        (new_data.astype(base.dtype, copy=False), indices, indptr),
        shape=base.shape,
        copy=False,
    )


def robust_weights(base: sp.csr_matrix, h: np.ndarray, aggregation: str) -> sp.csr_matrix:
    """Dispatch to the named robust reweighting (see :data:`AGGREGATIONS`)."""
    if aggregation == "soft_median":
        return soft_median_weights(base, h)
    if aggregation == "trimmed_mean":
        return trimmed_mean_weights(base, h)
    raise ConfigError(
        f"unknown aggregation {aggregation!r}; choose from {list(AGGREGATIONS)}"
    )


class RobustGraphConvolution(Module):
    """``P(H) (X W) + b`` where ``P(H)`` is a robust reweighting of ``Â``.

    A drop-in sibling of :class:`~repro.nn.layers.GraphConvolution`:
    same parameters, same constant-sparse gradient contract.  The
    propagation matrix is recomputed each forward from the current
    support and treated as a constant by the tape.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        aggregation: str = "soft_median",
    ):
        super().__init__()
        if aggregation not in AGGREGATIONS:
            raise ConfigError(
                f"unknown aggregation {aggregation!r}; choose from {list(AGGREGATIONS)}"
            )
        self.in_features = in_features
        self.out_features = out_features
        self.aggregation = aggregation
        self.weight = Parameter(
            init.glorot_uniform(rng, in_features, out_features), name="weight"
        )
        self.bias = Parameter(init.zeros(out_features), name="bias")

    def forward(self, adjacency: sp.spmatrix, x) -> Tensor:
        """``adjacency`` is the GCN-normalized ``Â`` (CSR, self-loops in)."""
        base = adjacency.tocsr()
        if not is_grad_enabled():
            data = x.data if isinstance(x, Tensor) else x
            if sp.issparse(data):
                support = sparse_dense_matmul(data.tocsr(), self.weight.data)
            else:
                support = data @ self.weight.data
            propagation = robust_weights(base, support, self.aggregation)
            out = sparse_dense_matmul(propagation, support)
            out += self.bias.data
            return Tensor._from_array(out)
        if sp.issparse(x):
            support = sparse_feature_matmul(x, self.weight)
        else:
            support = ops.matmul(as_tensor(x), self.weight)
        propagation = robust_weights(base, support.data, self.aggregation)
        return ops.add(spmm(propagation, support), self.bias)


class RobustGCN(GCN):
    """A GCN whose layers aggregate with a robust estimator.

    Everything but the layer type is :class:`~repro.models.gcn.GCN`'s
    (widths, dropout, forward), so it slots into
    :class:`~repro.training.trainer.Trainer` and the bagging ensembles
    unchanged.
    """

    def __init__(
        self,
        num_features: int,
        num_classes: int,
        rng: np.random.Generator,
        hidden: int | Sequence[int] = 16,
        num_layers: int = 2,
        dropout: float = 0.5,
        aggregation: str = "soft_median",
    ):
        # Set before GCN.__init__, which builds the layers through _layer.
        self.aggregation = aggregation
        super().__init__(
            num_features, num_classes, rng, hidden=hidden, num_layers=num_layers, dropout=dropout
        )

    def _layer(
        self, in_features: int, out_features: int, rng: np.random.Generator
    ) -> RobustGraphConvolution:
        return RobustGraphConvolution(in_features, out_features, rng, aggregation=self.aggregation)
