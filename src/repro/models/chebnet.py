"""ChebNet: Chebyshev-polynomial spectral graph convolution
(Defferrard et al., 2016).

The spectral ancestor of GCN (§6 of the paper traces this lineage; Kipf &
Welling's layer is the K=1 truncation).  Each layer computes

    H' = Σ_{k=0}^{K-1} T_k(L̃) H W_k,

where ``T_k`` are Chebyshev polynomials of the rescaled Laplacian
``L̃ = 2L/λ_max − I``, evaluated with the three-term recurrence
``T_k(x) = 2x·T_{k-1}(x) − T_{k-2}(x)``.
"""

from __future__ import annotations

from typing import List

import numpy as np
import scipy.sparse as sp

from repro.errors import ConfigError
from repro.graph.graph import Graph
from repro.models.base import GraphModel
from repro.nn import init
from repro.nn.layers import Dropout
from repro.nn.module import Module, Parameter
from repro.tensor import ops
from repro.tensor.sparse import spmm
from repro.tensor.tensor import Tensor, as_tensor


def rescaled_laplacian(adjacency: sp.spmatrix, lambda_max: float = 2.0) -> sp.csr_matrix:
    """``L̃ = 2 L_sym / λ_max − I`` with ``L_sym = I − D^{-1/2} A D^{-1/2}``.

    λ_max = 2 is the standard upper bound for the symmetric normalized
    Laplacian, avoiding an eigensolve.
    """
    adjacency = sp.csr_matrix(adjacency, dtype=np.float64)
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    degrees[degrees == 0] = 1.0
    inv_sqrt = sp.diags(1.0 / np.sqrt(degrees))
    identity = sp.identity(adjacency.shape[0], format="csr")
    laplacian = identity - inv_sqrt @ adjacency @ inv_sqrt
    return ((2.0 / lambda_max) * laplacian - identity).tocsr()


class ChebConvolution(Module):
    """One Chebyshev convolution layer of order K."""

    def __init__(self, in_features: int, out_features: int, order: int, rng: np.random.Generator):
        super().__init__()
        if order < 1:
            raise ConfigError(f"order must be >= 1, got {order}")
        self.order = order
        self._weights: List[Parameter] = []
        for k in range(order):
            weight = Parameter(init.glorot_uniform(rng, in_features, out_features), name=f"weight_{k}")
            setattr(self, f"weight_{k}", weight)
            self._weights.append(weight)
        self.bias = Parameter(init.zeros(out_features), name="bias")

    def forward(self, laplacian: sp.spmatrix, x) -> Tensor:
        x = as_tensor(x) if not sp.issparse(x) else as_tensor(np.asarray(x.todense()))
        # Chebyshev recurrence on the feature matrix.
        t_prev = x  # T_0(L) X = X
        out = ops.matmul(t_prev, self._weights[0])
        if self.order > 1:
            t_curr = spmm(laplacian, x)  # T_1(L) X = L X
            out = ops.add(out, ops.matmul(t_curr, self._weights[1]))
            for k in range(2, self.order):
                t_next = ops.sub(ops.mul(spmm(laplacian, t_curr), 2.0), t_prev)
                out = ops.add(out, ops.matmul(t_next, self._weights[k]))
                t_prev, t_curr = t_curr, t_next
        return ops.add(out, self.bias)


class ChebNet(GraphModel):
    """Two ChebConvolution layers with ReLU and dropout."""

    def __init__(
        self,
        num_features: int,
        num_classes: int,
        rng: np.random.Generator,
        hidden: int = 16,
        order: int = 2,
        dropout: float = 0.5,
    ):
        super().__init__()
        self.layer1 = ChebConvolution(num_features, hidden, order, rng)
        self.layer2 = ChebConvolution(hidden, num_classes, order, rng)
        self.dropout = Dropout(dropout, rng)
        self._laplacian_key = None
        self._laplacian = None

    def _laplacian_for(self, graph: Graph) -> sp.csr_matrix:
        if self._laplacian_key is not graph:
            self._laplacian = rescaled_laplacian(graph.adjacency).astype(
                graph.features.dtype, copy=False
            )
            self._laplacian_key = graph
        return self._laplacian

    def forward(self, graph: Graph) -> Tensor:
        laplacian = self._laplacian_for(graph)
        features = graph.features
        if sp.issparse(features):
            features = np.asarray(features.todense())
        h = ops.relu(self.layer1(laplacian, self.dropout(as_tensor(features))))
        return self.layer2(laplacian, self.dropout(h))
