"""DGCN: dual graph convolutional network (Zhuang & Ma, 2018).

Two parallel convolutions share weights: one over the usual normalized
adjacency (local consistency) and one over a normalized PPMI matrix built
from random-walk co-occurrences (global consistency).  The final
prediction blends both views.  A Table 4 baseline, implemented here.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import ConfigError
from repro.graph.graph import Graph
from repro.graph.normalize import row_normalize
from repro.models.base import GraphModel
from repro.nn.layers import Dropout, GraphConvolution
from repro.tensor import ops
from repro.tensor.tensor import Tensor


def ppmi_matrix(adjacency: sp.spmatrix, walk_length: int = 3) -> sp.csr_matrix:
    """Positive pointwise mutual information from short random walks.

    Co-occurrence frequencies are computed in closed form as the average
    of the k-step transition matrices for k = 1..walk_length (the
    expectation over walk positions).  Everything stays sparse: PMI is
    only nonzero where the frequency is, so the log transform runs on the
    stored entries alone — this keeps Pubmed-scale graphs fast where the
    original dense formulation needs O(n³) work.
    """
    if walk_length < 1:
        raise ConfigError(f"walk_length must be >= 1, got {walk_length}")
    transition = row_normalize(adjacency, self_loops=True).tocsr()
    step = sp.identity(transition.shape[0], format="csr")
    frequency = sp.csr_matrix(transition.shape)
    for _ in range(walk_length):
        step = (step @ transition).tocsr()
        frequency = frequency + step
    frequency = (frequency / walk_length).tocoo()

    total = frequency.data.sum()
    row_marginal = np.asarray(frequency.sum(axis=1)).ravel()
    col_marginal = np.asarray(frequency.sum(axis=0)).ravel()
    denominator = row_marginal[frequency.row] * col_marginal[frequency.col]
    with np.errstate(divide="ignore", invalid="ignore"):
        pmi = np.log(frequency.data * total / denominator)
    pmi[~np.isfinite(pmi)] = 0.0
    ppmi = sp.csr_matrix(
        (np.maximum(pmi, 0.0), (frequency.row, frequency.col)), shape=frequency.shape
    )
    ppmi.eliminate_zeros()

    degrees = np.asarray(ppmi.sum(axis=1)).ravel()
    degrees[degrees == 0] = 1.0
    inv_sqrt = sp.diags(1.0 / np.sqrt(degrees))
    return (inv_sqrt @ ppmi @ inv_sqrt).tocsr()


class DGCN(GraphModel):
    """Dual-view GCN with shared layer weights across views.

    The training loss in the original paper mixes the two views with an
    annealed weight; this implementation exposes a fixed ``blend`` that
    the trainer's standard cross entropy sees — simpler, and sufficient
    for the comparison tables.
    """

    def __init__(
        self,
        num_features: int,
        num_classes: int,
        rng: np.random.Generator,
        hidden: int = 16,
        dropout: float = 0.5,
        blend: float = 0.7,
        walk_length: int = 3,
    ):
        super().__init__()
        if not 0.0 <= blend <= 1.0:
            raise ConfigError(f"blend must be in [0, 1], got {blend}")
        self.layer1 = GraphConvolution(num_features, hidden, rng)
        self.layer2 = GraphConvolution(hidden, num_classes, rng)
        self.dropout = Dropout(dropout, rng)
        self.blend = blend
        self.walk_length = walk_length
        self._ppmi_key = None
        self._ppmi = None

    def _ppmi_for(self, graph: Graph) -> sp.csr_matrix:
        if self._ppmi_key is not graph:
            self._ppmi = ppmi_matrix(graph.adjacency, walk_length=self.walk_length).astype(
                graph.features.dtype, copy=False
            )
            self._ppmi_key = graph
        return self._ppmi

    def _view(self, matrix: sp.spmatrix, graph: Graph) -> Tensor:
        h = self.dropout(graph.features)
        h = ops.relu(self.layer1(matrix, h))
        return self.layer2(matrix, self.dropout(h))

    def forward(self, graph: Graph) -> Tensor:
        local = self._view(graph.normalized_adjacency(), graph)
        ppmi_view = self._view(self._ppmi_for(graph), graph)
        return ops.add(ops.mul(local, self.blend), ops.mul(ppmi_view, 1.0 - self.blend))
