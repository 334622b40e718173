"""GraphSAGE (Hamilton et al., 2017) with mean aggregation.

Each layer concatenates a node's own representation with the mean of its
neighbors' and applies a linear transform: ``h_v' = ReLU(W [h_v || mean
neighbors])``.  The paper's related work cites GraphSAGE as the canonical
spatial GCN; it is included so the model zoo spans both spectral and
spatial designs.  The full-batch forward aggregates over all neighbors
(exact); :class:`~repro.training.sampled.SampledTrainer` trains the same
model on sampled blocks through :meth:`GraphSAGE.block_adjacency`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.graph.graph import Graph
from repro.graph.normalize import row_normalize
from repro.models.gcn import GCN
from repro.nn.layers import FeatureInput, Linear
from repro.sampling.blocks import Block
from repro.tensor import ops
from repro.tensor.sparse import spmm
from repro.tensor.tensor import Tensor, as_tensor


def _dense(x: FeatureInput) -> FeatureInput:
    return np.asarray(x.todense()) if sp.issparse(x) else x


class SAGEConvolution(Linear):
    """One GraphSAGE-mean layer with GCN's contract, ``layer(adjacency, h)``.

    ``adjacency`` is the (outputs × inputs) neighbor-mean matrix, without
    self loops.  Output ``i`` is input ``i``, as in a sampled block; the
    full graph is the square case.  The weight maps
    ``[h_self || neighbor mean]``, so it is a ``Linear(2 * in, out)``.
    """

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        super().__init__(2 * in_features, out_features, rng)

    def forward(self, adjacency: sp.spmatrix, x: FeatureInput) -> Tensor:
        x = as_tensor(_dense(x))
        neighbor_mean = spmm(adjacency.astype(x.dtype, copy=False), x)
        num_out = adjacency.shape[0]
        own = x if num_out == x.shape[0] else x[:num_out]
        return super().forward(ops.concat([own, neighbor_mean], axis=1))


class GraphSAGE(GCN):
    """GraphSAGE-mean: a :class:`GCN` whose layers are :class:`SAGEConvolution`."""

    def _layer(self, in_features: int, out_features: int, rng: np.random.Generator) -> SAGEConvolution:
        return SAGEConvolution(in_features, out_features, rng)

    def forward(self, graph: Graph) -> Tensor:
        # Row-normalized adjacency without self loops = neighbor mean.
        # Features are densified before dropout, so the masks are drawn
        # over every entry, zeros included.
        adjacency = row_normalize(graph.adjacency, self_loops=False)
        return self.propagate([adjacency] * len(self.layers), as_tensor(_dense(graph.features)))

    def block_adjacency(self, block: Block) -> sp.csr_matrix:
        """Neighbor-mean matrix over ``block``'s sampled edges.

        The block's self loops are dropped, so an output node with no
        sampled neighbor gets a zero mean, as in the full-batch forward.
        """
        structure = block.adjacency.tocoo()
        edges = structure.row != structure.col
        rows, cols = structure.row[edges], structure.col[edges]
        neighbors = sp.csr_matrix(
            (np.ones(len(rows)), (rows, cols)), shape=block.adjacency.shape
        )
        return row_normalize(neighbors, self_loops=False)
