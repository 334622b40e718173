"""Simple Graph Convolution (Wu et al., 2019).

SGC removes the nonlinearities from a K-layer GCN, collapsing it to
``softmax(Â^K X W)`` — a strong, nearly-free baseline that isolates how
much of GCN's power is pure feature propagation.  Useful here as a cheap
base model for RDD (the framework is architecture-agnostic) and as a
sanity reference.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import ConfigError
from repro.graph.graph import Graph
from repro.models.base import GraphModel
from repro.nn.layers import Dropout, Linear
from repro.tensor.tensor import Tensor


class SGC(GraphModel):
    """Logistic regression on K-step propagated features.

    The propagated features ``Â^K X`` depend only on the graph, so they
    are computed once (in float64) and cached per graph instance in the
    graph's feature dtype.
    """

    def __init__(
        self,
        num_features: int,
        num_classes: int,
        rng: np.random.Generator,
        k_hops: int = 2,
        dropout: float = 0.0,
    ):
        super().__init__()
        if k_hops < 1:
            raise ConfigError(f"k_hops must be >= 1, got {k_hops}")
        self.k_hops = k_hops
        self.classifier = Linear(num_features, num_classes, rng)
        self.dropout = Dropout(dropout, rng)
        self._cache_key = None
        self._cached_features = None

    def _propagated_features(self, graph: Graph) -> np.ndarray:
        if self._cache_key is not graph:
            adjacency = graph.normalized_adjacency()
            features = graph.features
            if sp.issparse(features):
                features = np.asarray(features.todense())
            propagated = np.asarray(features, dtype=np.float64)
            for _ in range(self.k_hops):
                propagated = adjacency @ propagated
            self._cache_key = graph
            self._cached_features = propagated.astype(graph.features.dtype, copy=False)
        return self._cached_features

    def forward(self, graph: Graph) -> Tensor:
        features = Tensor._from_array(self._propagated_features(graph))
        return self.classifier(self.dropout(features))
