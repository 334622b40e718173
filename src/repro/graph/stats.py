"""Descriptive statistics for graphs — used to validate synthetic datasets
against the published Table 2 and to characterize reliability behaviour."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics of an attributed labeled graph."""

    num_nodes: int
    num_edges: int
    num_features: int
    num_classes: int
    mean_degree: float
    edge_homophily: float
    label_rate: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "num_features": self.num_features,
            "num_classes": self.num_classes,
            "mean_degree": self.mean_degree,
            "edge_homophily": self.edge_homophily,
            "label_rate": self.label_rate,
        }


def edge_homophily(adjacency: sp.spmatrix, labels: np.ndarray) -> float:
    """Fraction of edges whose endpoints share a label.

    Citation networks are strongly homophilous (~0.8 for Cora), which is
    the regime where Graph Laplacian Regularization — and thus edge
    reliability — matters.
    """
    coo = sp.triu(adjacency, k=1).tocoo()
    if coo.nnz == 0:
        return 0.0
    labels = np.asarray(labels)
    return float((labels[coo.row] == labels[coo.col]).mean())


def summarize(graph) -> GraphStats:
    """Compute :class:`GraphStats` for a :class:`repro.graph.Graph`."""
    return GraphStats(
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        num_features=graph.num_features,
        num_classes=graph.num_classes,
        mean_degree=float(graph.degrees().mean()),
        edge_homophily=edge_homophily(graph.adjacency, graph.labels),
        label_rate=graph.label_rate,
    )
