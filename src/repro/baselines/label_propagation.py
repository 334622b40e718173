"""Label Propagation (Zhu et al., 2003) — the classic graph-SSL baseline.

Iterates ``Y ← α S Y + (1 - α) Y0`` with ``S`` the symmetrically
normalized adjacency and ``Y0`` the one-hot seed labels, clamping labeled
rows, until convergence.  Uses only the structure (no features), which is
why it trails feature-aware models by a wide margin in Table 4.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph
from repro.graph.normalize import gcn_normalize


# Propagation weight in (0, 1) — higher trusts the graph more — and the
# fixed-point iteration's budget and convergence tolerance.
ALPHA = 0.9
MAX_ITER = 200
TOL = 1e-8


class LabelPropagation:
    """Iterative label spreading with clamped seeds (``α = 0.9``)."""

    def predict_proba(self, graph: Graph) -> np.ndarray:
        """Per-node class distributions after propagation."""
        n, k = graph.num_nodes, graph.num_classes
        seed = np.zeros((n, k))
        seed[graph.train_index, graph.labels[graph.train_index]] = 1.0
        spread = gcn_normalize(graph.adjacency)

        current = seed.copy()
        for _ in range(MAX_ITER):
            updated = ALPHA * (spread @ current) + (1.0 - ALPHA) * seed
            updated[graph.train_index] = seed[graph.train_index]  # clamp labels
            if np.abs(updated - current).max() < TOL:
                current = updated
                break
            current = updated

        row_sums = current.sum(axis=1, keepdims=True)
        row_sums[row_sums == 0] = 1.0
        return current / row_sums

    def predict(self, graph: Graph) -> np.ndarray:
        """Argmax class predictions."""
        return self.predict_proba(graph).argmax(axis=1)
