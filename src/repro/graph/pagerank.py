"""PageRank by power iteration.

The RDD ensemble weight (paper Eq. 12) uses PageRank to measure node
importance: ``α_t = 1 / Σ_i I_t(x_i)·Pr(x_i)``.  This implementation
handles dangling (zero-out-degree) nodes by redistributing their mass
uniformly, matching the classical formulation.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import GraphError


# The classical teleport-complement factor, the L1 convergence tolerance
# between successive iterates, and the iteration budget (convergence
# normally needs far fewer).
DAMPING = 0.85
TOL = 1e-10
MAX_ITER = 200


def pagerank(adjacency: sp.spmatrix) -> np.ndarray:
    """PageRank scores of an (undirected or directed) adjacency matrix.

    ``adjacency`` is sparse with rows as sources and columns as
    destinations.  Damping is 0.85 and teleports are uniform over the
    nodes.  Returns an ndarray summing to 1 with one score per node.
    """
    adjacency = sp.csr_matrix(adjacency, dtype=np.float64)
    n = adjacency.shape[0]
    if n == 0:
        raise GraphError("pagerank of an empty graph is undefined")

    out_degree = np.asarray(adjacency.sum(axis=1)).ravel()
    dangling = out_degree == 0
    inv_degree = np.where(dangling, 0.0, 1.0 / np.maximum(out_degree, 1e-300))
    transition = sp.diags(inv_degree) @ adjacency  # row-stochastic except dangling rows

    teleport = np.full(n, 1.0 / n)
    rank = teleport.copy()
    for _ in range(MAX_ITER):
        dangling_mass = rank[dangling].sum()
        new_rank = DAMPING * (transition.T @ rank + dangling_mass * teleport) + (1.0 - DAMPING) * teleport
        if np.abs(new_rank - rank).sum() < TOL:
            return new_rank
        rank = new_rank
    return rank
