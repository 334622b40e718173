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


def pagerank(
    adjacency: sp.spmatrix,
    damping: float = 0.85,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> np.ndarray:
    """PageRank scores of an (undirected or directed) adjacency matrix.

    Parameters
    ----------
    adjacency:
        Sparse adjacency; rows are sources, columns destinations.
    damping:
        Teleport-complement factor in (0, 1); 0.85 is the classical choice.
    tol:
        L1 convergence tolerance between successive iterates.
    max_iter:
        Iteration budget; convergence normally needs far fewer.

    Teleports are uniform over the nodes.

    Returns
    -------
    ndarray summing to 1 with one score per node.
    """
    if not 0.0 < damping < 1.0:
        raise GraphError(f"damping must be in (0, 1), got {damping}")
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
    for _ in range(max_iter):
        dangling_mass = rank[dangling].sum()
        new_rank = damping * (transition.T @ rank + dangling_mass * teleport) + (1.0 - damping) * teleport
        if np.abs(new_rank - rank).sum() < tol:
            return new_rank
        rank = new_rank
    return rank
