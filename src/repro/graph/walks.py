"""Random walks: the skip-gram context sampler of the Planetoid baseline."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import GraphError


def batch_random_walks(
    adjacency: sp.spmatrix,
    starts: np.ndarray,
    length: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Vectorized uniform random walks from many start nodes at once.

    Returns a ``(len(starts), length + 1)`` matrix of node ids.  A walk
    that reaches a node without neighbors stays there (the trailing
    repeats can be filtered by callers via ``path[i] != path[i+1]``).
    """
    if length < 0:
        raise GraphError(f"walk length must be nonnegative, got {length}")
    csr = adjacency.tocsr()
    starts = np.asarray(starts, dtype=np.int64)
    walks = np.empty((len(starts), length + 1), dtype=np.int64)
    walks[:, 0] = starts
    current = starts.copy()
    max_index = max(len(csr.indices) - 1, 0)
    for step in range(1, length + 1):
        degrees = csr.indptr[current + 1] - csr.indptr[current]
        alive = degrees > 0
        offsets = (rng.random(len(current)) * np.maximum(degrees, 1)).astype(np.int64)
        # Clamp the gather for stalled walks (their rows are empty, so the
        # raw pointer could land past the end of the index array).
        positions = np.minimum(csr.indptr[current] + offsets, max_index)
        if len(csr.indices):
            next_nodes = csr.indices[positions]
            current = np.where(alive, next_nodes, current)
        walks[:, step] = current
    return walks

