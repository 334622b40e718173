"""The per-node Python loop that ``repro.sampling.sample_adjacent`` replaced.

It is the oracle of ``tests/sampling/test_neighbor.py::TestLoopOracle``
and the timed baseline of ``benchmarks/bench_sampling.py`` (the
vectorized kernel must beat it by at least 5x on a 10k-seed batch).
"""

from __future__ import annotations

from typing import List

import numpy as np
import scipy.sparse as sp

from repro.errors import GraphError
from repro.sampling.neighbor import check_node_ids


def _sample_neighbors_loop(
    adjacency: sp.spmatrix,
    nodes: np.ndarray,
    fanout: int,
    rng: np.random.Generator,
) -> tuple:
    """Per-node-loop neighbor sampler: ``(src, dst)`` edges ``neighbor -> node``.

    A node keeps all its neighbors when its degree is at most ``fanout``
    and a uniform sample of ``fanout`` distinct ones otherwise.  An
    isolated node contributes a self edge, which
    :func:`repro.sampling.sample_adjacent` does not emit; elsewhere the
    two agree exactly where no randomness is consumed (full fanout).
    """
    if fanout < 1:
        raise GraphError(f"fanout must be >= 1, got {fanout}")
    csr = adjacency.tocsr()
    nodes = check_node_ids(nodes, csr.shape[0])
    src_parts: List[np.ndarray] = []
    dst_parts: List[np.ndarray] = []
    for node in nodes:
        neighbors = csr.indices[csr.indptr[node] : csr.indptr[node + 1]]
        if len(neighbors) == 0:
            chosen = np.asarray([node])
        elif len(neighbors) <= fanout:
            chosen = neighbors
        else:
            chosen = rng.choice(neighbors, size=fanout, replace=False)
        src_parts.append(chosen.astype(np.int64))
        dst_parts.append(np.full(len(chosen), node, dtype=np.int64))
    if not src_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    return np.concatenate(src_parts), np.concatenate(dst_parts)
