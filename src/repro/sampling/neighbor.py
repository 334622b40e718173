"""Vectorized CSR neighbor sampling.

The kernel at the bottom of every sampled path — training block
construction and serving's inductive context expansion — is
:func:`sample_adjacent`: without-replacement fanout sampling over a CSR
adjacency with **no Python-level loop over seed nodes**.  The per-node
work is expressed as batched index arithmetic over ``indptr``/``indices``
(``np.repeat``/``cumsum`` offset expansion, one key-sort for the rows
that exceed the fanout), so a 10k-seed batch costs a handful of ndarray
passes instead of 10k Python iterations.

Sampling semantics
------------------
* a node with ``degree <= fanout`` keeps **all** its neighbors — and,
  crucially, consumes **no randomness**, so full-fanout sampling is a
  deterministic function of the graph alone;
* a node with ``degree > fanout`` gets a uniform (or weighted) sample of
  exactly ``fanout`` distinct neighbors, drawn via random keys: each
  candidate edge receives an independent key and the ``fanout`` smallest
  keys per row win.  With exponential keys scaled by ``1/w`` this is
  exactly weighted sampling without replacement (the A-ExpJ scheme), and
  uniform keys recover the unweighted case.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.errors import GraphError


def check_node_ids(nodes, num_nodes: int, name: str = "nodes") -> np.ndarray:
    """Validate and canonicalize an array of node ids to int64.

    Accepts any integer dtype (or a Python int sequence); rejects
    floating-point inputs and out-of-range ids with a :class:`GraphError`
    instead of letting a raw ``IndexError`` (or a silently wrapped
    negative index) escape from the CSR arithmetic.
    """
    nodes = np.asarray(nodes)
    if nodes.dtype == object or not np.issubdtype(nodes.dtype, np.integer):
        try:
            converted = nodes.astype(np.int64)
        except (TypeError, ValueError):
            raise GraphError(f"{name} must be integers, got dtype {nodes.dtype}") from None
        if not np.array_equal(converted, nodes):
            raise GraphError(f"{name} must be integers, got dtype {nodes.dtype}")
        nodes = converted
    else:
        nodes = nodes.astype(np.int64, copy=False)
    if nodes.size and (nodes.min() < 0 or nodes.max() >= num_nodes):
        raise GraphError(
            f"{name} ids must be in [0, {num_nodes}), got range "
            f"[{nodes.min()}, {nodes.max()}]"
        )
    return nodes


def unique_ids(ids: np.ndarray) -> np.ndarray:
    """Sorted distinct ``ids``, equal to ``np.unique(ids)``, by one sort.

    ``np.unique`` (and ``np.union1d``, which calls it) hashes first,
    which on the small integer id arrays of sampling, serving and
    streaming deltas costs several times one sort: 69 µs against 9.6 µs
    at 512 int64 ids, 250 µs against 18 µs at 2,000 (numpy 2.4, 2-vCPU
    x86-64 host).
    """
    ids = np.sort(ids)
    keep = np.ones(len(ids), dtype=bool)
    np.not_equal(ids[1:], ids[:-1], out=keep[1:])
    return ids[keep]


def _expand_positions(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat positions ``[starts[i], starts[i]+counts[i])`` for every row.

    The standard loop-free ragged expansion: a global ``arange`` minus
    each row's cumulative offset plus its start.
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    row_offsets = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts)[:-1]])
    return (
        np.arange(total, dtype=np.int64)
        - np.repeat(row_offsets, counts)
        + np.repeat(starts, counts)
    )


# The print limit csr_matrix.__init__ would set (raw_csr skips __init__).
_MAXPRINT = sp.csr_matrix((1, 1)).maxprint


def raw_csr(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray,
            shape: Tuple[int, int]) -> sp.csr_matrix:
    """A CSR container around arrays that are already canonical.

    The arrays must be sorted within rows and in range: validating them
    in ``csr_matrix.__init__`` would cost an O(nnz) pass per call, which
    is pure overhead on hot paths whose arrays are built that way.
    """
    out = sp.csr_matrix.__new__(sp.csr_matrix)
    out.data = data
    out.indices = indices
    out.indptr = indptr
    out._shape = shape
    out.maxprint = _MAXPRINT
    return out


def take_rows(matrix: sp.csr_matrix, rows: np.ndarray) -> sp.csr_matrix:
    """``matrix[rows]`` as one ragged gather of the CSR arrays.

    Same entries in the same in-row order as scipy's fancy indexing
    (so a row-wise product over the result is bitwise equal), without
    its per-call overhead.  Index dtypes are kept.
    """
    starts = matrix.indptr[rows]
    counts = matrix.indptr[rows + 1] - starts
    positions = _expand_positions(starts, counts)
    indptr = np.zeros(len(rows) + 1, dtype=matrix.indptr.dtype)
    np.cumsum(counts, out=indptr[1:])
    return raw_csr(
        matrix.data[positions], matrix.indices[positions], indptr,
        (len(rows), matrix.shape[1]),
    )


def sample_adjacent(
    indptr: np.ndarray,
    indices: np.ndarray,
    nodes: np.ndarray,
    fanout: int,
    rng: np.random.Generator,
    weights: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample up to ``fanout`` distinct neighbors for each node, vectorized.

    Parameters
    ----------
    indptr / indices:
        CSR structure of the (symmetric) adjacency.
    nodes:
        Seed node ids (int64, already validated).
    fanout:
        Maximum neighbors kept per node (>= 1).
    weights:
        Optional per-*global-node* positive sampling weights; rows whose
        degree exceeds the fanout draw neighbors with probability
        proportional to their weight (without replacement).  ``None``
        samples uniformly.

    Returns
    -------
    (src, dst, counts):
        Sampled directed edges ``neighbor -> node``, grouped by seed in
        ``nodes`` order, plus the per-seed count of sampled neighbors (0
        for an isolated node, which contributes no edge).
    """
    if fanout < 1:
        raise GraphError(f"fanout must be >= 1, got {fanout}")
    starts = indptr[nodes]
    degrees = indptr[nodes + 1] - starts
    take = np.minimum(degrees, fanout)
    src = np.empty(int(take.sum()), dtype=np.int64)
    out_offsets = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(take)[:-1]])

    full = degrees <= fanout
    if full.any():
        # Under-fanout rows copy their whole neighbor list — no RNG.
        positions = _expand_positions(starts[full], degrees[full])
        slots = _expand_positions(out_offsets[full], degrees[full])
        src[slots] = indices[positions]

    over = degrees > fanout
    if over.any():
        o_starts = starts[over]
        o_degrees = degrees[over]
        candidates = indices[_expand_positions(o_starts, o_degrees)]
        o_rows = np.repeat(np.arange(int(over.sum()), dtype=np.int64), o_degrees)
        if weights is None:
            keys = rng.random(len(candidates))
        else:
            # Exponential keys scaled by 1/w: taking the smallest keys
            # per row is weighted sampling without replacement.  Map the
            # unbounded keys monotonically into [0, 1) so the composite
            # sort below stays row-grouped.
            raw = rng.exponential(size=len(candidates)) / weights[candidates]
            keys = raw / (raw + 1.0)
        # Single composite-key argsort (row id + key-in-[0,1)) orders by
        # row then key — ~8x faster than the equivalent np.lexsort.
        order = np.argsort(o_rows + keys)
        o_offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(o_degrees)[:-1]]
        )
        ranks = np.arange(len(candidates), dtype=np.int64) - np.repeat(o_offsets, o_degrees)
        winners = candidates[order[ranks < fanout]]
        slots = _expand_positions(out_offsets[over], np.full(int(over.sum()), fanout, dtype=np.int64))
        src[slots] = winners

    dst = np.repeat(nodes, take)
    return src, dst, take


class NeighborSampler:
    """Reusable fanout sampler bound to one graph's CSR adjacency.

    Caches the CSR structure arrays (and, for block building, the
    self-loop-augmented degree vector) so repeated per-batch sampling
    touches no scipy container machinery.  Deterministic: every draw
    comes from the generator ``rng``, and full-fanout calls never consume
    randomness.  Sampling is uniform until :meth:`set_weights` installs
    per-node weights.

    Parameters
    ----------
    adjacency:
        Symmetric scipy sparse adjacency (zero diagonal).
    rng:
        The generator every sample draws from
        (``np.random.default_rng(seed)`` for a seeded stream).
    """

    def __init__(self, adjacency: sp.spmatrix, rng: np.random.Generator):
        csr = adjacency.tocsr()
        self.num_nodes = csr.shape[0]
        self.indptr = csr.indptr.astype(np.int64, copy=False)
        self.indices = csr.indices.astype(np.int64, copy=False)
        self.rng = rng
        self._weights: Optional[np.ndarray] = None

    def set_weights(self, weights: Optional[np.ndarray]) -> None:
        """Install (or clear, with ``None``) per-node sampling weights.

        RDD's reliability-prioritized sampling updates these every epoch:
        reliable nodes get a larger weight, so over-fanout rows keep them
        preferentially.  Weights must be finite and strictly positive: a
        NaN key would sort past its row and shift every later row's ranks.
        """
        if weights is None:
            self._weights = None
            return
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (self.num_nodes,):
            raise GraphError(
                f"weights must have shape ({self.num_nodes},), got {weights.shape}"
            )
        if weights.size and not (np.isfinite(weights).all() and weights.min() > 0.0):
            raise GraphError("sampling weights must be finite and strictly positive")
        self._weights = weights

    def sample(self, nodes: np.ndarray, fanout: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized fanout sample; see :func:`sample_adjacent`."""
        nodes = check_node_ids(nodes, self.num_nodes)
        return sample_adjacent(
            self.indptr, self.indices, nodes, fanout, self.rng, weights=self._weights
        )


def layerwise_neighborhood(
    adjacency: sp.spmatrix,
    seeds: np.ndarray,
    fanout: int,
    num_hops: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Layer-wise sampled k-hop context of ``seeds`` (sorted global ids).

    Expands hop by hop: each frontier node keeps at most ``fanout``
    neighbors, newly-reached nodes form the next frontier, and the union
    of everything reached is returned.  This is the shared machinery
    behind the serving engine's inductive query subgraphs and any other
    consumer that needs a bounded receptive field rather than per-layer
    blocks.  Deterministic for a given ``rng`` state; neighbors are
    sampled uniformly.
    """
    sampler = NeighborSampler(adjacency, rng)
    context = check_node_ids(unique_ids(np.asarray(seeds)), sampler.num_nodes, "seeds")
    frontier = context
    for _ in range(num_hops):
        if frontier.size == 0:
            break
        src, _, _ = sampler.sample(frontier, fanout)
        reached = unique_ids(src)
        new = reached[np.isin(reached, context, assume_unique=True, invert=True)]
        if new.size == 0:
            break
        context = unique_ids(np.concatenate([context, new]))
        frontier = new
    return context
