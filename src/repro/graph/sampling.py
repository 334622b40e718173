"""Neighbor sampling for minibatch training (GraphSAGE-style).

The paper's related work (§6) highlights that spatial GCNs can train on
"a batch of nodes instead of the whole graph" via neighborhood sampling.
This module provides the substrate: per-node uniform neighbor sampling
and layer-wise sampled computation blocks.

The sampling kernel itself lives in :mod:`repro.sampling.neighbor` —
the functions here are the historical edge-list API on top of it (the
block-based training path uses :class:`repro.sampling.BlockBuilder`
directly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np
import scipy.sparse as sp

from repro.errors import GraphError
from repro.sampling.blocks import FrontierIndex
from repro.sampling.neighbor import check_node_ids, sample_adjacent


def sample_neighbors(
    adjacency: sp.spmatrix,
    nodes: np.ndarray,
    fanout: int,
    rng: np.random.Generator,
) -> tuple:
    """Sample up to ``fanout`` neighbors for each node in ``nodes``.

    Returns ``(src, dst)`` arrays of sampled directed edges
    ``neighbor -> node``.  Sampling is *without replacement*: a node
    whose degree is at most ``fanout`` keeps all of its neighbors, and a
    node whose degree exceeds ``fanout`` gets a uniform sample of exactly
    ``fanout`` distinct neighbors.  Nodes with no neighbors contribute a
    self-edge so every node receives at least one message.

    ``nodes`` may be any integer dtype; out-of-range ids raise a
    :class:`GraphError`.  The sampling itself is fully vectorized — no
    Python-level loop over nodes (see :mod:`repro.sampling.neighbor`).
    """
    if fanout < 1:
        raise GraphError(f"fanout must be >= 1, got {fanout}")
    csr = adjacency.tocsr()
    nodes = check_node_ids(nodes, csr.shape[0])
    src, dst, _ = sample_adjacent(
        csr.indptr.astype(np.int64, copy=False),
        csr.indices.astype(np.int64, copy=False),
        nodes,
        fanout,
        rng,
        isolated_self_edges=True,
    )
    return src, dst


def _sample_neighbors_loop(
    adjacency: sp.spmatrix,
    nodes: np.ndarray,
    fanout: int,
    rng: np.random.Generator,
) -> tuple:
    """Reference per-node-loop implementation of :func:`sample_neighbors`.

    Kept for differential testing and as the baseline in
    ``benchmarks/bench_sampling.py`` (the vectorized kernel is required
    to beat this by >= 5x on a 10k-seed batch).  Semantics match
    :func:`sample_neighbors`; the RNG draw pattern differs, so the two
    agree exactly only where no randomness is consumed (full fanout).
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


@dataclass
class SampledBlock:
    """One layer's sampled computation block.

    Attributes
    ----------
    input_nodes:
        Global ids of the nodes whose representations feed this layer.
    output_nodes:
        Global ids of the nodes this layer produces (a prefix of
        ``input_nodes`` — every output node also appears as an input so
        self information is preserved).
    edge_src / edge_dst:
        Message edges in *local* (block-relative) indices:
        ``edge_src`` indexes ``input_nodes``, ``edge_dst`` indexes
        ``output_nodes``.
    """

    input_nodes: np.ndarray
    output_nodes: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray


def build_blocks(
    adjacency: sp.spmatrix,
    seed_nodes: np.ndarray,
    fanouts: Sequence[int],
    rng: np.random.Generator,
) -> List[SampledBlock]:
    """Build layer-wise sampled blocks for ``seed_nodes``.

    ``fanouts`` is ordered from the *output* layer inward (fanouts[0]
    samples the last layer's neighbors).  Returns blocks ordered from the
    input layer to the output layer, ready to be consumed sequentially by
    a forward pass.
    """
    if len(fanouts) == 0:
        raise GraphError("need at least one fanout")
    csr = adjacency.tocsr()
    indptr = csr.indptr.astype(np.int64, copy=False)
    indices = csr.indices.astype(np.int64, copy=False)
    frontier = FrontierIndex(csr.shape[0])
    blocks: List[SampledBlock] = []
    current = np.unique(check_node_ids(seed_nodes, csr.shape[0], "seed_nodes"))
    for fanout in fanouts:
        src, _, counts = sample_adjacent(
            indptr, indices, current, fanout, rng, isolated_self_edges=True
        )
        # Isolated nodes emit a self edge; account for it in the per-row
        # edge counts so local dst expansion below stays aligned.
        out_counts = np.where(counts == 0, 1, counts)

        # Local ids: outputs first (current order), then newly reached
        # sources in ascending global order (BlockBuilder's renumbering).
        ordered_inputs, local_src = frontier.expand(current, src)
        local_dst = np.repeat(np.arange(len(current), dtype=np.int64), out_counts)
        blocks.append(
            SampledBlock(
                input_nodes=ordered_inputs,
                output_nodes=current.copy(),
                edge_src=local_src,
                edge_dst=local_dst,
            )
        )
        current = ordered_inputs
    blocks.reverse()  # input layer first
    return blocks


def minibatches(
    index: np.ndarray, batch_size: int, rng: np.random.Generator
) -> List[np.ndarray]:
    """Shuffle ``index`` and split it into batches of ``batch_size``."""
    if batch_size < 1:
        raise GraphError(f"batch_size must be >= 1, got {batch_size}")
    shuffled = rng.permutation(np.asarray(index, dtype=np.int64))
    return [shuffled[i : i + batch_size] for i in range(0, len(shuffled), batch_size)]
