"""Per-batch normalized Â blocks for layer-wise sampled training.

A :class:`BlockBuilder` turns a batch of seed nodes into a chain of
:class:`Block` objects, one per GCN layer, each carrying a *rectangular*
normalized adjacency slice ``Â_block`` of shape
``(len(output_nodes), len(input_nodes))`` in local (block-relative)
indices.  The forward pass then runs ``h_out = Â_block @ h_in @ W`` layer
by layer — the same contract as full-batch GCN, restricted to the
sampled receptive field.

Value semantics (the full-fanout parity contract)
-------------------------------------------------
Entries mirror :func:`repro.graph.normalize.gcn_normalize` exactly:

* self loop of output node ``v``:      ``inv_sqrt[v] * inv_sqrt[v]``
* sampled neighbor edge ``u -> v``:    ``(inv_sqrt[u] * inv_sqrt[v]) * (deg_v / s_v)``

where ``inv_sqrt = 1 / sqrt(degree + 1)`` over the **global** graph and
``deg_v / s_v`` is the GraphSAGE-style estimator rescale (full neighbor
count over sampled count), restricted to the block.  When the fanout
covers every neighbor the rescale is exactly ``1.0`` — an exact float
multiplication — so each block row is **bitwise equal** to the
corresponding row of the global ``gcn_normalize`` output under
renumbering.  That identity is what makes the differential tests
(full-fanout sampled training == full-batch training) meaningful.

Memory
------
The three CSR arrays of every block (``data``/``indices``/``indptr``)
are leased from a grow-only scratch pool owned by the builder — the same
idiom as PR 3's gradient-buffer arena — so steady-state batch
construction allocates nothing proportional to the block size.  The
flip side of the lease: **blocks are valid only until the next**
``build()`` **call on the same builder.**

Renumbering global ids into block-local ones goes through a
:class:`FrontierIndex`: a boolean mask and an int64 global→local map,
both indexed by node id, allocated once per builder (9 bytes per node,
177 kB on the 19,717-node pubmed stand-in).  Looking ids up replaces
the sorts a renumbering would otherwise need, and gives the very same
arrays: the mask's nonzero positions are sorted and unique, as
``np.unique`` returns them, and one stable argsort of the row-major key
``row * num_inputs + col`` orders the CSR entries exactly as the stable
``np.lexsort((cols, rows))`` does.  So blocks stay bitwise equal to the
sort-based construction, and the sampler's random draws are untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.errors import GraphError
from repro.sampling.neighbor import NeighborSampler, check_node_ids


@dataclass
class Block:
    """One layer's sampled computation block.

    ``output_nodes`` is always a prefix of ``input_nodes`` (every output
    node feeds itself through its self loop), and ``adjacency`` is the
    normalized rectangular slice mapping input activations to output
    activations: local row ``i`` aggregates for global node
    ``output_nodes[i]``, local column ``j`` reads global node
    ``input_nodes[j]``.
    """

    input_nodes: np.ndarray
    output_nodes: np.ndarray
    adjacency: sp.csr_matrix


@dataclass
class MiniBatch:
    """A batch of seeds plus its layer blocks, input layer first.

    ``blocks[0].input_nodes`` are the nodes whose raw features enter the
    network; ``blocks[-1].output_nodes`` equal ``seeds`` (sorted,
    deduplicated).
    """

    seeds: np.ndarray
    blocks: List[Block]

    @property
    def input_nodes(self) -> np.ndarray:
        return self.blocks[0].input_nodes


class _ScratchPool:
    """Grow-only keyed buffer pool (arena idiom, sans gradient machinery).

    ``take`` returns a view of a persistent buffer, growing it only when
    a batch needs more room than any previous one.  Lease discipline is
    the caller's job: views are valid until the next ``take`` with the
    same key.
    """

    def __init__(self):
        self._buffers: Dict[object, np.ndarray] = {}

    def take(self, key: object, size: int, dtype) -> np.ndarray:
        buf = self._buffers.get(key)
        if buf is None or buf.size < size or buf.dtype != np.dtype(dtype):
            buf = np.empty(size, dtype=dtype)
            self._buffers[key] = buf
        return buf[:size]


def _raw_csr(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray,
             shape: Tuple[int, int]) -> sp.csr_matrix:
    # The arrays are constructed sorted and in-range, so re-validating
    # them in __init__ is pure overhead on the per-batch hot path; build
    # the container directly around them (same idiom as the sparse
    # Dropout path in nn/layers.py).
    out = sp.csr_matrix.__new__(sp.csr_matrix)
    out.data = data
    out.indices = indices
    out.indptr = indptr
    out._shape = shape
    return out


class FrontierIndex:
    """Renumbers a sampled frontier into block-local ids by lookup.

    Holds two arrays indexed by global node id, sized to the graph and
    reused across calls: a membership mask (all False between calls) and
    a global→local map (read only where the current call wrote it).
    """

    def __init__(self, num_nodes: int):
        self._mask = np.zeros(num_nodes, dtype=bool)
        self._local = np.empty(num_nodes, dtype=np.int64)

    def expand(self, current: np.ndarray, src: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(input_nodes, local_src)`` for one layer.

        ``input_nodes`` is ``current`` followed by the sources not in it,
        ascending; ``local_src[i]`` is the position of ``src[i]`` in it.
        """
        mask = self._mask
        try:
            mask[src] = True
            mask[current] = False
            new = np.flatnonzero(mask)
        finally:
            mask[src] = False
        input_nodes = np.concatenate([current, new])
        self._local[input_nodes] = np.arange(len(input_nodes))
        return input_nodes, self._local[src]


class BlockBuilder:
    """Builds per-batch normalized Â blocks by layer-wise fanout sampling.

    Parameters
    ----------
    adjacency:
        Global symmetric adjacency (unweighted, zero diagonal) — the
        same matrix :func:`gcn_normalize` consumes.
    fanouts:
        Per-layer fanouts ordered from the *output* layer inward
        (``fanouts[0]`` samples the last layer's neighbors).
    seed / rng:
        Sampling stream; full-fanout builds consume no randomness.
    weights:
        Optional per-node neighbor-selection weights (RDD reliability
        prioritization); see :meth:`NeighborSampler.set_weights`.
    dtype:
        Dtype of the block values.  They are computed in float64 and
        cast once as they are written, just as ``Graph.astype`` casts
        the float64 global Â, so full-fanout rows stay bitwise equal to
        it at any dtype.
    """

    def __init__(
        self,
        adjacency: sp.spmatrix,
        fanouts: Sequence[int],
        seed: int = 0,
        rng: Optional[np.random.Generator] = None,
        weights: Optional[np.ndarray] = None,
        dtype=np.float64,
    ):
        fanouts = tuple(int(f) for f in fanouts)
        if len(fanouts) == 0:
            raise GraphError("need at least one fanout")
        if any(f < 1 for f in fanouts):
            raise GraphError(f"fanouts must all be >= 1, got {fanouts}")
        self.fanouts = fanouts
        self.dtype = np.dtype(dtype)
        self.sampler = NeighborSampler(adjacency, seed=seed, rng=rng, weights=weights)
        # Global D̂^{-1/2} with d̂ = degree + 1, computed with the same
        # float expression as gcn_normalize so block entries can be
        # bitwise equal to the global Â at full fanout.  Row sums equal
        # structural degrees because repo adjacencies are unweighted.
        self.degrees = np.diff(self.sampler.indptr)
        self.inv_sqrt = 1.0 / np.sqrt(self.degrees + 1.0)
        self._pool = _ScratchPool()
        self._frontier = FrontierIndex(self.sampler.num_nodes)

    def set_weights(self, weights: Optional[np.ndarray]) -> None:
        self.sampler.set_weights(weights)

    def build(self, seeds: np.ndarray) -> MiniBatch:
        """Sample blocks for ``seeds``; valid until the next ``build``."""
        seeds = check_node_ids(seeds, self.sampler.num_nodes, "seeds")
        current = np.unique(seeds)
        blocks: List[Block] = []
        for layer, fanout in enumerate(self.fanouts):
            blocks.append(self._build_layer(layer, current, fanout))
            current = blocks[-1].input_nodes
        blocks.reverse()  # input layer first
        return MiniBatch(seeds=blocks[-1].output_nodes, blocks=blocks)

    def _build_layer(self, layer: int, current: np.ndarray, fanout: int) -> Block:
        src, _, counts = self.sampler.sample(current, fanout)
        num_out = len(current)

        # Input frontier: outputs first, then newly reached sources.
        input_nodes, local_src = self._frontier.expand(current, src)
        num_in = len(input_nodes)

        # Estimator rescale deg/s per output row; exactly 1.0 when the
        # fanout covered every neighbor, so full-fanout entries reproduce
        # the global Â bitwise.
        deg = self.degrees[current].astype(np.float64)
        rescale = np.divide(deg, counts, out=np.zeros(num_out), where=counts > 0)

        # Flat COO triplets: one self loop per output row + sampled edges.
        num_edges = len(src)
        total = num_out + num_edges
        rows = np.concatenate(
            [np.arange(num_out, dtype=np.int64),
             np.repeat(np.arange(num_out, dtype=np.int64), counts)]
        )
        cols = np.concatenate([np.arange(num_out, dtype=np.int64), local_src])
        inv_cur = self.inv_sqrt[current]
        vals = np.concatenate(
            [inv_cur * inv_cur,
             (self.inv_sqrt[src] * np.repeat(inv_cur, counts)) * np.repeat(rescale, counts)]
        )

        # Canonical CSR (row-major, sorted columns) into leased buffers;
        # cols < num_in, so the key orders by row, then column.  The
        # values are cast to the block dtype before the gather: a gather
        # into a buffer of another dtype would first cast the buffer's
        # stale contents, which can warn on NaN bit patterns.
        order = np.argsort(rows * num_in + cols, kind="stable")
        data = self._pool.take((layer, "data"), total, self.dtype)
        indices = self._pool.take((layer, "indices"), total, np.int64)
        indptr = self._pool.take((layer, "indptr"), num_out + 1, np.int64)
        np.take(vals.astype(self.dtype, copy=False), order, out=data)
        np.take(cols, order, out=indices)
        indptr[0] = 0
        np.cumsum(counts + 1, out=indptr[1:])
        adjacency = _raw_csr(data, indices, indptr, (num_out, num_in))
        return Block(input_nodes=input_nodes, output_nodes=current, adjacency=adjacency)
