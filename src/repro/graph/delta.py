"""Streaming graph deltas: validated edits with incremental ``Â`` maintenance.

Live traffic mutates the graph — users join, edges arrive and expire —
but the serving stack (and every cached derived artifact) was built for
a *static* :class:`~repro.graph.graph.Graph`.  This module is the value
layer of the streaming-update path:

* :class:`GraphDelta` — one batch of edits (added/removed undirected
  edges, appended nodes with features and labels), validated against the
  graph it targets: out-of-range ids, duplicate or self-referential
  entries, adding an edge that already exists, or removing one that does
  not all raise :class:`~repro.errors.GraphError` *before* anything is
  touched.
* :func:`apply_delta` — a pure function producing the post-delta
  :class:`Graph`.  The CSR adjacency is rebuilt only at the rows whose
  edge lists changed, and — the part worth the module — the cached
  GCN-normalized ``Â`` is maintained **incrementally**: since
  ``Â[i, j] = 1/√d̂_i · 1/√d̂_j``, a node whose degree changed dirties
  its own row plus the matching column entries of its (unchanged)
  neighbors' rows, and only those entries are rewritten.  Every rewritten
  entry is computed with the exact float expression
  :func:`~repro.graph.normalize.gcn_normalize` uses
  (``(1.0 · inv_sqrt[i]) · inv_sqrt[j]`` at float64, then cast to the
  cached matrix's dtype), so the incremental ``Â`` is **bitwise
  identical** to a from-scratch normalization of the updated adjacency —
  the property the differential test battery in
  ``tests/graph/test_delta.py`` enforces after arbitrary generated delta
  sequences.
* :class:`DeltaLog` — a replayable, JSONL-serializable sequence of
  deltas (the ``repro deltas`` CLI entry point replays one against a
  serving engine).
* :func:`k_hop_rows` — the closure helper the serving layer uses to
  invalidate only the k-hop-affected rows of its logits table.

Deltas are expected to be *small* relative to the graph (a handful of
edge events per batch); per-edited-row work is done in Python loops over
the dirty set while everything proportional to the graph is bulk numpy.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.errors import GraphError
from repro.graph.graph import Features, Graph

__all__ = ["GraphDelta", "DeltaLog", "apply_delta", "k_hop_rows"]


def _as_edge_array(edges, name: str) -> np.ndarray:
    """Coerce to an ``(m, 2)`` int64 edge array (empty allowed)."""
    if edges is None:
        return np.empty((0, 2), dtype=np.int64)
    array = np.asarray(edges)
    if array.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if array.ndim != 2 or array.shape[1] != 2:
        raise GraphError(f"{name} must have shape (m, 2), got {array.shape}")
    if not np.issubdtype(array.dtype, np.integer):
        if not np.all(array == np.floor(array)):
            raise GraphError(f"{name} must contain integer node ids")
    return array.astype(np.int64)


def _canonical(edges: np.ndarray) -> np.ndarray:
    """Sort each pair as (min, max) and sort rows — undirected identity."""
    low = np.minimum(edges[:, 0], edges[:, 1])
    high = np.maximum(edges[:, 0], edges[:, 1])
    pairs = np.stack([low, high], axis=1)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    return pairs[order]


def _has_edge(adjacency: sp.csr_matrix, u: int, v: int) -> bool:
    row = adjacency.indices[adjacency.indptr[u] : adjacency.indptr[u + 1]]
    pos = np.searchsorted(row, v)
    return pos < len(row) and row[pos] == v


@dataclasses.dataclass
class GraphDelta:
    """One batch of graph edits: edge additions/removals + appended nodes.

    Parameters
    ----------
    added_edges / removed_edges:
        ``(m, 2)`` integer arrays of undirected edges.  Added edges may
        reference appended nodes by their post-delta ids
        (``num_nodes .. num_nodes + num_new_nodes - 1``); removed edges
        must lie entirely inside the existing graph.
    new_features:
        ``(k, num_features)`` feature rows for appended nodes (dense or
        sparse), or ``None`` when the delta appends no nodes.
    new_labels:
        Integer labels for appended nodes; defaults to zeros (serving
        graphs never read appended labels).
    """

    added_edges: np.ndarray = None
    removed_edges: np.ndarray = None
    new_features: Optional[Features] = None
    new_labels: Optional[np.ndarray] = None

    def __post_init__(self):
        self.added_edges = _as_edge_array(self.added_edges, "added_edges")
        self.removed_edges = _as_edge_array(self.removed_edges, "removed_edges")
        if self.new_features is not None and not sp.issparse(self.new_features):
            self.new_features = np.asarray(self.new_features, dtype=np.float64)
            if self.new_features.ndim != 2:
                raise GraphError(
                    f"new_features must be 2-D (rows of node features), "
                    f"got shape {self.new_features.shape}"
                )
        if self.new_labels is not None:
            self.new_labels = np.asarray(self.new_labels, dtype=np.int64)

    # ------------------------------------------------------------------
    @property
    def num_new_nodes(self) -> int:
        return 0 if self.new_features is None else int(self.new_features.shape[0])

    def dirty_nodes(self, num_nodes: int) -> np.ndarray:
        """Nodes whose degree or edge list this delta changes (sorted).

        Endpoints of every added/removed edge plus all appended nodes —
        the seed set for k-hop invalidation downstream.
        """
        parts = [self.added_edges.ravel(), self.removed_edges.ravel()]
        if self.num_new_nodes:
            parts.append(
                np.arange(num_nodes, num_nodes + self.num_new_nodes, dtype=np.int64)
            )
        return np.unique(np.concatenate(parts)) if parts else np.empty(0, np.int64)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self, graph: Graph) -> Tuple[np.ndarray, np.ndarray]:
        """Check this delta against ``graph``; return canonical edge arrays.

        Raises :class:`GraphError` on any malformed entry.  Returns
        ``(added, removed)`` with each pair ordered ``(min, max)`` and
        rows sorted.
        """
        n = graph.num_nodes
        k = self.num_new_nodes
        total = n + k

        if k:
            if self.new_features.shape[1] != graph.num_features:
                raise GraphError(
                    f"new node features have {self.new_features.shape[1]} columns "
                    f"but the graph has {graph.num_features} features"
                )
            if self.new_labels is not None and self.new_labels.shape != (k,):
                raise GraphError(
                    f"new_labels must have shape ({k},), got {self.new_labels.shape}"
                )
        elif self.new_labels is not None and len(self.new_labels):
            raise GraphError("new_labels given without new_features")

        for name, edges, limit in (
            ("added_edges", self.added_edges, total),
            ("removed_edges", self.removed_edges, n),
        ):
            if len(edges) == 0:
                continue
            if edges.min() < 0 or edges.max() >= limit:
                raise GraphError(
                    f"{name} reference node ids outside [0, {limit}) "
                    f"(got range [{edges.min()}, {edges.max()}])"
                )
            if (edges[:, 0] == edges[:, 1]).any():
                raise GraphError(f"{name} contain a self-referential edge")

        added = _canonical(self.added_edges)
        removed = _canonical(self.removed_edges)
        for name, pairs in (("added_edges", added), ("removed_edges", removed)):
            if len(pairs) > 1 and (np.diff(pairs, axis=0) == 0).all(axis=1).any():
                raise GraphError(f"{name} contain a duplicate edge")
        if len(added) and len(removed):
            both = set(map(tuple, added)) & set(map(tuple, removed))
            if both:
                raise GraphError(
                    f"edges both added and removed in one delta: {sorted(both)}"
                )

        adjacency = graph.adjacency
        for u, v in removed:
            if not _has_edge(adjacency, int(u), int(v)):
                raise GraphError(f"cannot remove edge ({u}, {v}): not present")
        for u, v in added:
            if v < n and _has_edge(adjacency, int(u), int(v)):
                raise GraphError(f"cannot add edge ({u}, {v}): already present")
        return added, removed

    # ------------------------------------------------------------------
    # JSON round-trip (DeltaLog persistence)
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        features = self.new_features
        if features is not None and sp.issparse(features):
            features = features.toarray()
        return {
            "added_edges": self.added_edges.tolist(),
            "removed_edges": self.removed_edges.tolist(),
            "new_features": None if features is None else features.tolist(),
            "new_labels": None if self.new_labels is None else self.new_labels.tolist(),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "GraphDelta":
        features = payload.get("new_features")
        return cls(
            added_edges=np.asarray(payload.get("added_edges") or [], dtype=np.int64).reshape(-1, 2),
            removed_edges=np.asarray(payload.get("removed_edges") or [], dtype=np.int64).reshape(-1, 2),
            new_features=None if features is None else np.asarray(features, dtype=np.float64),
            new_labels=(
                None
                if payload.get("new_labels") is None
                else np.asarray(payload["new_labels"], dtype=np.int64)
            ),
        )


# ----------------------------------------------------------------------
# Applying a delta
# ----------------------------------------------------------------------
def _splice_rows(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    replaced: Dict[int, Tuple[np.ndarray, np.ndarray]],
    num_rows_new: int,
    num_cols_new: int,
) -> sp.csr_matrix:
    """A CSR with some rows replaced (and optionally appended), bulk-copied.

    ``replaced`` maps row id → ``(indices, data)`` for that row; rows not
    mentioned are copied verbatim in large contiguous slices, so the cost
    is one memcpy over the untouched region plus Python work proportional
    to the number of replaced rows only.
    """
    num_rows_old = len(indptr) - 1
    lengths = np.zeros(num_rows_new, dtype=np.int64)
    lengths[:num_rows_old] = np.diff(indptr)
    for row, (row_indices, _) in replaced.items():
        lengths[row] = len(row_indices)
    new_indptr = np.zeros(num_rows_new + 1, dtype=indptr.dtype)
    np.cumsum(lengths, out=new_indptr[1:])
    nnz = int(new_indptr[-1])
    new_indices = np.empty(nnz, dtype=indices.dtype)
    new_data = np.empty(nnz, dtype=data.dtype)

    prev = 0
    for row in sorted(replaced):
        # Bulk-copy the untouched stretch [prev, row).
        stop = min(row, num_rows_old)
        if stop > prev:
            src_lo, src_hi = indptr[prev], indptr[stop]
            dst_lo = new_indptr[prev]
            new_indices[dst_lo : dst_lo + (src_hi - src_lo)] = indices[src_lo:src_hi]
            new_data[dst_lo : dst_lo + (src_hi - src_lo)] = data[src_lo:src_hi]
        row_indices, row_data = replaced[row]
        dst_lo = new_indptr[row]
        new_indices[dst_lo : dst_lo + len(row_indices)] = row_indices
        new_data[dst_lo : dst_lo + len(row_indices)] = row_data
        prev = row + 1
    if prev < num_rows_old:
        src_lo, src_hi = indptr[prev], indptr[num_rows_old]
        dst_lo = new_indptr[prev]
        new_indices[dst_lo : dst_lo + (src_hi - src_lo)] = indices[src_lo:src_hi]
        new_data[dst_lo : dst_lo + (src_hi - src_lo)] = data[src_lo:src_hi]

    # Appended rows not in ``replaced`` have length zero, so every slot
    # of the output arrays is now written.
    return sp.csr_matrix(
        (new_data, new_indices, new_indptr),
        shape=(num_rows_new, num_cols_new),
        copy=False,
    )


def _insert_sorted(row: np.ndarray, value: int) -> np.ndarray:
    pos = int(np.searchsorted(row, value))
    return np.concatenate([row[:pos], np.asarray([value], dtype=row.dtype), row[pos:]])


def _row_gather(adjacency: sp.csr_matrix, rows: np.ndarray) -> np.ndarray:
    """All column indices of ``rows`` (with repeats), fully vectorized."""
    starts = adjacency.indptr[rows]
    counts = adjacency.indptr[rows + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=adjacency.indices.dtype)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        np.concatenate([[0], np.cumsum(counts)[:-1]]), counts
    )
    return adjacency.indices[np.repeat(starts, counts) + offsets]


def apply_delta(graph: Graph, delta: GraphDelta) -> Graph:
    """The post-delta graph, with the cached ``Â`` updated incrementally.

    Pure: ``graph`` is never mutated, so engines can keep references to
    the pre-delta state (versioned serving depends on this).  When the
    input graph has a cached normalized adjacency, the result carries an
    incrementally-maintained one — bitwise identical to
    ``gcn_normalize`` on the updated adjacency (cast to the cache's
    dtype) — at a cost proportional to the edited region, not the graph.
    When there is no cache, normalization stays lazy.
    """
    added, removed = delta.validate(graph)
    n = graph.num_nodes
    k = delta.num_new_nodes
    total = n + k
    adjacency = graph.adjacency

    dirty = delta.dirty_nodes(n)
    if len(dirty) == 0:
        # Empty delta: an identical copy sharing every array.
        clone = Graph._unchecked(
            adjacency, graph.features, graph.labels,
            graph.train_index, graph.val_index, graph.test_index, graph.name,
        )
        clone._normalized = graph._normalized
        return clone

    # Per-dirty-node edits: removals then additions, kept sorted.
    add_map: Dict[int, List[int]] = {}
    rem_map: Dict[int, List[int]] = {}
    for u, v in added:
        add_map.setdefault(int(u), []).append(int(v))
        add_map.setdefault(int(v), []).append(int(u))
    for u, v in removed:
        rem_map.setdefault(int(u), []).append(int(v))
        rem_map.setdefault(int(v), []).append(int(u))

    new_rows: Dict[int, np.ndarray] = {}
    for node in dirty:
        node = int(node)
        if node < n:
            row = adjacency.indices[adjacency.indptr[node] : adjacency.indptr[node + 1]]
            row = row.astype(np.int64, copy=True)
        else:
            row = np.empty(0, dtype=np.int64)
        drops = rem_map.get(node)
        if drops:
            row = np.setdiff1d(row, np.asarray(drops, dtype=np.int64), assume_unique=True)
        adds = add_map.get(node)
        if adds:
            row = np.union1d(row, np.asarray(adds, dtype=np.int64))
        new_rows[node] = row

    replaced_adj = {
        node: (row, np.ones(len(row), dtype=adjacency.data.dtype))
        for node, row in new_rows.items()
    }
    new_adjacency = _splice_rows(
        adjacency.indptr, adjacency.indices, adjacency.data, replaced_adj, total, total
    )

    # ------------------------------------------------------------------
    # Incremental Â maintenance
    # ------------------------------------------------------------------
    normalized = graph._normalized
    new_normalized = None
    if normalized is not None:
        new_normalized = _update_normalized(
            normalized, adjacency, new_adjacency, dirty, new_rows, n, total
        )

    # ------------------------------------------------------------------
    # Features / labels / splits
    # ------------------------------------------------------------------
    features = graph.features
    labels = graph.labels
    if k:
        extra = delta.new_features
        if sp.issparse(features):
            if not sp.issparse(extra):
                extra = sp.csr_matrix(extra)
            extra = extra.astype(features.dtype)
            features = sp.vstack([features, extra]).tocsr()
            features.sort_indices()
        else:
            if sp.issparse(extra):
                extra = extra.toarray()
            features = np.vstack([features, np.asarray(extra, dtype=features.dtype)])
        new_labels = (
            delta.new_labels
            if delta.new_labels is not None
            else np.zeros(k, dtype=np.int64)
        )
        labels = np.concatenate([labels, new_labels])

    result = Graph._unchecked(
        new_adjacency, features, labels,
        graph.train_index, graph.val_index, graph.test_index, graph.name,
    )
    result._normalized = new_normalized
    return result


def _update_normalized(
    normalized: sp.csr_matrix,
    old_adjacency: sp.csr_matrix,
    new_adjacency: sp.csr_matrix,
    dirty: np.ndarray,
    new_rows: Dict[int, np.ndarray],
    n: int,
    total: int,
) -> sp.csr_matrix:
    """Incrementally updated ``Â`` for the edited adjacency.

    Every entry of ``Â`` is ``(1.0 · inv_sqrt[row]) · inv_sqrt[col]``
    with ``inv_sqrt = 1/√(degree + 1)``, so only three kinds of entries
    change: the full rows of dirty nodes (their degree changed), the
    dirty-column entries of their clean neighbors' rows, and the rows of
    appended nodes.  All are recomputed at float64 with exactly the
    :func:`gcn_normalize` expression and cast to the cache's dtype,
    keeping the incremental matrix bitwise equal to a from-scratch
    normalization.
    """
    dtype = normalized.dtype
    degrees = np.zeros(total, dtype=np.float64)
    degrees[:n] = np.diff(old_adjacency.indptr)
    for node, row in new_rows.items():
        degrees[node] = len(row)
    inv_sqrt = 1.0 / np.sqrt(degrees + 1.0)

    def row_values(node: int, cols: np.ndarray) -> np.ndarray:
        values = (1.0 * inv_sqrt[node]) * inv_sqrt[cols]
        return values.astype(dtype, copy=False)

    # Clean rows adjacent to a dirty node: rescale only the dirty-column
    # entries in place (on a copied data array — the input is shared).
    data = normalized.data.copy()
    neighbor_union = (
        np.unique(np.concatenate([row for row in new_rows.values()]))
        if new_rows
        else np.empty(0, np.int64)
    )
    affected_clean = np.setdiff1d(neighbor_union, dirty, assume_unique=False)
    if len(affected_clean):
        starts = normalized.indptr[affected_clean]
        counts = normalized.indptr[affected_clean + 1] - starts
        keep = counts > 0
        starts, counts = starts[keep], counts[keep]
        rows_expanded = np.repeat(affected_clean[keep], counts)
        offsets = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(
            np.concatenate([[0], np.cumsum(counts)[:-1]]), counts
        )
        positions = np.repeat(starts, counts) + offsets
        cols = normalized.indices[positions]
        hits = np.searchsorted(dirty, cols)
        hits_ok = (hits < len(dirty)) & (dirty[np.minimum(hits, len(dirty) - 1)] == cols)
        positions = positions[hits_ok]
        if len(positions):
            vals = (1.0 * inv_sqrt[rows_expanded[hits_ok]]) * inv_sqrt[
                normalized.indices[positions]
            ]
            data[positions] = vals.astype(dtype, copy=False)

    # Dirty rows (and appended rows): rebuilt outright from the new
    # adjacency structure plus the self loop.
    replaced: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    for node, row in new_rows.items():
        with_loop = _insert_sorted(row, node)
        replaced[node] = (with_loop, row_values(node, with_loop))

    return _splice_rows(
        normalized.indptr, normalized.indices, data, replaced, total, total
    )


# ----------------------------------------------------------------------
# k-hop closure (serving invalidation)
# ----------------------------------------------------------------------
def k_hop_rows(
    adjacencies: Sequence[sp.csr_matrix], seeds: np.ndarray, hops: int
) -> np.ndarray:
    """Nodes within ``hops`` edges of ``seeds`` in *any* given adjacency.

    The serving layer passes the pre- and post-delta adjacencies: a row's
    logits can depend on a removed edge through the old structure and on
    an added edge through the new one, so the invalidation closure must
    cover both.  Seeds beyond an adjacency's node count (appended nodes
    against the pre-delta structure) are skipped for that adjacency.
    """
    seeds = np.unique(np.asarray(seeds, dtype=np.int64))
    if len(seeds) == 0 or hops <= 0:
        return seeds
    size = max(adjacency.shape[0] for adjacency in adjacencies) if adjacencies else 0
    size = max(size, int(seeds[-1]) + 1)
    visited = np.zeros(size, dtype=bool)
    visited[seeds] = True
    frontier = seeds
    for _ in range(hops):
        reached = []
        for adjacency in adjacencies:
            inside = frontier[frontier < adjacency.shape[0]]
            if len(inside):
                reached.append(_row_gather(adjacency, inside))
        if not reached:
            break
        neighbors = np.concatenate(reached)
        fresh = neighbors[~visited[neighbors]]
        if len(fresh) == 0:
            break
        visited[fresh] = True
        frontier = np.unique(fresh)
    return np.flatnonzero(visited).astype(np.int64)


# ----------------------------------------------------------------------
# Replayable delta sequences
# ----------------------------------------------------------------------
class DeltaLog:
    """An ordered, replayable, JSONL-serializable sequence of deltas."""

    def __init__(self, deltas: Sequence[GraphDelta] = ()):
        self.deltas: List[GraphDelta] = list(deltas)

    def append(self, delta: GraphDelta) -> "DeltaLog":
        self.deltas.append(delta)
        return self

    def __len__(self) -> int:
        return len(self.deltas)

    def __iter__(self):
        return iter(self.deltas)

    def __getitem__(self, index: int) -> GraphDelta:
        return self.deltas[index]

    def replay(self, graph: Graph) -> Graph:
        """Fold every delta over ``graph`` (left to right)."""
        for delta in self.deltas:
            graph = apply_delta(graph, delta)
        return graph

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        with open(path, "w", encoding="utf-8") as handle:
            for delta in self.deltas:
                handle.write(json.dumps(delta.to_json(), separators=(",", ":")) + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "DeltaLog":
        log = cls()
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    log.append(GraphDelta.from_json(json.loads(line)))
        return log
