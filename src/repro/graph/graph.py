"""The :class:`Graph` container used throughout the library.

A graph bundles the adjacency structure (scipy sparse, undirected), node
features (dense ndarray or sparse matrix), integer labels, and the
train/validation/test split index arrays.  It also caches derived
artifacts that many consumers need: the GCN-normalized adjacency, the edge
list, and PageRank scores.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.errors import GraphError

Features = Union[np.ndarray, sp.spmatrix]


class Graph:
    """An attributed, labeled, undirected graph with a data split.

    Parameters
    ----------
    adjacency:
        Symmetric sparse matrix with zero diagonal; nonzero entries are
        edges (values are ignored, structure only).
    features:
        ``(num_nodes, num_features)`` node feature matrix (dense or sparse).
    labels:
        Integer class labels, shape ``(num_nodes,)``.
    train_index / val_index / test_index:
        Disjoint node index arrays defining the semi-supervised split.
    name:
        Optional dataset name for reporting.
    """

    def __init__(
        self,
        adjacency: sp.spmatrix,
        features: Features,
        labels: np.ndarray,
        train_index: np.ndarray,
        val_index: np.ndarray,
        test_index: np.ndarray,
        name: str = "graph",
    ):
        adjacency = sp.csr_matrix(adjacency)
        adjacency.sort_indices()
        if sp.issparse(features):
            # Canonicalize: CSR index order affects floating-point
            # summation, so unsorted indices would make otherwise-equal
            # graphs train to different results.
            features = sp.csr_matrix(features)
            features.sort_indices()
        labels = np.asarray(labels, dtype=np.int64)
        num_nodes = adjacency.shape[0]
        if adjacency.shape[0] != adjacency.shape[1]:
            raise GraphError(f"adjacency must be square, got {adjacency.shape}")
        if features.shape[0] != num_nodes:
            raise GraphError(
                f"features have {features.shape[0]} rows but graph has {num_nodes} nodes"
            )
        if labels.shape != (num_nodes,):
            raise GraphError(f"labels must have shape ({num_nodes},), got {labels.shape}")
        if (abs(adjacency - adjacency.T) > 1e-10).nnz != 0:
            raise GraphError("adjacency must be symmetric (undirected graph)")
        if adjacency.diagonal().any():
            raise GraphError("adjacency must have a zero diagonal (no self loops stored)")

        self.adjacency = adjacency
        self.features = features
        self.labels = labels
        self.train_index = _check_index(train_index, num_nodes, "train")
        self.val_index = _check_index(val_index, num_nodes, "val")
        self.test_index = _check_index(test_index, num_nodes, "test")
        _check_disjoint(self.train_index, self.val_index, self.test_index)
        self.name = name

        self._normalized: Optional[sp.csr_matrix] = None
        self._edges: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._pagerank: Optional[np.ndarray] = None

    @classmethod
    def _unchecked(
        cls,
        adjacency: sp.csr_matrix,
        features: Features,
        labels: np.ndarray,
        train_index: np.ndarray,
        val_index: np.ndarray,
        test_index: np.ndarray,
        name: str = "graph",
    ) -> "Graph":
        """Assemble a Graph from already-canonical parts, skipping validation.

        For internal producers (``apply_delta``) whose outputs are
        canonical by construction: ``adjacency`` must be CSR with sorted
        indices, symmetric, zero-diagonal; sparse ``features`` must be
        CSR with sorted indices.  Revalidating would cost O(nnz) per
        delta — the very thing incremental updates avoid.
        """
        graph = cls.__new__(cls)
        graph.adjacency = adjacency
        graph.features = features
        graph.labels = labels
        graph.train_index = train_index
        graph.val_index = val_index
        graph.test_index = test_index
        graph.name = name
        graph._normalized = None
        graph._edges = None
        graph._pagerank = None
        return graph

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self.adjacency.nnz // 2

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1

    @property
    def label_rate(self) -> float:
        """Fraction of nodes whose labels are visible during training."""
        return len(self.train_index) / self.num_nodes

    def degrees(self) -> np.ndarray:
        """Node degrees (without self loops)."""
        return np.asarray(self.adjacency.sum(axis=1)).ravel()

    # ------------------------------------------------------------------
    # Cached derived artifacts
    # ------------------------------------------------------------------
    def normalized_adjacency(self) -> sp.csr_matrix:
        """GCN propagation matrix ``D̂^{-1/2} (A + I) D̂^{-1/2}`` (cached).

        Normalized at float64, then cast to the features' float dtype:
        ``Â`` multiplies activations of that dtype in every forward.
        """
        if self._normalized is None:
            from repro.graph.normalize import gcn_normalize

            normalized = gcn_normalize(self.adjacency)
            if np.issubdtype(self.features.dtype, np.floating):
                normalized = normalized.astype(self.features.dtype, copy=False)
            self._normalized = normalized
        return self._normalized

    def edge_list(self) -> Tuple[np.ndarray, np.ndarray]:
        """Unique undirected edges as ``(src, dst)`` arrays with src < dst."""
        if self._edges is None:
            coo = sp.triu(self.adjacency, k=1).tocoo()
            self._edges = (coo.row.astype(np.int64), coo.col.astype(np.int64))
        return self._edges

    def directed_edge_list(self, self_loops: bool = False) -> Tuple[np.ndarray, np.ndarray]:
        """Both edge directions (plus optional self loops), for attention layers."""
        coo = self.adjacency.tocoo()
        src = coo.row.astype(np.int64)
        dst = coo.col.astype(np.int64)
        if self_loops:
            loops = np.arange(self.num_nodes, dtype=np.int64)
            src = np.concatenate([src, loops])
            dst = np.concatenate([dst, loops])
        return src, dst

    def pagerank(self) -> np.ndarray:
        """PageRank scores at the classical damping 0.85 (cached)."""
        from repro.graph.pagerank import pagerank

        if self._pagerank is None:
            self._pagerank = pagerank(self.adjacency)
        return self._pagerank

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def with_split(self, train_index: np.ndarray) -> "Graph":
        """A view of this graph with a different training set.

        Validation and test sets are kept.  Cached artifacts
        (normalization, PageRank) are carried over since they only
        depend on the structure.
        """
        clone = Graph(
            self.adjacency,
            self.features,
            self.labels,
            train_index,
            self.val_index,
            self.test_index,
            name=self.name,
        )
        clone._normalized = self._normalized
        clone._edges = self._edges
        clone._pagerank = self._pagerank
        return clone

    def astype(self, dtype) -> "Graph":
        """A copy of this graph with features (and cached normalized
        adjacency) cast to ``dtype``.

        The raw adjacency keeps float64 structure values (they are binary
        indicators); the *normalized* adjacency — the matrix that actually
        multiplies activations in every forward pass — is cast, so GCN
        compute runs fully in ``dtype``.  A no-op returns ``self``.
        """
        dtype = np.dtype(dtype)
        if self.features.dtype == dtype and self.normalized_adjacency().dtype == dtype:
            return self
        clone = Graph(
            self.adjacency,
            self.features.astype(dtype),
            self.labels,
            self.train_index,
            self.val_index,
            self.test_index,
            name=self.name,
        )
        if self._normalized is None:
            # Normalize afresh rather than through this graph's dtype,
            # so a float32 graph cast to float64 gets an exact float64 Â.
            clone.normalized_adjacency()
        else:
            clone._normalized = self._normalized.astype(dtype)
        clone._edges = self._edges
        clone._pagerank = self._pagerank
        return clone

    def __repr__(self) -> str:
        return (
            f"Graph(name={self.name!r}, nodes={self.num_nodes}, edges={self.num_edges}, "
            f"features={self.num_features}, classes={self.num_classes}, "
            f"split={len(self.train_index)}/{len(self.val_index)}/{len(self.test_index)})"
        )


def graph_fingerprint(graph: Graph) -> dict:
    """Structural identity of a graph: counts plus an adjacency digest.

    The digest covers the CSR structure arrays only, so it is invariant
    under dtype casts (:meth:`Graph.astype`) but changes whenever an edge
    moves — the property serving needs to refuse wrong-graph artifacts.
    """
    adjacency = graph.adjacency
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(adjacency.indptr).tobytes())
    digest.update(np.ascontiguousarray(adjacency.indices).tobytes())
    return {
        "name": graph.name,
        "num_nodes": int(graph.num_nodes),
        "num_edges": int(graph.num_edges),
        "num_features": int(graph.num_features),
        "num_classes": int(graph.num_classes),
        "structure_sha256": digest.hexdigest(),
    }


def _check_index(index: np.ndarray, num_nodes: int, name: str) -> np.ndarray:
    index = np.asarray(index, dtype=np.int64)
    if index.ndim != 1:
        raise GraphError(f"{name} index must be 1-D, got shape {index.shape}")
    if len(np.unique(index)) != len(index):
        raise GraphError(f"{name} index contains duplicates")
    if len(index) and (index.min() < 0 or index.max() >= num_nodes):
        raise GraphError(f"{name} index out of range for {num_nodes} nodes")
    return index


def _check_disjoint(train: np.ndarray, val: np.ndarray, test: np.ndarray) -> None:
    if np.intersect1d(train, val).size or np.intersect1d(train, test).size or np.intersect1d(val, test).size:
        raise GraphError("train/val/test index sets must be pairwise disjoint")


def build_adjacency(num_nodes: int, edges: np.ndarray) -> sp.csr_matrix:
    """Build a symmetric binary adjacency from an ``(m, 2)`` edge array.

    Self loops and duplicate edges are dropped.
    """
    edges = np.asarray(edges, dtype=np.int64)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise GraphError(f"edges must have shape (m, 2), got {edges.shape}")
    mask = edges[:, 0] != edges[:, 1]
    edges = edges[mask]
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    data = np.ones(len(rows), dtype=np.float64)
    adjacency = sp.csr_matrix((data, (rows, cols)), shape=(num_nodes, num_nodes))
    adjacency.data[:] = 1.0  # collapse duplicates to binary
    adjacency.setdiag(0.0)
    adjacency.eliminate_zeros()
    return adjacency
