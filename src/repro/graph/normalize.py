"""Adjacency normalizations used by GCN-family models."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import GraphError


def add_self_loops(adjacency: sp.spmatrix) -> sp.csr_matrix:
    """Return ``A + I`` (paper's ``Ã``)."""
    adjacency = sp.csr_matrix(adjacency, dtype=np.float64)
    return (adjacency + sp.identity(adjacency.shape[0], format="csr")).tocsr()


def gcn_normalize(adjacency: sp.spmatrix) -> sp.csr_matrix:
    """Symmetric GCN normalization ``D̂^{-1/2} (A + I) D̂^{-1/2}`` (Eq. 1).

    Isolated nodes (degree zero even after self loops cannot happen, but
    zero-degree guards are kept for defensive robustness).
    """
    tilde = add_self_loops(adjacency)
    degrees = np.asarray(tilde.sum(axis=1)).ravel()
    if (degrees <= 0).any():
        raise GraphError("graph has a node with non-positive degree after adding self loops")
    inv_sqrt = sp.diags(1.0 / np.sqrt(degrees))
    return (inv_sqrt @ tilde @ inv_sqrt).tocsr()


def row_normalize(adjacency: sp.spmatrix, self_loops: bool = True) -> sp.csr_matrix:
    """Random-walk normalization ``D̂^{-1} Ã`` (used by propagation baselines)."""
    matrix = add_self_loops(adjacency) if self_loops else sp.csr_matrix(adjacency, dtype=np.float64)
    degrees = np.asarray(matrix.sum(axis=1)).ravel()
    degrees[degrees == 0] = 1.0  # isolated rows stay all-zero
    inv = sp.diags(1.0 / degrees)
    return (inv @ matrix).tocsr()


def row_normalize_features(features):
    """Row-normalize a feature matrix so each row sums to one.

    Standard preprocessing for bag-of-words citation features.  Accepts
    dense or sparse input and preserves the type.
    """
    if sp.issparse(features):
        features = sp.csr_matrix(features, dtype=np.float64)
        sums = np.asarray(features.sum(axis=1)).ravel()
        sums[sums == 0] = 1.0
        return (sp.diags(1.0 / sums) @ features).tocsr()
    features = np.asarray(features, dtype=np.float64)
    sums = features.sum(axis=1, keepdims=True)
    sums[sums == 0] = 1.0
    return features / sums
