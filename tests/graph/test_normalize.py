"""Tests for adjacency and feature normalizations."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import GraphError
from repro.graph import add_self_loops, gcn_normalize, row_normalize, row_normalize_features
from repro.graph.graph import build_adjacency


def path_graph(n=4):
    edges = np.array([[i, i + 1] for i in range(n - 1)])
    return build_adjacency(n, edges)


class TestAddSelfLoops:
    def test_adds_identity(self):
        adj = path_graph()
        tilde = add_self_loops(adj)
        np.testing.assert_allclose(tilde.diagonal(), np.ones(4))


class TestGcnNormalize:
    def test_symmetric_output(self):
        norm = gcn_normalize(path_graph()).toarray()
        np.testing.assert_allclose(norm, norm.T)

    def test_matches_closed_form(self):
        adj = path_graph(3)
        tilde = adj.toarray() + np.eye(3)
        degrees = tilde.sum(axis=1)
        expected = tilde / np.sqrt(np.outer(degrees, degrees))
        np.testing.assert_allclose(gcn_normalize(adj).toarray(), expected)

    def test_spectral_radius_at_most_one(self):
        norm = gcn_normalize(path_graph(8)).toarray()
        eigenvalues = np.linalg.eigvalsh(norm)
        assert eigenvalues.max() <= 1.0 + 1e-10

    def test_handles_isolated_node_via_self_loop(self):
        adj = sp.csr_matrix((3, 3))
        norm = gcn_normalize(adj)
        np.testing.assert_allclose(norm.toarray(), np.eye(3))


class TestRowNormalize:
    def test_rows_sum_to_one(self):
        norm = row_normalize(path_graph())
        np.testing.assert_allclose(np.asarray(norm.sum(axis=1)).ravel(), np.ones(4))

    def test_without_self_loops(self):
        norm = row_normalize(path_graph(), self_loops=False)
        assert norm.diagonal().sum() == 0
        np.testing.assert_allclose(np.asarray(norm.sum(axis=1)).ravel(), np.ones(4))


class TestRowNormalizeFeatures:
    def test_dense(self):
        features = np.array([[2.0, 2.0], [1.0, 3.0]])
        out = row_normalize_features(features)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(2))

    def test_sparse_preserves_type(self):
        features = sp.csr_matrix(np.array([[2.0, 0.0], [1.0, 1.0]]))
        out = row_normalize_features(features)
        assert sp.issparse(out)
        np.testing.assert_allclose(np.asarray(out.sum(axis=1)).ravel(), np.ones(2))

    def test_zero_row_left_zero(self):
        features = np.array([[0.0, 0.0], [1.0, 1.0]])
        out = row_normalize_features(features)
        np.testing.assert_allclose(out[0], [0.0, 0.0])

    def test_does_not_mutate_input(self):
        features = np.array([[2.0, 2.0]])
        row_normalize_features(features)
        np.testing.assert_allclose(features, [[2.0, 2.0]])
