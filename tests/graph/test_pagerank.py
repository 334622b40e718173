"""Tests for PageRank against networkx and analytic cases."""

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import GraphError
from repro.graph import pagerank
from repro.graph.graph import build_adjacency


class TestPagerank:
    def test_sums_to_one(self):
        adj = build_adjacency(5, np.array([[0, 1], [1, 2], [2, 3], [3, 4]]))
        assert pagerank(adj).sum() == pytest.approx(1.0)

    def test_uniform_on_symmetric_cycle(self):
        n = 6
        edges = np.array([[i, (i + 1) % n] for i in range(n)])
        adj = build_adjacency(n, edges)
        np.testing.assert_allclose(pagerank(adj), np.full(n, 1 / n), atol=1e-8)

    def test_matches_networkx(self):
        rng = np.random.default_rng(0)
        n = 30
        edges = rng.integers(0, n, size=(80, 2))
        adj = build_adjacency(n, edges)
        ours = pagerank(adj)
        graph = nx.from_scipy_sparse_array(adj)
        theirs = nx.pagerank(graph, alpha=0.85, tol=1e-12)
        expected = np.array([theirs[i] for i in range(n)])
        np.testing.assert_allclose(ours, expected, atol=1e-6)

    def test_hub_gets_highest_score(self):
        # Star graph: center connected to all leaves.
        edges = np.array([[0, i] for i in range(1, 8)])
        adj = build_adjacency(8, edges)
        scores = pagerank(adj)
        assert scores.argmax() == 0

    def test_dangling_nodes_handled(self):
        # Directed chain ending in a sink (dangling) node.
        adj = sp.csr_matrix(np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=float))
        scores = pagerank(adj)
        assert scores.sum() == pytest.approx(1.0)
        assert np.all(scores > 0)

    def test_empty_graph_raises(self):
        with pytest.raises(GraphError):
            pagerank(sp.csr_matrix((0, 0)))
