"""Tests for graph statistics and single random walks."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import batch_random_walks, edge_homophily, summarize
from repro.graph.graph import build_adjacency


class TestStats:
    def test_edge_homophily_all_same(self):
        adj = build_adjacency(4, np.array([[0, 1], [2, 3]]))
        labels = np.array([0, 0, 1, 1])
        assert edge_homophily(adj, labels) == 1.0

    def test_edge_homophily_mixed(self):
        adj = build_adjacency(4, np.array([[0, 1], [1, 2]]))
        labels = np.array([0, 0, 1, 1])
        assert edge_homophily(adj, labels) == pytest.approx(0.5)

    def test_edge_homophily_empty_graph(self):
        adj = build_adjacency(3, np.empty((0, 2), dtype=np.int64))
        assert edge_homophily(adj, np.zeros(3, dtype=int)) == 0.0

    def test_summarize(self, tiny_graph):
        stats = summarize(tiny_graph)
        assert stats.num_nodes == tiny_graph.num_nodes
        assert stats.num_classes == 2
        assert 0.0 <= stats.edge_homophily <= 1.0
        assert stats.label_rate == pytest.approx(tiny_graph.label_rate)
        assert set(stats.as_dict()) >= {"num_nodes", "edge_homophily"}


def random_walk(adjacency, start, length, rng):
    """One walk through the batch walker, trailing stall repeats dropped."""
    path = batch_random_walks(adjacency, np.array([start]), length, rng)[0]
    moved = np.concatenate([[True], path[1:] != path[:-1]])
    return path[moved]


class TestWalks:
    def _line(self, n=5):
        return build_adjacency(n, np.array([[i, i + 1] for i in range(n - 1)]))

    def test_walk_length(self, rng):
        path = random_walk(self._line(), start=2, length=4, rng=rng)
        assert len(path) == 5
        assert path[0] == 2

    def test_walk_steps_follow_edges(self, rng):
        adj = self._line()
        path = random_walk(adj, start=0, length=10, rng=rng)
        for a, b in zip(path[:-1], path[1:]):
            assert adj[a, b] == 1.0

    def test_walk_stops_at_isolated_node(self, rng):
        adj = build_adjacency(3, np.array([[0, 1]]))
        path = random_walk(adj, start=2, length=5, rng=rng)
        np.testing.assert_array_equal(path, [2])

    def test_negative_length_raises(self, rng):
        with pytest.raises(GraphError):
            random_walk(self._line(), 0, -1, rng)
