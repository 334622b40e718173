"""Tests for the vectorized batch random-walk sampler."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import batch_random_walks, build_adjacency


def line_graph(n=6):
    return build_adjacency(n, np.array([[i, i + 1] for i in range(n - 1)]))


class TestBatchRandomWalks:
    def test_shape(self, rng):
        walks = batch_random_walks(line_graph(), np.array([0, 2, 4]), 5, rng)
        assert walks.shape == (3, 6)

    def test_starts_preserved(self, rng):
        starts = np.array([1, 3, 5])
        walks = batch_random_walks(line_graph(), starts, 4, rng)
        np.testing.assert_array_equal(walks[:, 0], starts)

    def test_steps_follow_edges(self, rng):
        adj = line_graph(8)
        walks = batch_random_walks(adj, np.arange(8), 6, rng)
        for row in walks:
            for a, b in zip(row[:-1], row[1:]):
                assert a == b or adj[a, b] == 1.0

    def test_isolated_node_stalls(self, rng):
        adj = build_adjacency(3, np.array([[0, 1]]))
        walks = batch_random_walks(adj, np.array([2]), 4, rng)
        np.testing.assert_array_equal(walks[0], [2, 2, 2, 2, 2])

    def test_matches_per_node_walk_distribution(self):
        # Steps choose uniformly among neighbors, as a per-node walk
        # does: from the center of a star, each leaf is equally likely.
        adj = build_adjacency(5, np.array([[0, 1], [0, 2], [0, 3], [0, 4]]))
        rng = np.random.default_rng(0)
        walks = batch_random_walks(adj, np.zeros(4000, dtype=np.int64), 1, rng)
        counts = np.bincount(walks[:, 1], minlength=5)[1:]
        assert counts.min() > 800  # ~1000 each

    def test_negative_length_rejected(self, rng):
        with pytest.raises(GraphError):
            batch_random_walks(line_graph(), np.array([0]), -1, rng)

    def test_zero_length(self, rng):
        walks = batch_random_walks(line_graph(), np.array([2]), 0, rng)
        np.testing.assert_array_equal(walks, [[2]])
