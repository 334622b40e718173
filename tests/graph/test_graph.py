"""Tests for the Graph container and adjacency construction."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import GraphError
from repro.graph import Graph, build_adjacency


def simple_graph():
    adjacency = build_adjacency(6, np.array([[0, 1], [1, 2], [3, 4], [4, 5], [2, 3]]))
    features = np.eye(6)
    labels = np.array([0, 0, 0, 1, 1, 1])
    return Graph(
        adjacency, features, labels,
        train_index=np.array([0]),
        val_index=np.array([1, 4]),
        test_index=np.array([2, 5]),
    )


class TestBuildAdjacency:
    def test_symmetric_binary(self):
        adj = build_adjacency(3, np.array([[0, 1], [1, 2]]))
        dense = adj.toarray()
        np.testing.assert_allclose(dense, dense.T)
        assert set(np.unique(dense)) <= {0.0, 1.0}

    def test_drops_self_loops(self):
        adj = build_adjacency(3, np.array([[0, 0], [0, 1]]))
        assert adj.diagonal().sum() == 0
        assert adj.nnz == 2

    def test_collapses_duplicates(self):
        adj = build_adjacency(3, np.array([[0, 1], [1, 0], [0, 1]]))
        assert adj.nnz == 2
        assert adj[0, 1] == 1.0

    def test_rejects_bad_shape(self):
        with pytest.raises(GraphError):
            build_adjacency(3, np.array([0, 1, 2]))


class TestGraphValidation:
    def test_valid_graph_constructs(self):
        g = simple_graph()
        assert g.num_nodes == 6
        assert g.num_edges == 5
        assert g.num_features == 6
        assert g.num_classes == 2

    def test_rejects_asymmetric_adjacency(self):
        adj = sp.csr_matrix(np.triu(np.ones((3, 3)), k=1))
        with pytest.raises(GraphError):
            Graph(adj, np.eye(3), np.zeros(3, dtype=int),
                  np.array([0]), np.array([1]), np.array([2]))

    def test_rejects_self_loops(self):
        adj = sp.csr_matrix(np.eye(3))
        with pytest.raises(GraphError):
            Graph(adj, np.eye(3), np.zeros(3, dtype=int),
                  np.array([0]), np.array([1]), np.array([2]))

    def test_rejects_feature_row_mismatch(self):
        adj = build_adjacency(3, np.array([[0, 1], [1, 2]]))
        with pytest.raises(GraphError):
            Graph(adj, np.eye(4), np.zeros(3, dtype=int),
                  np.array([0]), np.array([1]), np.array([2]))

    def test_rejects_overlapping_splits(self):
        adj = build_adjacency(3, np.array([[0, 1], [1, 2]]))
        with pytest.raises(GraphError):
            Graph(adj, np.eye(3), np.zeros(3, dtype=int),
                  np.array([0]), np.array([0]), np.array([2]))

    def test_rejects_duplicate_index(self):
        adj = build_adjacency(4, np.array([[0, 1], [1, 2], [2, 3]]))
        with pytest.raises(GraphError):
            Graph(adj, np.eye(4), np.zeros(4, dtype=int),
                  np.array([0, 0]), np.array([1]), np.array([2]))

    def test_rejects_out_of_range_index(self):
        adj = build_adjacency(3, np.array([[0, 1], [1, 2]]))
        with pytest.raises(GraphError):
            Graph(adj, np.eye(3), np.zeros(3, dtype=int),
                  np.array([7]), np.array([1]), np.array([2]))


class TestGraphProperties:
    def test_label_rate(self):
        g = simple_graph()
        assert g.label_rate == pytest.approx(1 / 6)

    def test_degrees(self):
        g = simple_graph()
        np.testing.assert_allclose(g.degrees(), [1, 2, 2, 2, 2, 1])

    def test_edge_list_upper_triangle(self):
        g = simple_graph()
        src, dst = g.edge_list()
        assert len(src) == g.num_edges
        assert np.all(src < dst)

    def test_directed_edge_list_with_self_loops(self):
        g = simple_graph()
        src, dst = g.directed_edge_list(self_loops=True)
        assert len(src) == 2 * g.num_edges + g.num_nodes

    def test_normalized_adjacency_cached(self):
        g = simple_graph()
        assert g.normalized_adjacency() is g.normalized_adjacency()

    def test_pagerank_cached_and_normalized(self):
        g = simple_graph()
        pr = g.pagerank()
        assert pr.sum() == pytest.approx(1.0)
        assert g.pagerank() is pr

    def test_float32_parts_normalize_to_float32(self):
        """A graph built from float32 parts, a subgraph of one and a
        lazily normalized post-delta graph all propagate in float32."""
        from repro.graph import DeltaLog, GraphDelta, gcn_normalize, induced_subgraph

        g = simple_graph()
        g32 = Graph(g.adjacency, g.features.astype(np.float32), g.labels,
                    g.train_index, g.val_index, g.test_index)
        sub, _ = induced_subgraph(g32, np.array([0, 1, 2, 3]))
        log = DeltaLog([GraphDelta(added_edges=[[0, 5]])])
        for graph in (g32, sub, log.replay(g32)):
            assert graph._normalized is None
            normalized = graph.normalized_adjacency()
            assert normalized.dtype == np.float32
            expected = gcn_normalize(graph.adjacency).astype(np.float32)
            assert (normalized != expected).nnz == 0

    def test_float64_normalization_is_unchanged(self):
        """Float64 graphs, and float32 graphs cast up to float64, still get
        the exact float64 normalization."""
        from repro.graph import gcn_normalize

        g = simple_graph()
        g32 = Graph(g.adjacency, g.features.astype(np.float32), g.labels,
                    g.train_index, g.val_index, g.test_index)
        expected = gcn_normalize(g.adjacency)
        for graph in (g, g32.astype(np.float64)):
            normalized = graph.normalized_adjacency()
            assert normalized.dtype == np.float64
            np.testing.assert_array_equal(normalized.indptr, expected.indptr)
            np.testing.assert_array_equal(normalized.indices, expected.indices)
            assert normalized.data.tobytes() == expected.data.tobytes()

    def test_repr_mentions_name_and_counts(self):
        text = repr(simple_graph())
        assert "graph" in text and "nodes=6" in text


class TestWithSplit:
    def test_changes_train_keeps_rest(self):
        g = simple_graph()
        g2 = g.with_split(np.array([0, 3]))
        assert len(g2.train_index) == 2
        np.testing.assert_array_equal(g2.val_index, g.val_index)
        np.testing.assert_array_equal(g2.test_index, g.test_index)

    def test_carries_cached_artifacts(self):
        g = simple_graph()
        norm = g.normalized_adjacency()
        g2 = g.with_split(np.array([0]))
        assert g2.normalized_adjacency() is norm

    def test_rejects_overlap_with_val(self):
        g = simple_graph()
        with pytest.raises(GraphError):
            g.with_split(np.array([1]))  # 1 is in val
