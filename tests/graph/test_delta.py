"""Differential + property battery for streaming graph deltas.

Incremental sparse-matrix maintenance is exactly the kind of code that
rots silently — an off-by-one in a CSR splice or a float recomputed in a
different order produces answers that are *almost* right.  So the
contract here is absolute: after **any** generated sequence of deltas
(edge adds, edge removals, node appends, interleaved), the incrementally
maintained ``Â`` must be **bitwise identical** — same indptr, same
indices, same data bytes, atol 0 — to ``gcn_normalize`` run from scratch
on the updated adjacency, and every CSR invariant (sorted indices, no
explicit zeros, symmetry, zero diagonal) must hold after every step.

The generators are hypothesis-driven: a delta sequence is derived from a
seed + op script, built *against the evolving graph* so additions target
absent edges and removals target present ones.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph import (
    DeltaLog,
    Graph,
    GraphDelta,
    apply_delta,
    build_adjacency,
    gcn_normalize,
    k_hop_closures,
)

from ..conftest import make_two_block_graph


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def edge_set(graph: Graph) -> set:
    coo = sp.triu(graph.adjacency, k=1).tocoo()
    return set(zip(coo.row.tolist(), coo.col.tolist()))


def random_delta(graph: Graph, rng: np.random.Generator, allow_new_nodes: bool = True) -> GraphDelta:
    """A valid delta against ``graph``: removals of present edges,
    additions of absent ones (possibly touching appended nodes)."""
    n = graph.num_nodes
    present = sorted(edge_set(graph))
    num_removed = int(rng.integers(0, min(4, len(present)) + 1))
    removed_idx = rng.choice(len(present), size=num_removed, replace=False) if num_removed else []
    removed = [present[i] for i in removed_idx]

    num_new = int(rng.integers(0, 3)) if allow_new_nodes else 0
    total = n + num_new
    taken = set(removed) | edge_set(graph)
    added = []
    for _ in range(int(rng.integers(0, 5)) + (1 if num_new else 0)):
        for _attempt in range(30):
            u, v = int(rng.integers(0, total)), int(rng.integers(0, total))
            edge = (min(u, v), max(u, v))
            if u != v and edge not in taken:
                # Edges into brand-new nodes are always absent.
                if edge[1] >= n or edge not in edge_set(graph):
                    taken.add(edge)
                    added.append(edge)
                    break
    features = rng.random((num_new, graph.num_features)) if num_new else None
    if features is not None and sp.issparse(graph.features):
        features = sp.csr_matrix(features)
    labels = rng.integers(0, max(2, graph.num_classes), size=num_new) if num_new else None
    return GraphDelta(
        added_edges=np.asarray(added, dtype=np.int64).reshape(-1, 2),
        removed_edges=np.asarray(removed, dtype=np.int64).reshape(-1, 2),
        new_features=features,
        new_labels=labels,
    )


def assert_csr_invariants(matrix: sp.csr_matrix) -> None:
    assert isinstance(matrix, sp.csr_matrix)
    assert matrix.indices.dtype == matrix.indptr.dtype, "mixed index dtypes"
    assert matrix.indptr[0] == 0 and matrix.indptr[-1] == len(matrix.indices)
    assert np.all(np.diff(matrix.indptr) >= 0)
    for row in range(matrix.shape[0]):
        cols = matrix.indices[matrix.indptr[row] : matrix.indptr[row + 1]]
        assert np.all(np.diff(cols) > 0), f"row {row} has unsorted/duplicate indices"
    assert not np.any(matrix.data == 0), "explicit zeros stored"


def assert_bitwise_equal_csr(actual: sp.csr_matrix, expected: sp.csr_matrix) -> None:
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    np.testing.assert_array_equal(actual.indptr, expected.indptr)
    np.testing.assert_array_equal(actual.indices, expected.indices)
    assert actual.data.tobytes() == expected.data.tobytes(), (
        f"Â data differs; max |Δ| = {np.abs(actual.data - expected.data).max()}"
    )


# ----------------------------------------------------------------------
# The differential property: incremental Â == from-scratch Â, bitwise
# ----------------------------------------------------------------------
class TestDifferentialNormalization:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), steps=st.integers(1, 6))
    def test_incremental_equals_scratch_over_any_sequence(self, seed, steps):
        rng = np.random.default_rng(seed)
        graph = make_two_block_graph(seed=seed % 7)
        graph.normalized_adjacency()  # arm the incremental path
        for _ in range(steps):
            delta = random_delta(graph, rng)
            graph = apply_delta(graph, delta)
            assert_csr_invariants(graph.adjacency)
            assert (abs(graph.adjacency - graph.adjacency.T) > 0).nnz == 0
            assert not graph.adjacency.diagonal().any()
            assert graph._normalized is not None, "cache must be maintained"
            assert_csr_invariants(graph._normalized)
            assert_bitwise_equal_csr(graph._normalized, gcn_normalize(graph.adjacency))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_incremental_equals_scratch_float32(self, seed):
        rng = np.random.default_rng(seed)
        graph = make_two_block_graph(seed=1).astype(np.float32)
        assert graph._normalized.dtype == np.float32
        for _ in range(3):
            graph = apply_delta(graph, random_delta(graph, rng))
            expected = gcn_normalize(graph.adjacency).astype(np.float32)
            assert_bitwise_equal_csr(graph._normalized, expected)

    def test_scratch_adjacency_matches_build_adjacency(self):
        """The spliced CSR is exactly what build_adjacency would produce."""
        rng = np.random.default_rng(5)
        graph = make_two_block_graph(seed=2)
        for _ in range(4):
            graph = apply_delta(graph, random_delta(graph, rng))
        coo = sp.triu(graph.adjacency, k=1).tocoo()
        rebuilt = build_adjacency(graph.num_nodes, np.stack([coo.row, coo.col], axis=1))
        np.testing.assert_array_equal(graph.adjacency.indptr, rebuilt.indptr)
        np.testing.assert_array_equal(graph.adjacency.indices, rebuilt.indices)

    def test_lazy_graph_stays_lazy(self):
        """No cached Â on the input -> none is materialized on the output."""
        graph = make_two_block_graph()
        assert graph._normalized is None
        updated = apply_delta(graph, GraphDelta(added_edges=[[0, 59]])
                              if (0, 59) not in edge_set(graph)
                              else GraphDelta(removed_edges=[[0, 59]]))
        assert updated._normalized is None
        # ... and lazily normalizing afterwards matches scratch trivially.
        assert_bitwise_equal_csr(
            updated.normalized_adjacency(), gcn_normalize(updated.adjacency)
        )


class TestRoundTrip:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_add_then_remove_restores_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        graph = make_two_block_graph(seed=seed % 5)
        graph.normalized_adjacency()
        absent = [
            (u, v)
            for u in range(0, graph.num_nodes, 7)
            for v in range(u + 1, graph.num_nodes, 11)
            if (u, v) not in edge_set(graph)
        ]
        picks = rng.choice(len(absent), size=min(3, len(absent)), replace=False)
        edges = np.asarray([absent[i] for i in picks], dtype=np.int64)
        there = apply_delta(graph, GraphDelta(added_edges=edges))
        back = apply_delta(there, GraphDelta(removed_edges=edges))
        assert_bitwise_equal_csr(back.adjacency, graph.adjacency)
        assert_bitwise_equal_csr(back._normalized, graph._normalized)

    def test_remove_then_add_restores_bitwise(self):
        graph = make_two_block_graph(seed=3)
        graph.normalized_adjacency()
        edges = np.asarray(sorted(edge_set(graph))[:4], dtype=np.int64)
        gone = apply_delta(graph, GraphDelta(removed_edges=edges))
        back = apply_delta(gone, GraphDelta(added_edges=edges))
        assert_bitwise_equal_csr(back.adjacency, graph.adjacency)
        assert_bitwise_equal_csr(back._normalized, graph._normalized)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), chunks=st.integers(1, 3))
    def test_property_remove_then_readd_restores_bitwise(self, seed, chunks):
        """Any present-edge subset, removed (possibly across several
        deltas) and re-added, must restore both the CSR adjacency and the
        cached Â bitwise — the inverse-pair guarantee an attack-then-heal
        delta stream relies on."""
        rng = np.random.default_rng(seed)
        graph = make_two_block_graph(seed=seed % 5)
        graph.normalized_adjacency()
        present = sorted(edge_set(graph))
        size = int(rng.integers(1, min(10, len(present)) + 1))
        picks = rng.choice(len(present), size=size, replace=False)
        edges = np.asarray([present[i] for i in picks], dtype=np.int64)
        state = graph
        for chunk in np.array_split(edges, chunks):
            if len(chunk):
                state = apply_delta(state, GraphDelta(removed_edges=chunk))
        for chunk in np.array_split(edges, chunks):
            if len(chunk):
                state = apply_delta(state, GraphDelta(added_edges=chunk))
        assert_bitwise_equal_csr(state.adjacency, graph.adjacency)
        assert_bitwise_equal_csr(state._normalized, graph._normalized)


class TestApplyDeltaSemantics:
    def test_input_graph_never_mutated(self):
        graph = make_two_block_graph(seed=4)
        graph.normalized_adjacency()
        frozen = (
            graph.adjacency.indptr.copy(),
            graph.adjacency.indices.copy(),
            graph._normalized.data.copy(),
            np.asarray(graph.features).copy(),
            graph.labels.copy(),
        )
        rng = np.random.default_rng(0)
        apply_delta(graph, random_delta(graph, rng))
        np.testing.assert_array_equal(graph.adjacency.indptr, frozen[0])
        np.testing.assert_array_equal(graph.adjacency.indices, frozen[1])
        np.testing.assert_array_equal(graph._normalized.data, frozen[2])
        np.testing.assert_array_equal(np.asarray(graph.features), frozen[3])
        np.testing.assert_array_equal(graph.labels, frozen[4])

    def test_node_append_carries_features_labels_splits(self):
        graph = make_two_block_graph(seed=4)
        features = np.arange(2 * graph.num_features, dtype=np.float64).reshape(2, -1)
        delta = GraphDelta(
            added_edges=[[0, graph.num_nodes], [1, graph.num_nodes + 1]],
            new_features=features,
            new_labels=[1, 0],
        )
        updated = apply_delta(graph, delta)
        assert updated.num_nodes == graph.num_nodes + 2
        np.testing.assert_array_equal(
            np.asarray(updated.features)[graph.num_nodes :], features
        )
        np.testing.assert_array_equal(updated.labels[graph.num_nodes :], [1, 0])
        np.testing.assert_array_equal(updated.labels[: graph.num_nodes], graph.labels)
        np.testing.assert_array_equal(updated.train_index, graph.train_index)
        np.testing.assert_array_equal(updated.val_index, graph.val_index)
        np.testing.assert_array_equal(updated.test_index, graph.test_index)

    def test_sparse_features_append_preserves_dtype_and_order(self):
        graph = make_two_block_graph(seed=4)
        graph.features = sp.csr_matrix(graph.features).astype(np.float32)
        graph.normalized_adjacency()
        graph = graph.astype(np.float32)
        delta = GraphDelta(
            added_edges=[[0, graph.num_nodes]],
            new_features=np.ones((1, graph.num_features)),
        )
        updated = apply_delta(graph, delta)
        assert sp.issparse(updated.features)
        assert updated.features.dtype == np.float32
        assert updated.features.has_sorted_indices

    def test_empty_delta_is_identity_sharing_arrays(self):
        graph = make_two_block_graph(seed=4)
        graph.normalized_adjacency()
        clone = apply_delta(graph, GraphDelta())
        assert clone.adjacency is graph.adjacency
        assert clone._normalized is graph._normalized

    def test_degree_zero_node_survives(self):
        """Removing a node's last edge leaves Â with just its self loop."""
        graph = make_two_block_graph(seed=4)
        graph.normalized_adjacency()
        degrees = graph.degrees()
        node = int(np.flatnonzero(degrees == degrees.min())[0])
        row = graph.adjacency.indices[
            graph.adjacency.indptr[node] : graph.adjacency.indptr[node + 1]
        ]
        edges = np.asarray([[node, int(v)] for v in row], dtype=np.int64)
        updated = apply_delta(graph, GraphDelta(removed_edges=edges))
        assert updated.degrees()[node] == 0
        assert_bitwise_equal_csr(updated._normalized, gcn_normalize(updated.adjacency))


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
class TestValidation:
    @pytest.fixture(scope="class")
    def graph(self):
        return make_two_block_graph(seed=0)

    def test_self_referential_edge_rejected(self, graph):
        with pytest.raises(GraphError, match="self-referential"):
            apply_delta(graph, GraphDelta(added_edges=[[3, 3]]))

    def test_out_of_range_add_rejected(self, graph):
        with pytest.raises(GraphError, match="outside"):
            apply_delta(graph, GraphDelta(added_edges=[[0, graph.num_nodes]]))

    def test_add_may_reference_appended_nodes(self, graph):
        updated = apply_delta(
            graph,
            GraphDelta(
                added_edges=[[0, graph.num_nodes]],
                new_features=np.zeros((1, graph.num_features)),
            ),
        )
        assert updated.num_nodes == graph.num_nodes + 1

    def test_remove_may_not_reference_appended_nodes(self, graph):
        with pytest.raises(GraphError, match="outside"):
            apply_delta(
                graph,
                GraphDelta(
                    removed_edges=[[0, graph.num_nodes]],
                    new_features=np.zeros((1, graph.num_features)),
                ),
            )

    def test_duplicate_edges_rejected(self, graph):
        with pytest.raises(GraphError, match="duplicate"):
            apply_delta(graph, GraphDelta(added_edges=[[2, 9], [9, 2]]))

    def test_add_and_remove_same_edge_rejected(self, graph):
        edge = sorted(edge_set(graph))[0]
        with pytest.raises(GraphError, match="both added and removed"):
            apply_delta(graph, GraphDelta(added_edges=[edge], removed_edges=[edge]))

    def test_adding_present_edge_rejected(self, graph):
        edge = sorted(edge_set(graph))[0]
        with pytest.raises(GraphError, match="already present"):
            apply_delta(graph, GraphDelta(added_edges=[edge]))

    def test_removing_absent_edge_rejected(self, graph):
        absent = next(
            (u, v)
            for u in range(graph.num_nodes)
            for v in range(u + 1, graph.num_nodes)
            if (u, v) not in edge_set(graph)
        )
        with pytest.raises(GraphError, match="not present"):
            apply_delta(graph, GraphDelta(removed_edges=[absent]))

    def test_feature_width_mismatch_rejected(self, graph):
        with pytest.raises(GraphError, match="features"):
            apply_delta(graph, GraphDelta(new_features=np.zeros((1, 3))))

    def test_labels_without_features_rejected(self, graph):
        with pytest.raises(GraphError, match="new_labels"):
            apply_delta(graph, GraphDelta(new_labels=[1]))

    def test_validation_failure_leaves_no_side_effects(self, graph):
        graph.normalized_adjacency()
        data = graph._normalized.data.copy()
        with pytest.raises(GraphError):
            apply_delta(graph, GraphDelta(added_edges=[[0, 0]]))
        np.testing.assert_array_equal(graph._normalized.data, data)


# ----------------------------------------------------------------------
# DeltaLog
# ----------------------------------------------------------------------
class TestDeltaLog:
    def test_replay_folds_left_to_right(self):
        graph = make_two_block_graph(seed=1)
        graph.normalized_adjacency()
        rng = np.random.default_rng(9)
        log = DeltaLog()
        expected = graph
        for _ in range(4):
            delta = random_delta(expected, rng)
            log.append(delta)
            expected = apply_delta(expected, delta)
        replayed = log.replay(graph)
        assert_bitwise_equal_csr(replayed.adjacency, expected.adjacency)
        assert_bitwise_equal_csr(replayed._normalized, expected._normalized)

    def test_jsonl_round_trip(self, tmp_path):
        graph = make_two_block_graph(seed=1)
        rng = np.random.default_rng(11)
        log = DeltaLog()
        state = graph
        for _ in range(3):
            delta = random_delta(state, rng)
            log.append(delta)
            state = apply_delta(state, delta)
        path = log.save(tmp_path / "deltas.jsonl")
        loaded = DeltaLog.load(path)
        assert len(loaded) == len(log)
        graph.normalized_adjacency()
        a = log.replay(graph)
        b = loaded.replay(graph)
        assert_bitwise_equal_csr(a.adjacency, b.adjacency)
        assert_bitwise_equal_csr(a._normalized, b._normalized)
        np.testing.assert_array_equal(np.asarray(a.features), np.asarray(b.features))


# ----------------------------------------------------------------------
# k-hop closures
# ----------------------------------------------------------------------
class TestKHopRows:
    def test_zero_hops_is_the_seed_set(self):
        graph = make_two_block_graph(seed=0)
        np.testing.assert_array_equal(
            k_hop_closures([graph.adjacency], np.asarray([4, 2, 4]), 0)[-1], [2, 4]
        )

    def test_one_hop_is_seeds_plus_neighbors(self):
        graph = make_two_block_graph(seed=0)
        adjacency = graph.adjacency
        seed = 7
        closure = k_hop_closures([adjacency], np.asarray([seed]), 1)[-1]
        neighbors = adjacency.indices[adjacency.indptr[seed] : adjacency.indptr[seed + 1]]
        assert set(closure) == {seed} | set(neighbors.tolist())

    def test_matches_matrix_power_reachability(self):
        graph = make_two_block_graph(seed=2)
        adjacency = graph.adjacency
        seeds = np.asarray([0, 31])
        for hops in (1, 2, 3):
            closure = k_hop_closures([adjacency], seeds, hops)[-1]
            frontier = np.zeros(graph.num_nodes)
            frontier[seeds] = 1.0
            mask = frontier.copy()
            for _ in range(hops):
                frontier = adjacency @ frontier + frontier
                mask = np.maximum(mask, frontier)
            np.testing.assert_array_equal(closure, np.flatnonzero(mask > 0))

    def test_union_over_multiple_adjacencies(self):
        """An edge present only in the old structure still propagates."""
        graph = make_two_block_graph(seed=0)
        updated = apply_delta(
            graph, GraphDelta(removed_edges=[sorted(edge_set(graph))[0]])
        )
        u, v = sorted(edge_set(graph))[0]
        closure = k_hop_closures([graph.adjacency, updated.adjacency], np.asarray([u]), 1)[-1]
        assert v in closure

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_every_level_matches_union_reachability(self, seed):
        """One traversal gives each depth's closure over the union of the
        pre- and post-delta structures (node appends included)."""
        graph = make_two_block_graph(seed=seed)
        delta = random_delta(graph, np.random.default_rng(seed))
        updated = apply_delta(graph, delta)
        seeds = delta.dirty_nodes(graph.num_nodes)
        closures = k_hop_closures([graph.adjacency, updated.adjacency], seeds, 3)
        assert len(closures) == 4
        size = updated.num_nodes
        old = graph.adjacency.copy()
        old.resize((size, size))
        union = ((old + updated.adjacency) > 0).astype(np.float64)
        frontier = np.zeros(size)
        frontier[seeds] = 1.0
        for closure in closures:
            np.testing.assert_array_equal(closure, np.flatnonzero(frontier > 0))
            frontier = union @ frontier + frontier

    def test_seeds_beyond_small_adjacency_are_clipped(self):
        graph = make_two_block_graph(seed=0)
        bigger = apply_delta(
            graph,
            GraphDelta(
                added_edges=[[0, graph.num_nodes]],
                new_features=np.zeros((1, graph.num_features)),
            ),
        )
        closure = k_hop_closures(
            [graph.adjacency, bigger.adjacency], np.asarray([graph.num_nodes]), 1
        )[-1]
        assert 0 in closure and graph.num_nodes in closure
