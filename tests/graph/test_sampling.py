"""Neighbor sampling and minibatch block construction, end to end.

Exercises the ``repro.sampling`` stack the way a training loop uses it:
fanout sampling, layer blocks, seed batches, and sampled GraphSAGE.
"""

import numpy as np
import pytest

from repro.errors import GraphError, TrainingError
from repro.graph import build_adjacency
from repro.models import GraphSAGE
from repro.sampling import BlockBuilder, ItemSampler, NeighborSampler
from repro.training import make_rng
from repro.training.sampled import SampledTrainer


def star_graph(leaves=8):
    edges = np.array([[0, i] for i in range(1, leaves + 1)])
    return build_adjacency(leaves + 1, edges)


def sample_neighbors(adjacency, nodes, fanout, rng):
    src, dst, _ = NeighborSampler(adjacency, rng=rng).sample(nodes, fanout)
    return src, dst


class TestSampleNeighbors:
    def test_fanout_caps_samples(self, rng):
        adj = star_graph(8)
        src, dst = sample_neighbors(adj, np.array([0]), fanout=3, rng=rng)
        assert len(src) == 3
        assert set(dst) == {0}
        assert all(s in range(1, 9) for s in src)

    def test_small_degree_takes_all_neighbors(self, rng):
        adj = star_graph(2)
        src, dst = sample_neighbors(adj, np.array([0]), fanout=10, rng=rng)
        assert sorted(src) == [1, 2]

    def test_no_duplicate_samples(self, rng):
        adj = star_graph(10)
        src, _ = sample_neighbors(adj, np.array([0]), fanout=8, rng=rng)
        assert len(set(src)) == len(src)

    def test_invalid_fanout(self, rng):
        with pytest.raises(GraphError):
            sample_neighbors(star_graph(), np.array([0]), fanout=0, rng=rng)


def build_blocks(adjacency, seeds, fanouts, rng):
    return BlockBuilder(adjacency, fanouts, rng=rng).build(seeds).blocks


class TestBuildBlocks:
    def test_block_count_matches_fanouts(self, tiny_graph, rng):
        blocks = build_blocks(tiny_graph.adjacency, tiny_graph.train_index[:4], (3, 3), rng)
        assert len(blocks) == 2

    def test_outputs_are_input_prefix(self, tiny_graph, rng):
        blocks = build_blocks(tiny_graph.adjacency, tiny_graph.train_index[:4], (3, 3), rng)
        for block in blocks:
            np.testing.assert_array_equal(
                block.input_nodes[: len(block.output_nodes)], block.output_nodes
            )

    def test_final_outputs_are_seeds(self, tiny_graph, rng):
        seeds = tiny_graph.train_index[:5]
        blocks = build_blocks(tiny_graph.adjacency, seeds, (2,), rng)
        np.testing.assert_array_equal(blocks[-1].output_nodes, np.unique(seeds))

    def test_local_indices_in_range(self, tiny_graph, rng):
        blocks = build_blocks(tiny_graph.adjacency, tiny_graph.train_index[:4], (4, 4), rng)
        for block in blocks:
            assert block.adjacency.indices.max() < len(block.input_nodes)
            assert block.adjacency.shape[0] == len(block.output_nodes)

    def test_edges_exist_in_graph_or_are_self_loops(self, tiny_graph, rng):
        blocks = build_blocks(tiny_graph.adjacency, tiny_graph.train_index[:4], (3,), rng)
        adj = tiny_graph.adjacency
        block = blocks[0]
        coo = block.adjacency.tocoo()
        for ld, ls in zip(coo.row, coo.col):
            u = block.input_nodes[ls]
            v = block.output_nodes[ld]
            assert u == v or adj[u, v] == 1.0

    def test_empty_fanouts_rejected(self, tiny_graph, rng):
        with pytest.raises(GraphError):
            build_blocks(tiny_graph.adjacency, tiny_graph.train_index[:2], (), rng)


def minibatches(index, batch_size, rng):
    return ItemSampler(index, batch_size, rng=rng).epoch()


class TestMinibatches:
    def test_partition_covers_all(self, rng):
        index = np.arange(17)
        batches = minibatches(index, 5, rng)
        assert sorted(np.concatenate(batches).tolist()) == list(range(17))
        assert [len(b) for b in batches] == [5, 5, 5, 2]

    def test_shuffling_depends_on_rng(self):
        index = np.arange(20)
        a = minibatches(index, 20, np.random.default_rng(0))[0]
        b = minibatches(index, 20, np.random.default_rng(1))[0]
        assert not np.array_equal(a, b)

    def test_invalid_batch_size(self, rng):
        with pytest.raises(GraphError):
            minibatches(np.arange(4), 0, rng)


class TestMiniBatchSAGE:
    def test_trains_on_tiny_graph(self, tiny_graph):
        model = GraphSAGE(
            tiny_graph.num_features, tiny_graph.num_classes, make_rng(0), hidden=8, dropout=0.0
        )
        trainer = SampledTrainer(fanouts=(4, 4), batch_size=6, max_epochs=15, patience=15)
        result = trainer.fit(model, tiny_graph)
        assert result.test_accuracy > 0.6

    def test_invalid_fanouts(self):
        with pytest.raises(TrainingError):
            SampledTrainer(fanouts=())
