"""Block construction: chaining invariants, full-fanout Â parity, batching.

The load-bearing property here is *full-fanout parity*: when the fanout
covers every neighbor, each block row must be **bitwise** equal to the
corresponding row of the global ``gcn_normalize`` output under local
renumbering.  The differential tests (sampled training == full-batch
training) in ``tests/training/test_sampled.py`` rest on this identity.

``TestSortedOracle`` holds the builder to the sort-based construction it
replaced (``np.unique``/``np.isin`` frontier, argsort + ``searchsorted``
local ids, ``np.lexsort`` CSR order), kept here as the reference: every
block and every random draw must match it bitwise.
"""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph import build_adjacency
from repro.graph.normalize import gcn_normalize
from repro.sampling import BlockBuilder, ItemSampler, NeighborSampler, check_node_ids


def random_graph(num_nodes, edge_prob, seed):
    """Random symmetric adjacency with no isolated nodes (ring + noise)."""
    rng = np.random.default_rng(seed)
    ring = [(i, (i + 1) % num_nodes) for i in range(num_nodes)]
    upper = [(i, j) for i in range(num_nodes) for j in range(i + 1, num_nodes)
             if rng.random() < edge_prob]
    return build_adjacency(num_nodes, np.asarray(ring + upper))


class TestBlockStructure:
    def test_blocks_chain(self, tiny_graph):
        builder = BlockBuilder(tiny_graph.adjacency, (3, 3), rng=np.random.default_rng(0))
        batch = builder.build(tiny_graph.train_index[:6])
        assert len(batch.blocks) == 2
        np.testing.assert_array_equal(
            batch.blocks[0].output_nodes, batch.blocks[1].input_nodes
        )
        np.testing.assert_array_equal(batch.blocks[-1].output_nodes, batch.seeds)
        np.testing.assert_array_equal(batch.input_nodes, batch.blocks[0].input_nodes)

    def test_outputs_are_input_prefix(self, tiny_graph):
        builder = BlockBuilder(tiny_graph.adjacency, (3, 3), rng=np.random.default_rng(0))
        batch = builder.build(tiny_graph.train_index[:6])
        for block in batch.blocks:
            n_out = len(block.output_nodes)
            np.testing.assert_array_equal(block.input_nodes[:n_out], block.output_nodes)
            assert block.adjacency.shape == (n_out, len(block.input_nodes))

    def test_seeds_are_sorted_unique(self, tiny_graph):
        builder = BlockBuilder(tiny_graph.adjacency, (2,), rng=np.random.default_rng(0))
        batch = builder.build(np.array([5, 3, 5, 1]))
        np.testing.assert_array_equal(batch.seeds, [1, 3, 5])

    def test_rows_sum_to_at_most_global_row_sum(self, tiny_graph):
        # Sampled rows are unbiased estimates: self loop + rescaled
        # neighbor slice; every entry positive, rows canonical CSR.
        builder = BlockBuilder(tiny_graph.adjacency, (2, 2), rng=np.random.default_rng(0))
        batch = builder.build(tiny_graph.train_index[:6])
        for block in batch.blocks:
            assert (block.adjacency.data > 0).all()
            assert block.adjacency.has_sorted_indices

    def test_fanout_validation(self, tiny_graph):
        with pytest.raises(GraphError):
            BlockBuilder(tiny_graph.adjacency, (), np.random.default_rng(0))
        with pytest.raises(GraphError):
            BlockBuilder(tiny_graph.adjacency, (3, 0), np.random.default_rng(0))

    def test_deterministic_given_seed(self, tiny_graph):
        seeds = tiny_graph.train_index[:5]
        a = BlockBuilder(tiny_graph.adjacency, (2, 2), rng=np.random.default_rng(9)).build(seeds)
        b = BlockBuilder(tiny_graph.adjacency, (2, 2), rng=np.random.default_rng(9)).build(seeds)
        for x, y in zip(a.blocks, b.blocks):
            np.testing.assert_array_equal(x.input_nodes, y.input_nodes)
            np.testing.assert_array_equal(x.adjacency.toarray(), y.adjacency.toarray())

    def test_buffers_are_reused_across_builds(self, tiny_graph):
        # The lease contract: a block is valid only until the next build.
        builder = BlockBuilder(tiny_graph.adjacency, (3,), rng=np.random.default_rng(0))
        first = builder.build(tiny_graph.train_index[:6])
        data_before = first.blocks[0].adjacency.data
        builder.build(tiny_graph.train_index[6:12])
        # Same (grown-once) backing buffer — the pool leased it again.
        assert data_before.base is not None
        second_data = builder.build(tiny_graph.train_index[:6]).blocks[0].adjacency.data
        assert second_data.base is data_before.base


def assert_full_fanout_rows_match_global(adjacency, seeds, num_layers=2, dtype=np.float64):
    """Every block row equals the global Â row, bitwise, under renumbering."""
    max_deg = int(np.diff(adjacency.tocsr().indptr).max())
    a_hat = gcn_normalize(adjacency).astype(dtype).toarray()
    builder = BlockBuilder(adjacency, (max_deg,) * num_layers, rng=np.random.default_rng(0), dtype=dtype)
    batch = builder.build(seeds)
    for block in batch.blocks:
        assert block.adjacency.dtype == dtype
        dense = block.adjacency.toarray()
        for local_row, node in enumerate(block.output_nodes):
            global_row = np.zeros(adjacency.shape[1], dtype=dtype)
            global_row[block.input_nodes] = dense[local_row]
            # Bitwise: full fanout implies rescale == 1.0 exactly and the
            # same float expression as gcn_normalize per entry.
            np.testing.assert_array_equal(global_row, a_hat[node])


class TestFullFanoutParity:
    def test_two_block_graph(self, tiny_graph):
        assert_full_fanout_rows_match_global(tiny_graph.adjacency, tiny_graph.train_index[:8])

    def test_single_seed(self, tiny_graph):
        assert_full_fanout_rows_match_global(tiny_graph.adjacency, np.array([0]))

    def test_float32_blocks_equal_float32_global_rows(self, tiny_graph):
        # Both sides compute in float64 and cast once, as Graph.astype does.
        assert_full_fanout_rows_match_global(
            tiny_graph.adjacency, tiny_graph.train_index[:8], dtype=np.float32
        )

    def test_float32_build_ignores_stale_buffer_contents(self, tiny_graph):
        # Pooled value buffers hold whatever an earlier batch left there;
        # here a signaling-NaN pattern, which warns if it is ever cast.
        poisoned, clean = (
            BlockBuilder(tiny_graph.adjacency, (2, 2), rng=np.random.default_rng(4), dtype=np.float32)
            for _ in range(2)
        )
        for builder in (poisoned, clean):
            builder.build(tiny_graph.train_index)  # grows the pooled buffers
        for (_, kind), buffer in poisoned._pool._buffers.items():
            if kind == "data":
                buffer.view(np.uint32)[:] = 0x7FA00000
        seeds = tiny_graph.train_index[:8]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = poisoned.build(seeds)
        want = clean.build(seeds)
        for x, y in zip(got.blocks, want.blocks):
            assert x.adjacency.dtype == y.adjacency.dtype == np.float32
            np.testing.assert_array_equal(x.input_nodes, y.input_nodes)
            np.testing.assert_array_equal(x.adjacency.toarray(), y.adjacency.toarray())

    @settings(max_examples=25, deadline=None)
    @given(
        num_nodes=st.integers(4, 24),
        edge_prob=st.floats(0.0, 0.5),
        graph_seed=st.integers(0, 1000),
        seed_seed=st.integers(0, 1000),
    )
    def test_property_block_rows_equal_global_rows(
        self, num_nodes, edge_prob, graph_seed, seed_seed
    ):
        adjacency = random_graph(num_nodes, edge_prob, graph_seed)
        rng = np.random.default_rng(seed_seed)
        num_seeds = int(rng.integers(1, num_nodes + 1))
        seeds = rng.choice(num_nodes, size=num_seeds, replace=False)
        assert_full_fanout_rows_match_global(adjacency, seeds)

    def test_under_fanout_rescales_by_degree_over_sampled(self):
        # Star with 8 leaves, fanout 2: the hub row keeps 2 neighbors,
        # each scaled by deg/s = 8/2 = 4 on top of the Â entry.
        adj = build_adjacency(9, np.array([[0, i] for i in range(1, 9)]))
        a_hat = gcn_normalize(adj).toarray()
        builder = BlockBuilder(adj, (2,), rng=np.random.default_rng(0))
        batch = builder.build(np.array([0]))
        block = batch.blocks[0]
        dense = block.adjacency.toarray().ravel()
        np.testing.assert_allclose(dense[0], a_hat[0, 0])  # self loop unscaled
        kept = block.input_nodes[1:]
        np.testing.assert_allclose(dense[1:], a_hat[0, kept] * (8.0 / 2.0))


def sorted_frontier(current, src):
    """Reference renumbering: outputs, then new sources ascending."""
    new = np.unique(src)
    new = new[np.isin(new, current, invert=True)]
    input_nodes = np.concatenate([current, new])
    order = np.argsort(input_nodes, kind="stable")
    return input_nodes, order[np.searchsorted(input_nodes[order], src)]


def reference_build(sampler, fanouts, seeds):
    """Reference block construction; ``(input, output, data, indices, indptr)``."""
    degrees = np.diff(sampler.indptr)
    inv_sqrt = 1.0 / np.sqrt(degrees + 1.0)
    current = np.unique(check_node_ids(seeds, sampler.num_nodes, "seeds"))
    blocks = []
    for fanout in fanouts:
        src, _, counts = sampler.sample(current, fanout)
        num_out = len(current)
        input_nodes, local_src = sorted_frontier(current, src)
        deg = degrees[current].astype(np.float64)
        rescale = np.divide(deg, counts, out=np.zeros(num_out), where=counts > 0)
        rows = np.concatenate(
            [np.arange(num_out, dtype=np.int64),
             np.repeat(np.arange(num_out, dtype=np.int64), counts)]
        )
        cols = np.concatenate([np.arange(num_out, dtype=np.int64), local_src])
        inv_cur = inv_sqrt[current]
        vals = np.concatenate(
            [inv_cur * inv_cur,
             (inv_sqrt[src] * np.repeat(inv_cur, counts)) * np.repeat(rescale, counts)]
        )
        order = np.lexsort((cols, rows))
        indptr = np.zeros(num_out + 1, dtype=np.int64)
        np.cumsum(counts + 1, out=indptr[1:])
        blocks.append((input_nodes, current, vals[order], cols[order], indptr))
        current = input_nodes
    blocks.reverse()
    return blocks


def assert_same_blocks(batch, expected):
    assert len(batch.blocks) == len(expected)
    for block, ref in zip(batch.blocks, expected):
        got = (block.input_nodes, block.output_nodes, block.adjacency.data,
               block.adjacency.indices, block.adjacency.indptr)
        for mine, theirs in zip(got, ref):
            assert mine.dtype == theirs.dtype
            assert mine.tobytes() == theirs.tobytes()


def oracle_graph(data):
    """Random graph with isolated nodes and a hub of degree >= 3."""
    num_nodes = data.draw(st.integers(7, 30), label="num_nodes")
    graph_rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="graph_seed"))
    num_isolated = data.draw(st.integers(1, 3), label="num_isolated")
    linked = num_nodes - num_isolated
    hub_degree = int(graph_rng.integers(3, linked))
    edges = [(0, j) for j in graph_rng.choice(np.arange(1, linked), hub_degree, replace=False)]
    prob = data.draw(st.floats(0.0, 0.4), label="edge_prob")
    edges += [(i, j) for i in range(1, linked) for j in range(i + 1, linked)
              if graph_rng.random() < prob]
    return build_adjacency(num_nodes, np.asarray(edges))


class TestSortedOracle:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_property_builds_match_reference(self, data):
        adjacency = oracle_graph(data)
        num_nodes = adjacency.shape[0]
        max_degree = int(np.diff(adjacency.indptr).max())
        fanouts = tuple(data.draw(
            st.lists(st.integers(1, max_degree + 2), min_size=1, max_size=3), label="fanouts"
        ))
        # At least one row (the hub) lies above some layer's fanout.
        fanouts = (min(fanouts[0], max_degree - 1),) + fanouts[1:]
        seed = data.draw(st.integers(0, 2**16), label="seed")
        weights = None
        if data.draw(st.booleans(), label="weighted"):
            weights = np.random.default_rng(seed + 1).uniform(0.05, 20.0, num_nodes)
        builder = BlockBuilder(adjacency, fanouts, np.random.default_rng(seed))
        builder.set_weights(weights)
        reference = NeighborSampler(adjacency, np.random.default_rng(seed))
        reference.set_weights(weights)
        batches = data.draw(st.lists(
            st.lists(st.integers(0, num_nodes - 1), min_size=1, max_size=2 * num_nodes),
            min_size=3, max_size=5,
        ), label="batches")
        batches[0].append(0)  # the hub's row is sampled in the first build
        for seeds in batches:
            seeds = np.asarray(seeds)
            assert_same_blocks(builder.build(seeds), reference_build(reference, fanouts, seeds))
            assert builder.sampler.rng.bit_generator.state == reference.rng.bit_generator.state

    def test_failed_build_leaves_next_build_unchanged(self, tiny_graph):
        builder = BlockBuilder(tiny_graph.adjacency, (2, 3), rng=np.random.default_rng(5))
        reference = NeighborSampler(tiny_graph.adjacency, np.random.default_rng(5))
        good = tiny_graph.train_index[:6]
        assert_same_blocks(builder.build(good), reference_build(reference, (2, 3), good))
        with pytest.raises(GraphError):
            builder.build(np.array([1, tiny_graph.num_nodes]))
        again = tiny_graph.train_index[3:9]
        assert_same_blocks(builder.build(again), reference_build(reference, (2, 3), again))
        assert builder.sampler.rng.bit_generator.state == reference.rng.bit_generator.state


class TestItemSampler:
    def test_partitions_index_exactly(self):
        index = np.arange(10, 33)
        sampler = ItemSampler(index, batch_size=7, rng=np.random.default_rng(0))
        batches = sampler.epoch()
        assert len(batches) == len(sampler) == 4
        assert [len(b) for b in batches] == [7, 7, 7, 2]
        np.testing.assert_array_equal(np.sort(np.concatenate(batches)), index)

    def test_weighted_epoch_still_visits_every_seed_once(self):
        index = np.arange(20)
        weights = np.ones(20)
        weights[:5] = 100.0
        batches = ItemSampler(index, batch_size=6, rng=np.random.default_rng(0)).epoch(weights=weights)
        np.testing.assert_array_equal(np.sort(np.concatenate(batches)), index)

    def test_weighted_shuffle_front_loads_heavy_seeds(self):
        index = np.arange(100)
        weights = np.ones(100)
        weights[:10] = 1000.0
        first = ItemSampler(index, batch_size=10, rng=np.random.default_rng(4)).epoch(weights=weights)[0]
        assert np.count_nonzero(first < 10) >= 8

    def test_deterministic_stream(self):
        a = ItemSampler(np.arange(17), 5, rng=np.random.default_rng(3)).epoch()
        b = ItemSampler(np.arange(17), 5, rng=np.random.default_rng(3)).epoch()
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_validation(self):
        with pytest.raises(GraphError):
            ItemSampler(np.arange(4), 0, np.random.default_rng(0))
        with pytest.raises(GraphError):
            ItemSampler(np.empty(0, dtype=np.int64), 2, np.random.default_rng(0))
        sampler = ItemSampler(np.arange(4), 2, np.random.default_rng(0))
        with pytest.raises(GraphError, match="align"):
            sampler.epoch(weights=np.ones(3))
        with pytest.raises(GraphError, match="positive"):
            sampler.epoch(weights=np.zeros(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_weights(self, bad):
        sampler = ItemSampler(np.arange(4), 2, rng=np.random.default_rng(0))
        weights = np.ones(4)
        weights[2] = bad
        with pytest.raises(GraphError, match="finite"):
            sampler.epoch(weights=weights)
