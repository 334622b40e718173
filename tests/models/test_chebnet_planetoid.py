"""Tests for the Planetoid baseline."""

import pytest

from repro.baselines import Planetoid
from repro.errors import ConfigError


class TestPlanetoid:
    def test_validation(self):
        with pytest.raises(ConfigError):
            Planetoid(supervised_ratio=2.0)
        with pytest.raises(ConfigError):
            Planetoid(window=0)
        with pytest.raises(ConfigError):
            Planetoid(walk_length=1)

    def test_context_pairs_are_valid_nodes(self, tiny_graph, rng):
        method = Planetoid(epochs=1)
        src, ctx = method._context_pairs(tiny_graph, rng)
        assert len(src) == len(ctx)
        assert src.max() < tiny_graph.num_nodes
        assert ctx.max() < tiny_graph.num_nodes

    def test_supervised_pairs_share_labels(self, tiny_graph, rng):
        # With ratio 1.0 relative to zero walk pairs we can't isolate them,
        # so check statistically: a large share of pairs connect
        # same-labeled nodes on a homophilous graph.
        method = Planetoid(epochs=1, supervised_ratio=1.0)
        src, ctx = method._context_pairs(tiny_graph, rng)
        same = (tiny_graph.labels[src] == tiny_graph.labels[ctx]).mean()
        assert same > 0.6

    def test_learns_two_block_task(self, tiny_graph):
        result = Planetoid(epochs=30, embed_dim=8, hidden=8).fit(tiny_graph, seed=0)
        assert result.test_accuracy > 0.6
        assert result.wall_time_s > 0

    def test_deterministic_per_seed(self, tiny_graph):
        a = Planetoid(epochs=5, embed_dim=8, hidden=8).fit(tiny_graph, seed=3)
        b = Planetoid(epochs=5, embed_dim=8, hidden=8).fit(tiny_graph, seed=3)
        assert a.test_accuracy == b.test_accuracy
