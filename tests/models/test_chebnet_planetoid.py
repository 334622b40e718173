"""Tests for the Planetoid baseline."""

import numpy as np
import pytest

from repro.baselines import Planetoid
from repro.baselines.planetoid import _PlanetoidNet
from repro.tensor import default_dtype


class TestPlanetoid:
    def test_context_pairs_are_valid_nodes(self, tiny_graph, rng):
        method = Planetoid(epochs=1)
        src, ctx = method._context_pairs(tiny_graph, rng)
        assert len(src) == len(ctx)
        assert src.max() < tiny_graph.num_nodes
        assert ctx.max() < tiny_graph.num_nodes

    def test_supervised_pairs_share_labels(self, tiny_graph, rng):
        # The injected pairs cannot be told apart from the walk pairs,
        # so check statistically: a large share of pairs connect
        # same-labeled nodes on a homophilous graph.
        method = Planetoid(epochs=1)
        src, ctx = method._context_pairs(tiny_graph, rng)
        same = (tiny_graph.labels[src] == tiny_graph.labels[ctx]).mean()
        assert same > 0.6

    def test_learns_two_block_task(self, tiny_graph):
        result = Planetoid(epochs=30).fit(tiny_graph, seed=0)
        assert result.test_accuracy > 0.6
        assert result.wall_time_s > 0

    def test_deterministic_per_seed(self, tiny_graph):
        a = Planetoid(epochs=5).fit(tiny_graph, seed=3)
        b = Planetoid(epochs=5).fit(tiny_graph, seed=3)
        assert a.test_accuracy == b.test_accuracy

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_features_stay_in_the_graph_dtype(self, tiny_graph, dtype, monkeypatch):
        """The dense feature copy is made in the run's dtype, not float64."""
        seen = set()
        logits_for = _PlanetoidNet.logits_for

        def record(net, features, index):
            seen.add(features.dtype)
            return logits_for(net, features, index)

        monkeypatch.setattr(_PlanetoidNet, "logits_for", record)
        with default_dtype(dtype):
            Planetoid(epochs=2).fit(tiny_graph.astype(dtype), seed=0)
        assert seen == {np.dtype(dtype)}

