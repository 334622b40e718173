"""Tests for ResGCN, DenseGCN, JKNet, GAT, APPNP, and MLP."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.models import APPNP, GAT, GCN, JKNet, MLP, DenseGCN, ResGCN, shrinking_widths
from repro.training import Trainer, make_rng

ALL_MODELS = [
    ("resgcn", lambda g, rng: ResGCN(g.num_features, g.num_classes, rng, hidden=8, num_layers=3)),
    ("densegcn", lambda g, rng: DenseGCN(g.num_features, g.num_classes, rng, num_layers=3)),
    ("jknet", lambda g, rng: JKNet(g.num_features, g.num_classes, rng, num_layers=3)),
    ("gat", lambda g, rng: GAT(g.num_features, g.num_classes, rng, hidden=4, num_heads=2)),
    ("appnp", lambda g, rng: APPNP(g.num_features, g.num_classes, rng, hidden=8, k_steps=5)),
    ("mlp", lambda g, rng: MLP(g.num_features, g.num_classes, rng, hidden=8)),
]


class TestForwardShapes:
    @pytest.mark.parametrize("name,factory", ALL_MODELS)
    def test_logit_shape(self, tiny_graph, rng, name, factory):
        model = factory(tiny_graph, rng)
        logits = model(tiny_graph)
        assert logits.shape == (tiny_graph.num_nodes, tiny_graph.num_classes)

    @pytest.mark.parametrize("name,factory", ALL_MODELS)
    def test_eval_deterministic(self, tiny_graph, rng, name, factory):
        model = factory(tiny_graph, rng)
        a = model.predict_logits(tiny_graph)
        b = model.predict_logits(tiny_graph)
        np.testing.assert_allclose(a, b)


class TestLearning:
    @pytest.mark.parametrize(
        "name,factory",
        [m for m in ALL_MODELS if m[0] != "mlp"],  # MLP tested separately
    )
    def test_beats_chance_on_two_block_task(self, tiny_graph, name, factory):
        model = factory(tiny_graph, make_rng(3))
        result = Trainer(max_epochs=120, patience=40).fit(model, tiny_graph)
        assert result.test_accuracy > 0.6, f"{name} failed to learn"

    def test_mlp_learns_from_features_alone(self, tiny_graph):
        # tiny_graph features are Gaussian class clusters — easy for an MLP.
        model = MLP(tiny_graph.num_features, tiny_graph.num_classes, make_rng(4), hidden=8)
        result = Trainer(max_epochs=120, patience=40).fit(model, tiny_graph)
        assert result.test_accuracy > 0.7


class TestConfigValidation:
    def test_resgcn_needs_two_layers(self, rng):
        with pytest.raises(ConfigError):
            ResGCN(4, 2, rng, num_layers=1)

    def test_densegcn_width_count(self, rng):
        with pytest.raises(ConfigError):
            DenseGCN(4, 2, rng, hidden=[8, 8], num_layers=2)

    def test_gat_needs_positive_heads(self, rng):
        with pytest.raises(ConfigError):
            GAT(4, 2, rng, num_heads=0)

    def test_appnp_alpha_validation(self, rng):
        with pytest.raises(ConfigError):
            APPNP(4, 2, rng, alpha=0.0)

    def test_appnp_steps_validation(self, rng):
        with pytest.raises(ConfigError):
            APPNP(4, 2, rng, k_steps=0)

    def test_mlp_layers_validation(self, rng):
        with pytest.raises(ConfigError):
            MLP(4, 2, rng, num_layers=0)


class TestArchitectureSpecifics:
    def test_shrinking_widths_paper_example(self):
        # 6 layers → {90, 70, 50, 30, 10} hidden widths, as in §5.1.
        assert shrinking_widths(6) == [90, 70, 50, 30, 10]

    def test_shrinking_widths_floor(self):
        assert min(shrinking_widths(12)) >= 4

    def test_appnp_propagation_smooths_neighbors(self, tiny_graph, rng):
        # More propagation steps → predictions of adjacent nodes more alike.
        few = APPNP(tiny_graph.num_features, tiny_graph.num_classes, make_rng(5), k_steps=1)
        many = APPNP(tiny_graph.num_features, tiny_graph.num_classes, make_rng(5), k_steps=20)
        src, dst = tiny_graph.edge_list()

        def neighbor_gap(model):
            logits = model.predict_logits(tiny_graph)
            return np.linalg.norm(logits[src] - logits[dst], axis=1).mean()

        assert neighbor_gap(many) < neighbor_gap(few)

    def test_gat_multi_head_concatenation(self, tiny_graph, rng):
        model = GAT(tiny_graph.num_features, tiny_graph.num_classes, rng, hidden=3, num_heads=4)
        # Output layer consumes hidden * heads features.
        assert model.output.in_features == 12
