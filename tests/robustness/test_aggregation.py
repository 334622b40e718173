"""Robust aggregation: estimator properties and trainability."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import ConfigError
from repro.graph.normalize import gcn_normalize
from repro.models.gcn import GCN
from repro.robustness.aggregation import (
    RobustGCN,
    RobustGraphConvolution,
    robust_weights,
    soft_median_weights,
    trimmed_mean_weights,
)
from repro.training.seed import make_rng
from repro.training.trainer import Trainer

from ..conftest import make_two_block_graph


@pytest.fixture(scope="module")
def graph():
    return make_two_block_graph(num_nodes=60, seed=1)


def _star_with_outlier(num_leaves: int = 6):
    """A star graph whose last leaf carries an extreme embedding."""
    n = num_leaves + 1
    rows = np.concatenate([np.zeros(num_leaves, np.int64), np.arange(1, n)])
    cols = np.concatenate([np.arange(1, n), np.zeros(num_leaves, np.int64)])
    adjacency = sp.csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(n, n)
    )
    base = gcn_normalize(adjacency)
    h = np.zeros((n, 4))
    h[1:] = 1.0
    h[-1] = 100.0  # the poisoned neighbor
    return base, h


class TestWeightProperties:
    def test_row_mass_preserved(self, graph):
        base = graph.normalized_adjacency()
        h = np.asarray(graph.features, dtype=np.float64)
        for candidate in (
            soft_median_weights(base, h),
            trimmed_mean_weights(base, h),
        ):
            assert candidate.shape == base.shape
            assert np.array_equal(candidate.indices, base.indices)
            assert np.array_equal(candidate.indptr, base.indptr)
            np.testing.assert_allclose(
                np.asarray(candidate.sum(axis=1)).ravel(),
                np.asarray(base.sum(axis=1)).ravel(),
            )

    def test_soft_median_damps_outlier(self):
        base, h = _star_with_outlier()
        reweighted = soft_median_weights(base, h)
        row = slice(base.indptr[0], base.indptr[1])
        cols = base.indices[row]
        outlier_pos = np.flatnonzero(cols == base.shape[0] - 1)[0]
        honest_pos = np.flatnonzero(cols == 1)[0]
        assert reweighted.data[row][outlier_pos] < 0.01 * reweighted.data[row][honest_pos]

    def test_trimmed_mean_zeroes_outlier(self):
        base, h = _star_with_outlier()
        reweighted = trimmed_mean_weights(base, h)
        row = slice(base.indptr[0], base.indptr[1])
        cols = base.indices[row]
        outlier_pos = np.flatnonzero(cols == base.shape[0] - 1)[0]
        assert reweighted.data[row][outlier_pos] == 0.0

    def test_trimmed_mean_never_drops_self_loop(self):
        base, h = _star_with_outlier()
        h[0] = 100.0  # make the center itself look like the outlier
        reweighted = trimmed_mean_weights(base, h)
        row = slice(base.indptr[0], base.indptr[1])
        cols = base.indices[row]
        self_pos = np.flatnonzero(cols == 0)[0]
        assert reweighted.data[row][self_pos] > 0.0

    def test_deterministic(self, graph):
        base = graph.normalized_adjacency()
        h = np.asarray(graph.features, dtype=np.float64)
        one = soft_median_weights(base, h)
        two = soft_median_weights(base, h)
        assert np.array_equal(one.data, two.data)

    def test_invalid_parameters_rejected(self, graph):
        base = graph.normalized_adjacency()
        h = np.asarray(graph.features, dtype=np.float64)
        with pytest.raises(ConfigError):
            robust_weights(base, h, "nope")
        with pytest.raises(ConfigError):
            robust_weights(base, h, "gcn")  # the plain GCN is not a reweighting


class TestRobustGCN:
    @pytest.mark.parametrize("aggregation", ["soft_median", "trimmed_mean"])
    def test_trains_above_chance(self, graph, aggregation):
        model = RobustGCN(
            graph.num_features, graph.num_classes, make_rng(0), aggregation=aggregation
        )
        result = Trainer(max_epochs=40, patience=15).fit(model, graph)
        assert result.test_accuracy > 0.6

    def test_eval_matches_train_mode_forward(self, graph):
        """No-grad inference equals the taped forward (dropout off)."""
        model = RobustGCN(
            graph.num_features, graph.num_classes, make_rng(0), dropout=0.0
        )
        model.eval()
        fast = model.predict_logits(graph)
        model.train()
        taped = model(graph).data
        np.testing.assert_allclose(fast, taped, rtol=1e-10, atol=1e-12)

    def test_layer_shape_contract(self, graph):
        layer = RobustGraphConvolution(graph.num_features, 8, make_rng(0))
        out = layer(graph.normalized_adjacency(), np.asarray(graph.features, dtype=np.float64))
        assert out.shape == (graph.num_nodes, 8)

    def test_unknown_aggregation_rejected(self, graph):
        with pytest.raises(ConfigError):
            RobustGCN(graph.num_features, graph.num_classes, make_rng(0), aggregation="nope")

    @pytest.mark.parametrize("aggregation", ["soft_median", "trimmed_mean"])
    @pytest.mark.parametrize(
        "hidden,num_layers", [(16, 2), (8, 1), ([12, 6], 3)], ids=["2-layer", "1-layer", "3-layer"]
    )
    def test_initial_state_equals_gcn(self, graph, aggregation, hidden, num_layers):
        """RobustGCN is a GCN with another layer type: same rng draws,
        same widths, same initial parameters."""
        robust = RobustGCN(
            graph.num_features, graph.num_classes, make_rng(5),
            hidden=hidden, num_layers=num_layers, aggregation=aggregation,
        )
        plain = GCN(
            graph.num_features, graph.num_classes, make_rng(5),
            hidden=hidden, num_layers=num_layers,
        )
        robust_state, plain_state = robust.state_dict(), plain.state_dict()
        assert list(robust_state) == list(plain_state)
        for name, value in plain_state.items():
            assert robust_state[name].dtype == value.dtype
            assert np.array_equal(robust_state[name], value), name
        assert all(layer.aggregation == aggregation for layer in robust.layers)
