"""Tests for validation-based grid search."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.models import GCN
from repro.training import Trainer, grid_cells, grid_search


class TestGridCells:
    def test_cartesian_product(self):
        cells = grid_cells({"a": [1, 2], "b": ["x", "y", "z"]})
        assert len(cells) == 6
        assert {"a": 1, "b": "x"} in cells
        assert {"a": 2, "b": "z"} in cells

    def test_single_parameter(self):
        assert grid_cells({"depth": [2, 3]}) == [{"depth": 2}, {"depth": 3}]

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            grid_cells({})

    def test_empty_values_rejected(self):
        with pytest.raises(ConfigError):
            grid_cells({"a": []})


class TestGridSearch:
    def _factory(self, graph, rng, hidden=8, num_layers=2):
        return GCN(graph.num_features, graph.num_classes, rng,
                   hidden=hidden, num_layers=num_layers)

    def test_runs_all_cells(self, tiny_graph):
        result = grid_search(
            self._factory,
            {"hidden": [4, 8], "num_layers": [2]},
            tiny_graph,
            trainer=Trainer(max_epochs=15, min_epochs=1),
        )
        assert len(result.trials) == 2
        assert {"val_accuracy", "test_accuracy", "hidden", "num_layers"} <= set(result.trials[0])

    def test_best_params_maximize_validation(self, tiny_graph):
        result = grid_search(
            self._factory,
            {"hidden": [2, 8, 16]},
            tiny_graph,
            trainer=Trainer(max_epochs=25, min_epochs=1),
        )
        best_val = max(t["val_accuracy"] for t in result.trials)
        assert result.best_result.val_accuracy == pytest.approx(best_val)
        winning = [t for t in result.trials if t["val_accuracy"] == best_val]
        assert any(t["hidden"] == result.best_params["hidden"] for t in winning)

    def test_depth_grid_prefers_shallow_on_tiny_graph(self, tiny_graph):
        # 2 layers should beat 6 on a 60-node graph (over-smoothing).
        result = grid_search(
            self._factory,
            {"num_layers": [2, 6]},
            tiny_graph,
            trainer=Trainer(max_epochs=40, min_epochs=1),
        )
        assert result.best_params["num_layers"] == 2

    def test_deterministic_given_seed(self, tiny_graph):
        kwargs = dict(
            grid={"hidden": [4, 8]},
            graph=tiny_graph,
            trainer=Trainer(max_epochs=10, min_epochs=1),
            seed=5,
        )
        a = grid_search(self._factory, **kwargs)
        b = grid_search(self._factory, **kwargs)
        assert a.best_params == b.best_params
        assert a.trials == b.trials
