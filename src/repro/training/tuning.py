"""Validation-based hyperparameter search.

The paper tunes hyperparameters "using the validation set" (layer counts
for the deep baselines, p/γ/β for RDD).  This module provides the generic
machinery: enumerate a grid, train a model per cell, keep the cell with
the best validation accuracy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

import repro.obs as obs
from repro.errors import ConfigError
from repro.graph.graph import Graph
from repro.training.records import TrainResult
from repro.training.trainer import Trainer

# factory(graph, rng, **cell) -> model
ModelFactory = Callable[..., object]


@dataclass
class GridSearchResult:
    """Outcome of a grid search."""

    best_params: Dict[str, object]
    best_result: TrainResult
    trials: List[Dict[str, object]] = field(default_factory=list)


def grid_cells(grid: Dict[str, Sequence]) -> List[Dict[str, object]]:
    """Expand a parameter grid into the list of all combinations."""
    if not grid:
        raise ConfigError("grid must contain at least one parameter")
    names = list(grid)
    for name, values in grid.items():
        if not values:
            raise ConfigError(f"grid entry {name!r} has no values")
    return [dict(zip(names, combo)) for combo in itertools.product(*grid.values())]


def grid_search(
    factory: ModelFactory,
    grid: Dict[str, Sequence],
    graph: Graph,
    trainer: Optional[Trainer] = None,
    seed: int = 0,
) -> GridSearchResult:
    """Train one model per grid cell; select by validation accuracy.

    Parameters
    ----------
    factory:
        ``factory(graph, rng, **cell) -> GraphModel``.
    grid:
        Mapping of parameter name → candidate values.
    trainer:
        Training loop (a default :class:`Trainer` when omitted).
    seed:
        Base seed; each cell derives its own generator so rankings are
        not confounded by shared initialization.
    """
    trainer = trainer or Trainer()
    best: Optional[TrainResult] = None
    best_params: Dict[str, object] = {}
    trials: List[Dict[str, object]] = []
    for i, cell in enumerate(grid_cells(grid)):
        model = factory(graph, np.random.default_rng(seed + 7919 * i), **cell)
        with obs.span("grid:cell", index=i, **cell):
            result = trainer.fit(model, graph)
        trials.append({**cell, "val_accuracy": result.val_accuracy, "test_accuracy": result.test_accuracy})
        if best is None or result.val_accuracy > best.val_accuracy:
            best, best_params = result, dict(cell)

    return GridSearchResult(best_params=best_params, best_result=best, trials=trials)
