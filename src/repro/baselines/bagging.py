"""Bagging ensemble of GCNs (paper §5.1 variant).

Following the paper, base models are *not* trained on bootstrap samples
("the labeled data in SSL is usually limited and sampling the dataset
will introduce a high bias"); diversity comes purely from independent
random initializations and dropout masks.  The ensemble is the uniform
average of softmax outputs.
"""

from __future__ import annotations

import time

from repro.core.ensemble import uniform_ensemble_result
from repro.graph.graph import Graph
from repro.models.gcn import GCN
from repro.training.records import EnsembleResult
from repro.training.seed import spawn_rngs
from repro.training.trainer import Trainer


class BaggingEnsemble:
    """Train ``num_base_models`` independent GCNs and average their outputs."""

    def __init__(
        self,
        num_base_models: int = 5,
        hidden: int = 16,
        dropout: float = 0.5,
        max_epochs: int = 200,
        patience: int = 20,
        lr: float = 0.01,
        weight_decay: float = 5e-4,
    ):
        self.num_base_models = num_base_models
        self.hidden = hidden
        self.dropout = dropout
        self.trainer = Trainer(max_epochs=max_epochs, patience=patience, lr=lr, weight_decay=weight_decay)

    def fit(self, graph: Graph, seed: int = 0) -> EnsembleResult:
        """Train all base models; returns ensemble and per-model metrics.

        Each member trains from its own spawned generator, so members are
        fully independent of one another.
        """
        start = time.perf_counter()
        base_results = [
            self.trainer.fit(
                GCN(graph.num_features, graph.num_classes, rng,
                    hidden=self.hidden, dropout=self.dropout),
                graph,
            )
            for rng in spawn_rngs(seed, self.num_base_models)
        ]
        return uniform_ensemble_result(graph, base_results, start)
