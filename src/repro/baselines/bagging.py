"""Bagging ensemble of GCNs (paper §5.1 variant).

Following the paper, base models are *not* trained on bootstrap samples
("the labeled data in SSL is usually limited and sampling the dataset
will introduce a high bias"); diversity comes purely from independent
random initializations and dropout masks.  The ensemble is the uniform
average of softmax outputs.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

import numpy as np

from repro.core.ensemble import uniform_ensemble_result
from repro.graph.graph import Graph
from repro.models.base import GraphModel
from repro.models.gcn import GCN
from repro.training.checkpoint import CheckpointStore
from repro.training.parallel import get_shared, parallel_map
from repro.training.records import EnsembleResult, TrainResult
from repro.training.seed import spawn_rngs
from repro.training.trainer import Trainer


def _fit_bagging_member(rng) -> TrainResult:
    """Train one base model (module-level so it pickles to worker
    processes; ensemble and graph arrive via the fork-shared payload)."""
    ensemble, graph = get_shared()
    return ensemble.trainer.fit(ensemble._make_model(graph, rng), graph)


class BaggingEnsemble:
    """Train ``num_base_models`` independent GCNs and average their outputs.

    ``workers > 1`` trains the base models in parallel worker processes;
    they are fully independent (independent rngs, no shared state), so the
    results match the serial loop exactly.
    """

    def __init__(
        self,
        num_base_models: int = 5,
        hidden: int = 16,
        dropout: float = 0.5,
        max_epochs: int = 200,
        patience: int = 20,
        lr: float = 0.01,
        weight_decay: float = 5e-4,
        model_factory: Optional[Callable[[Graph, np.random.Generator], GraphModel]] = None,
        workers: int = 1,
    ):
        self.num_base_models = num_base_models
        self.hidden = hidden
        self.dropout = dropout
        self.trainer = Trainer(max_epochs=max_epochs, patience=patience, lr=lr, weight_decay=weight_decay)
        self._model_factory = model_factory
        self.workers = workers

    def _make_model(self, graph: Graph, rng: np.random.Generator) -> GraphModel:
        if self._model_factory is not None:
            return self._model_factory(graph, rng)
        return GCN(graph.num_features, graph.num_classes, rng, hidden=self.hidden, dropout=self.dropout)

    def _fingerprint(self, graph: Graph, seed: int) -> dict:
        trainer = self.trainer
        return {
            "kind": "bagging-fit",
            "seed": int(seed),
            "num_base_models": self.num_base_models,
            "hidden": self.hidden,
            "dropout": self.dropout,
            "trainer": (trainer.max_epochs, trainer.patience, trainer.lr, trainer.weight_decay),
            "graph": (
                graph.name,
                graph.num_nodes,
                int(graph.num_edges),
                graph.num_features,
                graph.num_classes,
            ),
        }

    def fit(
        self,
        graph: Graph,
        seed: int = 0,
        checkpoint: Optional[CheckpointStore] = None,
        checkpoint_name: str = "bagging",
    ) -> EnsembleResult:
        """Train all base models; returns ensemble and per-model metrics.

        With a ``checkpoint`` store, each member's result is persisted
        as it completes; a re-run with the same seed/config/graph trains
        only the members the crashed run had not finished (members are
        fully independent, so the restored ensemble is bit-identical).
        """
        start = time.perf_counter()
        rngs = spawn_rngs(seed, self.num_base_models)

        on_result, done = None, None
        if checkpoint is not None:
            fingerprint = self._fingerprint(graph, seed)
            saved = checkpoint.load(checkpoint_name, fingerprint=fingerprint) or {}
            done = {int(index): result for index, result in saved.items()}
            known = dict(done)

            def on_result(index, result):
                known[index] = result
                checkpoint.save(checkpoint_name, known, fingerprint=fingerprint)

        base_results = parallel_map(
            _fit_bagging_member,
            rngs,
            workers=self.workers,
            shared=(self, graph),
            on_result=on_result,
            completed=done,
        )
        return uniform_ensemble_result(graph, base_results, start)
