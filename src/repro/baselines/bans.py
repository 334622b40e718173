"""Born-Again Networks (Furlanello et al., 2018) adapted to GCN.

Each generation ``h_t`` is a freshly initialized GCN trained with the
supervised loss plus a KD term toward the *previous* generation's softmax
outputs (the student mimics the whole teacher output — no reliability
filtering, which is exactly the "limited diversity / high bias" behaviour
RDD improves on).  The final predictor averages all generations.
"""

from __future__ import annotations

import time
from typing import List, Optional

import numpy as np

from repro.core.ensemble import uniform_ensemble_result
from repro.graph.graph import Graph
from repro.models.base import GraphModel, softmax_rows
from repro.models.gcn import GCN
from repro.tensor import ops
from repro.tensor.functional import kl_divergence, masked_cross_entropy
from repro.training.records import EnsembleResult, TrainResult
from repro.training.seed import spawn_rngs
from repro.training.trainer import Trainer


class BANsEnsemble:
    """Sequential KD chain of GCN generations with uniform averaging."""

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
        """Train the KD chain; returns ensemble and per-generation metrics."""
        start = time.perf_counter()
        base_results: List[TrainResult] = []
        teacher_probs: Optional[np.ndarray] = None

        for rng in spawn_rngs(seed, self.num_base_models):
            model = GCN(graph.num_features, graph.num_classes, rng,
                        hidden=self.hidden, dropout=self.dropout)
            loss_fn = None if teacher_probs is None else self._kd_loss(graph, teacher_probs)
            result = self.trainer.fit(model, graph, loss_fn=loss_fn)
            base_results.append(result)
            # The next generation learns from this one's best checkpoint.
            teacher_probs = softmax_rows(result.predictions)
        return uniform_ensemble_result(graph, base_results, start)

    def _kd_loss(self, graph: Graph, teacher_probs: np.ndarray):
        """Supervised loss + KD toward the previous generation (all nodes):
        the cross entropy plus ``KL(teacher || student)``, both terms at
        weight one and neither tempered, as in born-again training."""

        def loss_fn(model: GraphModel, logits, epoch: int):
            log_probs = ops.log_softmax(logits, axis=1)
            supervised = masked_cross_entropy(log_probs, graph.labels, graph.train_index)
            return ops.add(supervised, kl_divergence(log_probs, teacher_probs))

        return loss_fn
