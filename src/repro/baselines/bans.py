"""Born-Again Networks (Furlanello et al., 2018) adapted to GCN.

Each generation ``h_t`` is a freshly initialized GCN trained with the
supervised loss plus a KD term toward the *previous* generation's softmax
outputs (the student mimics the whole teacher output — no reliability
filtering, which is exactly the "limited diversity / high bias" behaviour
RDD improves on).  The final predictor averages all generations.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional

import numpy as np

from repro.core.ensemble import uniform_ensemble_result
from repro.errors import ConfigError
from repro.graph.graph import Graph
from repro.models.base import GraphModel, softmax_rows
from repro.models.gcn import GCN
from repro.tensor import ops
from repro.tensor.functional import kl_divergence, masked_cross_entropy
from repro.training.records import EnsembleResult, TrainResult
from repro.training.seed import spawn_rngs
from repro.training.trainer import Trainer


class BANsEnsemble:
    """Sequential KD chain of GCN generations with uniform averaging.

    Parameters
    ----------
    distill_weight:
        Weight of the KD (teacher-mimicry) term in each generation's loss.
    """

    def __init__(
        self,
        num_base_models: int = 5,
        distill_weight: float = 1.0,
        temperature: float = 1.0,
        hidden: int = 16,
        dropout: float = 0.5,
        max_epochs: int = 200,
        patience: int = 20,
        lr: float = 0.01,
        weight_decay: float = 5e-4,
        model_factory: Optional[Callable[[Graph, np.random.Generator], GraphModel]] = None,
    ):
        if distill_weight < 0:
            raise ConfigError(f"distill_weight must be >= 0, got {distill_weight}")
        if temperature <= 0:
            raise ConfigError(f"temperature must be positive, got {temperature}")
        self.num_base_models = num_base_models
        self.distill_weight = distill_weight
        self.temperature = temperature
        self.hidden = hidden
        self.dropout = dropout
        self.trainer = Trainer(max_epochs=max_epochs, patience=patience, lr=lr, weight_decay=weight_decay)
        self._model_factory = model_factory

    def _make_model(self, graph: Graph, rng: np.random.Generator) -> GraphModel:
        if self._model_factory is not None:
            return self._model_factory(graph, rng)
        return GCN(graph.num_features, graph.num_classes, rng, hidden=self.hidden, dropout=self.dropout)

    def fit(self, graph: Graph, seed: int = 0) -> EnsembleResult:
        """Train the KD chain; returns ensemble and per-generation metrics."""
        start = time.perf_counter()
        base_results: List[TrainResult] = []
        teacher_probs: Optional[np.ndarray] = None

        for rng in spawn_rngs(seed, self.num_base_models):
            model = self._make_model(graph, rng)
            loss_fn = None if teacher_probs is None else self._kd_loss(graph, teacher_probs)
            result = self.trainer.fit(model, graph, loss_fn=loss_fn)
            base_results.append(result)
            # The next generation learns from this one's best checkpoint.
            teacher_probs = softmax_rows(result.predictions)
        return uniform_ensemble_result(graph, base_results, start)

    def _kd_loss(self, graph: Graph, teacher_probs: np.ndarray):
        """Supervised loss + KD toward the previous generation (all nodes).

        ``temperature`` softens both sides of the KD term as in Hinton et
        al.: the (detached) teacher distribution is re-tempered and the
        student's logits are divided by τ before the cross entropy.
        """
        tau = self.temperature
        if tau != 1.0:
            tempered = np.power(np.clip(teacher_probs, 1e-12, 1.0), 1.0 / tau)
            tempered = tempered / tempered.sum(axis=1, keepdims=True)
        else:
            tempered = teacher_probs

        def loss_fn(model: GraphModel, logits, epoch: int):
            log_probs = ops.log_softmax(logits, axis=1)
            supervised = masked_cross_entropy(log_probs, graph.labels, graph.train_index)
            student_side = log_probs if tau == 1.0 else ops.log_softmax(ops.mul(logits, 1.0 / tau), axis=1)
            distill = kl_divergence(student_side, tempered)
            # The standard τ² gradient-scale correction.
            return ops.add(supervised, ops.mul(distill, self.distill_weight * tau * tau))

        return loss_fn
