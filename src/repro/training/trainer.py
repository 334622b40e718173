"""The training loop with validation early stopping.

Matches the paper's budget: Adam (lr 0.01), up to 500 epochs, stop when
the validation accuracy has not improved for 20 evaluations, restore the
best checkpoint.  A pluggable ``loss_fn`` lets RDD and the KD baselines
inject their extra objective terms while reusing the same loop, and
:class:`~repro.training.sampled.SampledTrainer` runs the same epoch loop
(:meth:`Trainer._run`) with mini-batch steps.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Tuple

import numpy as np

import repro.obs as obs
from repro.errors import TrainingError
from repro.graph.graph import Graph
from repro.models.base import GraphModel
from repro.nn.optim import Adam
from repro.nn.schedules import EarlyStopping
from repro.tensor.functional import accuracy, masked_cross_entropy_logits
from repro.tensor.tensor import GradArena, Tensor
from repro.testing.faults import fault_point
from repro.training.records import TrainResult

# Signature: loss_fn(model, logits, epoch) -> scalar Tensor.
LossFn = Callable[[GraphModel, Tensor, int], Tensor]
# Signature: epoch_callback(epoch, model, eval_logits).
EpochCallback = Callable[[int, GraphModel, np.ndarray], None]
# Signature: train_epoch(epoch, optimizer, arena) -> (summed loss, steps).
TrainEpoch = Callable[[int, Adam, GradArena], Tuple[float, int]]


class Trainer:
    """Reusable full-batch trainer.

    Parameters
    ----------
    max_epochs:
        Upper bound on training epochs (paper: 500).
    patience:
        Early-stopping patience on validation accuracy (paper: 20).
    lr / weight_decay:
        Adam settings (paper: 0.01 and 5e-4 on citation networks).
    record_history:
        When True the returned :class:`TrainResult` carries per-epoch
        train/val metrics (used by the examples and diagnostics).
    """

    def __init__(
        self,
        max_epochs: int = 300,
        patience: int = 20,
        lr: float = 0.01,
        weight_decay: float = 5e-4,
        record_history: bool = False,
        min_epochs: Optional[int] = None,
    ):
        if max_epochs < 1:
            raise TrainingError(f"max_epochs must be >= 1, got {max_epochs}")
        self.max_epochs = max_epochs
        self.patience = patience
        self.lr = lr
        self.weight_decay = weight_decay
        self.record_history = record_history
        # Early stopping only arms after a warmup: small validation sets
        # plateau by chance in the first noisy epochs.
        self.min_epochs = min_epochs if min_epochs is not None else max_epochs // 2

    def fit(
        self,
        model: GraphModel,
        graph: Graph,
        loss_fn: Optional[LossFn] = None,
        epoch_callback: Optional[EpochCallback] = None,
    ) -> TrainResult:
        """Train ``model`` on ``graph``; returns metrics of the best epoch.

        Parameters
        ----------
        loss_fn:
            Custom objective; defaults to cross entropy on the training
            split.  Receives ``(model, logits, epoch)``.
        epoch_callback:
            Invoked as ``(epoch, model, eval_logits)`` before each epoch's
            forward pass — RDD uses it to refresh reliability sets.
            ``eval_logits`` are the current eval-mode logits: the ones the
            trainer already computed for last epoch's validation pass (the
            model has not changed in between), so the callback gets them
            for free instead of running a duplicate forward.  Epoch 0
            bootstraps them with one extra forward.
        """
        if loss_fn is None:
            loss_fn = supervised_loss(graph)

        def train_epoch(epoch: int, optimizer: Adam, arena: GradArena) -> Tuple[float, int]:
            with arena.record():
                logits = model(graph)
                loss = loss_fn(model, logits, epoch)
            optimizer.zero_grad()
            arena.backward(loss)
            optimizer.step()
            return loss.item(), 1

        return self._run(model, graph, train_epoch, epoch_callback)

    def _run(
        self,
        model: GraphModel,
        graph: Graph,
        train_epoch: TrainEpoch,
        epoch_callback: Optional[EpochCallback],
        **span_attrs,
    ) -> TrainResult:
        """The epoch loop every trainer shares.

        Each epoch runs ``epoch_callback``, then ``train_epoch(epoch,
        optimizer, arena)``, which takes the epoch's optimizer steps and
        returns ``(summed loss, steps)``; the epoch's loss is their mean.
        Validation runs every epoch and feeds early stopping.
        ``span_attrs`` ride the ``trainer:fit`` span.
        """
        start = time.perf_counter()
        optimizer = Adam(model.parameters(), lr=self.lr, weight_decay=self.weight_decay)
        stopper = EarlyStopping(patience=self.patience)
        best_state = model.state_dict()
        history = []
        eval_logits = None
        # One arena per fit: gradient buffers are recycled step to step.
        arena = GradArena()

        epochs_run = 0
        fit_span = obs.span("trainer:fit", max_epochs=self.max_epochs, **span_attrs)
        with fit_span:
            for epoch in range(self.max_epochs):
                fault_point("trainer:epoch", key=epoch)
                epochs_run = epoch + 1
                with obs.span("epoch", epoch=epoch) as epoch_span:
                    if epoch_callback is not None:
                        if eval_logits is None:  # bootstrap forward for epoch 0 only
                            eval_logits = model.predict_logits(graph)
                        epoch_callback(epoch, model, eval_logits)

                    model.train()
                    total, steps = train_epoch(epoch, optimizer, arena)
                    loss = total / max(steps, 1)

                    eval_logits = model.predict_logits(graph)
                    val_acc = accuracy(eval_logits, graph.labels, graph.val_index)
                    if epoch_span:
                        epoch_span.set(loss=loss, val_accuracy=val_acc, steps=steps)
                if self.record_history:
                    history.append({"epoch": epoch, "loss": loss, "val_accuracy": val_acc})
                should_stop = stopper.update(val_acc, epoch)
                if stopper.improved:
                    best_state = model.state_dict()
                if should_stop and epoch + 1 >= self.min_epochs:
                    break
            if fit_span:
                fit_span.set(epochs_run=epochs_run, best_epoch=stopper.best_epoch)

        model.load_state_dict(best_state)
        predictions = model.predict_logits(graph)
        wall = time.perf_counter() - start
        return TrainResult(
            train_accuracy=accuracy(predictions, graph.labels, graph.train_index),
            val_accuracy=accuracy(predictions, graph.labels, graph.val_index),
            test_accuracy=accuracy(predictions, graph.labels, graph.test_index),
            epochs_run=epochs_run,
            best_epoch=stopper.best_epoch,
            wall_time_s=wall,
            history=history,
            predictions=predictions,
        )


def supervised_loss(graph: Graph) -> LossFn:
    """Factory for the default objective: cross entropy on the training
    split (paper Eq. 3)."""

    def loss_fn(model: GraphModel, logits: Tensor, epoch: int) -> Tensor:
        return masked_cross_entropy_logits(logits, graph.labels, graph.train_index)

    return loss_fn
