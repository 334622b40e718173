"""Result records produced by trainers and experiment harnesses."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np


@dataclass
class TrainResult:
    """Outcome of training one model."""

    train_accuracy: float
    val_accuracy: float
    test_accuracy: float
    epochs_run: int
    best_epoch: int
    wall_time_s: float
    history: List[Dict[str, float]] = field(default_factory=list)
    # Best-checkpoint eval-mode logits over all nodes.  Callers that need
    # predictions after training (ensembling, reporting) reuse these
    # instead of paying another full-graph forward.
    predictions: Optional[np.ndarray] = None

    def summary(self) -> str:
        return (
            f"val={self.val_accuracy:.4f} test={self.test_accuracy:.4f} "
            f"(epochs={self.epochs_run}, best@{self.best_epoch}, {self.wall_time_s:.2f}s)"
        )


@dataclass
class EnsembleResult:
    """Outcome of training an ensemble method."""

    ensemble_test_accuracy: float
    ensemble_val_accuracy: float
    base_test_accuracies: List[float]
    base_results: List[TrainResult] = field(default_factory=list)
    wall_time_s: float = 0.0
    # Test accuracy of the ensemble restricted to the first t base models,
    # for t = 1..T (drives the Table 9 efficiency analysis).
    ensemble_curve: List[float] = field(default_factory=list)

    @property
    def average_base_accuracy(self) -> float:
        """Mean test accuracy of the base models (Table 6's "Average" row)."""
        return float(sum(self.base_test_accuracies) / len(self.base_test_accuracies))

    @property
    def last_base_test_accuracy(self) -> float:
        """Test accuracy of the final base model (RDD's "single model")."""
        return self.base_test_accuracies[-1]

    @property
    def average_model_time_s(self) -> float:
        """Mean wall time per base model (Table 9's "average time per model")."""
        if not self.base_results:
            return 0.0
        return float(sum(r.wall_time_s for r in self.base_results) / len(self.base_results))

    def models_to_reach(self, target_accuracy: float) -> Optional[int]:
        """Smallest ensemble prefix reaching ``target_accuracy`` (None if never)."""
        for count, acc in enumerate(self.ensemble_curve, start=1):
            if acc >= target_accuracy:
                return count
        return None

    def summary(self) -> str:
        return (
            f"ensemble={self.ensemble_test_accuracy:.4f} "
            f"avg_base={self.average_base_accuracy:.4f} "
            f"last_base={self.last_base_test_accuracy:.4f} "
            f"({len(self.base_test_accuracies)} models, {self.wall_time_s:.2f}s)"
        )


# ----------------------------------------------------------------------
# Bit-identity comparison (crash/resume and parallel/serial parity)
# ----------------------------------------------------------------------
def _arrays_equal(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b)


def results_bitwise_equal(a, b) -> bool:
    """Whether two result records are *bit-identical*, ignoring timing.

    This is the correctness oracle for the crash-safe runtime: a harness
    resumed from a checkpoint, or re-run with a different worker count,
    must reproduce every accuracy, every prediction array, and every
    ensemble weight exactly — only wall-clock fields may differ.  Extra
    fields carried by subclasses (e.g. ``RDDResult.ensemble_weights``
    and ``reliability_history``) are compared via duck typing so this
    module stays free of a dependency on :mod:`repro.core`.
    """
    if isinstance(a, TrainResult) or isinstance(b, TrainResult):
        if not (isinstance(a, TrainResult) and isinstance(b, TrainResult)):
            return False
        return (
            a.train_accuracy == b.train_accuracy
            and a.val_accuracy == b.val_accuracy
            and a.test_accuracy == b.test_accuracy
            and a.epochs_run == b.epochs_run
            and a.best_epoch == b.best_epoch
            and _history_equal(a.history, b.history)
            and _arrays_equal(a.predictions, b.predictions)
        )
    if isinstance(a, EnsembleResult) or isinstance(b, EnsembleResult):
        if not (isinstance(a, EnsembleResult) and isinstance(b, EnsembleResult)):
            return False
        return (
            a.ensemble_test_accuracy == b.ensemble_test_accuracy
            and a.ensemble_val_accuracy == b.ensemble_val_accuracy
            and list(a.base_test_accuracies) == list(b.base_test_accuracies)
            and list(a.ensemble_curve) == list(b.ensemble_curve)
            and len(a.base_results) == len(b.base_results)
            and all(
                results_bitwise_equal(x, y) for x, y in zip(a.base_results, b.base_results)
            )
            and getattr(a, "reliability_history", None) == getattr(b, "reliability_history", None)
            and _arrays_equal(
                getattr(a, "ensemble_weights", None), getattr(b, "ensemble_weights", None)
            )
        )
    return a == b


def _history_equal(a, b) -> bool:
    """Per-epoch histories match exactly (loss values are deterministic)."""
    return list(a) == list(b)
