"""Scalar schedules used during training.

The paper anneals the knowledge-transfer coefficient γ with a cosine
schedule (Eq. 14): ``γ(e) = γ_initial * (1 - cos(e * π / E))``, so early
epochs (inaccurate student) put little weight on the distillation and edge
losses, ramping up to ``2 γ_initial`` at the final epoch.
"""

from __future__ import annotations

import math


def cosine_annealing_gamma(initial: float, epoch: int, total_epochs: int) -> float:
    """γ schedule from paper Eq. 14.

    Parameters
    ----------
    initial:
        ``γ_initial`` (1, 3, 3, 0.01 for Cora/Citeseer/Pubmed/NELL in the paper).
    epoch:
        Current epoch ``e`` (0-based or 1-based both accepted; clipped to range).
    total_epochs:
        Total epochs ``E``; must be positive.
    """
    if total_epochs <= 0:
        raise ValueError(f"total_epochs must be positive, got {total_epochs}")
    e = min(max(epoch, 0), total_epochs)
    return initial * (1.0 - math.cos(e * math.pi / total_epochs))


class EarlyStopping:
    """Patience-based early stopping on a validation metric (higher = better).

    The paper trains each base model up to 500 epochs and stops when the
    validation accuracy has not improved for 20 consecutive evaluations.
    """

    def __init__(self, patience: int = 20):
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        self.patience = patience
        self.best_metric = -math.inf
        self.best_epoch = -1
        self._bad_steps = 0

    def update(self, metric: float, epoch: int) -> bool:
        """Record ``metric`` at ``epoch``; return True when training should stop."""
        if metric > self.best_metric:
            self.best_metric = metric
            self.best_epoch = epoch
            self._bad_steps = 0
            return False
        self._bad_steps += 1
        return self._bad_steps >= self.patience

    @property
    def improved(self) -> bool:
        """True immediately after an update that set a new best."""
        return self._bad_steps == 0
