"""Graph-data-based ensemble (paper §4.3).

Base model ``h_t`` receives weight ``α_t = 1 / Σ_i I_t(x_i)·Pr(x_i)``
(Eq. 12): low prediction entropy on important (high-PageRank) nodes means
high confidence, hence high weight.  The teacher ``H_T = Σ_t α_t h_t``
(Eq. 13) averages the base models' softmax outputs with these weights.

We additionally renormalize the weights to sum to one so the teacher's
outputs remain a probability distribution — required because the teacher's
softmax rows feed the entropy computations of Algorithm 1.  Renormalizing
leaves all argmax decisions and relative weightings unchanged.
"""

from __future__ import annotations

import time
from typing import List, Sequence

import numpy as np

from repro.errors import ConfigError, ShapeError
from repro.graph.graph import Graph
from repro.models.base import softmax_rows
from repro.tensor.functional import accuracy, entropy
from repro.tensor.tensor import get_default_dtype
from repro.training.records import EnsembleResult, TrainResult


def ensemble_weight(probs: np.ndarray, pagerank: np.ndarray) -> float:
    """``α_t`` of one base model (Eq. 12) from its softmax outputs."""
    probs = np.asarray(probs, dtype=np.float64)
    pagerank = np.asarray(pagerank, dtype=np.float64)
    if probs.ndim != 2 or pagerank.shape != (probs.shape[0],):
        raise ShapeError(f"probs {probs.shape} incompatible with pagerank {pagerank.shape}")
    weighted_entropy = float((entropy(probs) * pagerank).sum())
    # A perfectly confident model has zero entropy; clamp to keep α finite.
    return 1.0 / max(weighted_entropy, 1e-12)


class EnsembleModel:
    """A weighted softmax-averaging ensemble over stored base predictions.

    Stores, per base model, its softmax outputs, its logits ("node
    embeddings" ``F_t``), and its weight ``α_t``.  Serves as the RDD
    *teacher*: :meth:`probs` drives node reliability, :meth:`embeddings`
    is the distillation target, :meth:`predict` the teacher labels.
    """

    def __init__(self) -> None:
        self._probs: List[np.ndarray] = []
        self._logits: List[np.ndarray] = []
        self._weights: List[float] = []

    def __len__(self) -> int:
        return len(self._probs)

    def add(self, probs: np.ndarray, logits: np.ndarray, weight: float) -> None:
        """Register one trained base model's detached outputs."""
        probs = np.asarray(probs, dtype=get_default_dtype())
        logits = np.asarray(logits, dtype=get_default_dtype())
        if probs.shape != logits.shape:
            raise ShapeError(f"probs {probs.shape} and logits {logits.shape} must match")
        if self._probs and probs.shape != self._probs[0].shape:
            raise ShapeError(
                f"base model output shape {probs.shape} differs from ensemble {self._probs[0].shape}"
            )
        if weight <= 0:
            raise ConfigError(f"ensemble weight must be positive, got {weight}")
        self._probs.append(probs)
        self._logits.append(logits)
        self._weights.append(float(weight))

    @property
    def weights(self) -> np.ndarray:
        """Normalized base-model weights (sum to one)."""
        if not self._weights:
            raise ConfigError("ensemble is empty")
        raw = np.asarray(self._weights, dtype=np.float64)
        return raw / raw.sum()

    @property
    def raw_weights(self) -> np.ndarray:
        """Unnormalized α_t values as computed by Eq. 12."""
        return np.asarray(self._weights, dtype=np.float64)

    def probs(self) -> np.ndarray:
        """Teacher softmax outputs ``H_T(x)`` (Eq. 13, normalized weights)."""
        weights = self.weights
        stacked = np.stack(self._probs)
        return np.einsum("t,tnk->nk", weights.astype(stacked.dtype, copy=False), stacked)

    def embeddings(self) -> np.ndarray:
        """Teacher node embeddings ``F_T(x)``: weighted average of logits."""
        weights = self.weights
        stacked = np.stack(self._logits)
        return np.einsum("t,tnk->nk", weights.astype(stacked.dtype, copy=False), stacked)

    def predict(self) -> np.ndarray:
        """Teacher argmax labels."""
        return self.probs().argmax(axis=1)

    @classmethod
    def from_logits(cls, logits: Sequence[np.ndarray], weights: Sequence[float]) -> "EnsembleModel":
        """The ensemble of base models with these logits and raw α-weights,
        built exactly as :class:`~repro.core.rdd.RDDTrainer` builds its
        teacher (so it reproduces the teacher a fit reports)."""
        ensemble = cls()
        for member_logits, weight in zip(logits, weights):
            ensemble.add(softmax_rows(member_logits), member_logits, float(weight))
        return ensemble

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state(self) -> dict:
        """The full ensemble state (per-model probs/logits/α) for a
        checkpoint.  Arrays are referenced, not copied — the ensemble
        never mutates them after :meth:`add`."""
        return {
            "probs": list(self._probs),
            "logits": list(self._logits),
            "weights": list(self._weights),
        }

    @classmethod
    def from_state(cls, state: dict) -> "EnsembleModel":
        """Rebuild an ensemble captured by :meth:`state`.

        Arrays are restored exactly as stored (no dtype re-cast), so a
        resumed run sees bitwise the teacher the crashed run had.
        """
        ensemble = cls()
        probs, logits, weights = state["probs"], state["logits"], state["weights"]
        if not len(probs) == len(logits) == len(weights):
            raise ShapeError(
                f"inconsistent ensemble state: {len(probs)} probs, "
                f"{len(logits)} logits, {len(weights)} weights"
            )
        ensemble._probs = [np.asarray(p) for p in probs]
        ensemble._logits = [np.asarray(l) for l in logits]
        ensemble._weights = [float(w) for w in weights]
        return ensemble


def uniform_softmax_ensemble(prob_list: Sequence[np.ndarray]) -> np.ndarray:
    """Plain unweighted softmax averaging (Bagging / BANs / WEW ablation)."""
    if not prob_list:
        raise ConfigError("cannot ensemble zero models")
    return np.mean(np.stack([np.asarray(p, dtype=get_default_dtype()) for p in prob_list]), axis=0)


def uniform_ensemble_result(
    graph: Graph, base_results: Sequence[TrainResult], start: float
) -> EnsembleResult:
    """The uniform softmax mean of trained base models (Bagging / BANs).

    Each member contributes its best-checkpoint logits
    (``TrainResult.predictions``); ``ensemble_curve`` holds the test
    accuracy of every prefix of the ensemble, and ``start`` is the
    ``time.perf_counter()`` reading taken when the fit began.
    """
    base_probs = [softmax_rows(result.predictions) for result in base_results]
    ensemble_probs = uniform_softmax_ensemble(base_probs)
    curve = [
        accuracy(uniform_softmax_ensemble(base_probs[: t + 1]), graph.labels, graph.test_index)
        for t in range(len(base_probs))
    ]
    return EnsembleResult(
        ensemble_test_accuracy=accuracy(ensemble_probs, graph.labels, graph.test_index),
        ensemble_val_accuracy=accuracy(ensemble_probs, graph.labels, graph.val_index),
        base_test_accuracies=[accuracy(p, graph.labels, graph.test_index) for p in base_probs],
        base_results=list(base_results),
        wall_time_s=time.perf_counter() - start,
        ensemble_curve=curve,
    )
