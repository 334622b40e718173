"""Evaluation metrics for node classification."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ShapeError


def confusion_matrix(predictions: np.ndarray, labels: np.ndarray, num_classes: Optional[int] = None) -> np.ndarray:
    """``C[i, j]`` = number of nodes with true class ``i`` predicted ``j``."""
    predictions = np.asarray(predictions)
    if predictions.ndim == 2:
        predictions = predictions.argmax(axis=1)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ShapeError(f"shape mismatch: {predictions.shape} vs {labels.shape}")
    k = num_classes if num_classes is not None else int(max(labels.max(), predictions.max())) + 1
    matrix = np.zeros((k, k), dtype=np.int64)
    np.add.at(matrix, (labels, predictions), 1)
    return matrix


def macro_f1(predictions: np.ndarray, labels: np.ndarray, num_classes: Optional[int] = None) -> float:
    """Unweighted mean of per-class F1 scores."""
    matrix = confusion_matrix(predictions, labels, num_classes)
    true_pos = np.diag(matrix).astype(np.float64)
    pred_count = matrix.sum(axis=0).astype(np.float64)
    label_count = matrix.sum(axis=1).astype(np.float64)
    precision = np.divide(true_pos, pred_count, out=np.zeros_like(true_pos), where=pred_count > 0)
    recall = np.divide(true_pos, label_count, out=np.zeros_like(true_pos), where=label_count > 0)
    denom = precision + recall
    f1 = np.divide(2 * precision * recall, denom, out=np.zeros_like(true_pos), where=denom > 0)
    present = label_count > 0
    if not present.any():
        raise ShapeError("macro_f1 needs at least one labeled example")
    return float(f1[present].mean())
