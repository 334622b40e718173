"""Loss functions and related composites built on the autodiff ops.

These are the objectives used throughout the reproduction:

* :func:`cross_entropy` — the supervised loss ``L1`` (Eq. 3 / Eq. 6);
* :func:`masked_cross_entropy` — ``L1`` restricted to an index set;
* :func:`embedding_mse` — the distillation loss ``L2`` (Eq. 7);
* :func:`edge_regularization` — the reliable-edge loss ``Lreg`` (Eq. 9);
* :func:`kl_divergence` — teacher/student KL used by the BANs baseline;
* :func:`entropy` — Shannon entropy of softmax rows (reliability scoring).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ShapeError
from repro.tensor import fused, ops
from repro.tensor.tensor import Tensor, as_tensor, get_default_dtype

_EPS = 1e-12


def cross_entropy(log_probs: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood given row-wise ``log_probs``.

    Parameters
    ----------
    log_probs:
        Tensor of shape ``(n, k)`` holding log-softmax outputs.
    labels:
        Integer class indices of shape ``(n,)``.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if log_probs.ndim != 2 or labels.ndim != 1 or len(labels) != log_probs.shape[0]:
        raise ShapeError(f"cross_entropy shapes mismatch: {log_probs.shape} vs labels {labels.shape}")
    picked = ops.gather(log_probs, (np.arange(len(labels)), labels))
    return -ops.mean(picked)


def masked_cross_entropy_logits(logits: Tensor, labels: np.ndarray, index: np.ndarray) -> Tensor:
    """Cross entropy on ``index`` rows of raw ``logits``.

    Equivalent to ``masked_cross_entropy(log_softmax(logits), ...)`` but
    applies the log-softmax *after* row selection: on sparsely labeled
    graphs that shrinks the normalization from all nodes to the labeled
    handful.  Because log-softmax is row-wise and the index rows are
    unique, both the loss and the gradient reaching ``logits`` are
    bitwise identical to the full-matrix formulation.

    The whole gather → log-softmax → NLL chain is emitted as the single
    :func:`repro.tensor.fused.softmax_cross_entropy` tape node, which is
    itself bitwise identical to the elementary chain.
    """
    index = np.asarray(index, dtype=np.int64)
    if index.size == 0:
        return Tensor(0.0)
    return fused.softmax_cross_entropy(logits, labels, index)


def masked_cross_entropy(log_probs: Tensor, labels: np.ndarray, index: np.ndarray) -> Tensor:
    """Cross entropy evaluated only on the rows listed in ``index``."""
    index = np.asarray(index, dtype=np.int64)
    if index.size == 0:
        return Tensor(0.0)
    rows = ops.gather(log_probs, index)
    return cross_entropy(rows, np.asarray(labels)[index])


def embedding_mse(student: Tensor, teacher: np.ndarray, index: Optional[np.ndarray] = None) -> Tensor:
    """Distillation loss ``L2``: mean squared embedding distance (Eq. 7).

    Matches the student's (pre-softmax) embeddings to the teacher's on the
    rows in ``index`` (all rows when None).  The teacher side is a constant
    ndarray — gradients only flow into the student.
    """
    teacher = np.asarray(teacher, dtype=get_default_dtype())
    if index is not None:
        index = np.asarray(index, dtype=np.int64)
        if index.size == 0:
            return Tensor(0.0)
        student = ops.gather(student, index)
        teacher = teacher[index]
    if student.shape != teacher.shape:
        raise ShapeError(f"embedding_mse shapes mismatch: {student.shape} vs {teacher.shape}")
    diff = ops.sub(student, Tensor(teacher))
    per_row = ops.sum(ops.mul(diff, diff), axis=1)
    return ops.mean(per_row)


def edge_regularization(embeddings: Tensor, edge_src: np.ndarray, edge_dst: np.ndarray) -> Tensor:
    """Graph-Laplacian regularizer ``Lreg`` over a set of edges (Eq. 9).

    ``mean over (i, j) of || f(x_i) - f(x_j) ||^2`` for the provided edge
    endpoint index arrays.  Returns 0 when the edge set is empty.
    """
    edge_src = np.asarray(edge_src, dtype=np.int64)
    edge_dst = np.asarray(edge_dst, dtype=np.int64)
    if edge_src.shape != edge_dst.shape:
        raise ShapeError(f"edge index arrays differ in shape: {edge_src.shape} vs {edge_dst.shape}")
    if edge_src.size == 0:
        return Tensor(0.0)
    src = ops.gather(embeddings, edge_src)
    dst = ops.gather(embeddings, edge_dst)
    diff = ops.sub(src, dst)
    per_edge = ops.sum(ops.mul(diff, diff), axis=1)
    return ops.mean(per_edge)


def kl_divergence(student_log_probs: Tensor, teacher_probs: np.ndarray) -> Tensor:
    """Mean ``KL(teacher || student)`` with a constant teacher distribution.

    Dropping the teacher-entropy term (constant w.r.t. the student) this is
    the cross entropy ``-sum_k teacher_k * log student_k`` averaged over rows,
    which is the standard knowledge-distillation objective.
    """
    teacher_probs = np.asarray(teacher_probs, dtype=get_default_dtype())
    if student_log_probs.shape != teacher_probs.shape:
        raise ShapeError(
            f"kl_divergence shapes mismatch: {student_log_probs.shape} vs {teacher_probs.shape}"
        )
    per_row = -ops.sum(ops.mul(Tensor(teacher_probs), student_log_probs), axis=1)
    return ops.mean(per_row)


def entropy(probs: np.ndarray, axis: int = -1) -> np.ndarray:
    """Shannon entropy ``-sum p log p`` of probability rows (plain numpy).

    Used for reliability scoring (Alg. 1) and ensemble weighting (Eq. 11);
    these consume detached predictions, so no autodiff is needed.
    """
    probs = np.asarray(probs, dtype=get_default_dtype())
    clipped = np.clip(probs, _EPS, 1.0)
    return -(probs * np.log(clipped)).sum(axis=axis)


def l2_penalty(parameters) -> Tensor:
    """Sum of squared entries over an iterable of parameter tensors."""
    total: Optional[Tensor] = None
    for param in parameters:
        term = ops.sum(ops.mul(param, param))
        total = term if total is None else ops.add(total, term)
    if total is None:
        return Tensor(0.0)
    return total


def accuracy(predictions: np.ndarray, labels: np.ndarray, index: Optional[np.ndarray] = None) -> float:
    """Fraction of correct argmax predictions, optionally over ``index``."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.ndim == 2:
        predictions = predictions.argmax(axis=1)
    if index is not None:
        predictions = predictions[index]
        labels = labels[index]
    if len(labels) == 0:
        raise ShapeError("accuracy over an empty index set is undefined")
    return float((predictions == labels).mean())
