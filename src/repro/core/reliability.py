"""Node and edge reliability (paper §3, Algorithms 1 and 2).

Reliability decides which teacher predictions the student may learn from:

* a **labeled** node is reliable iff the teacher classifies it correctly
  (§3.1; Algorithm 1 line 4 writes the check with the student's
  prediction, but the prose defines reliability through the *teacher's*
  correctness — we follow the prose and note the discrepancy here);
* an **unlabeled** node is reliable iff its teacher-output entropy is in
  the lowest ``p``% over all nodes *and* teacher and student predict the
  same label (Alg. 1 lines 7–8);
* the distillation set ``V_b`` contains the reliable nodes on which the
  *student* is most uncertain — student entropy in the highest ``p``%
  (Alg. 1 line 9): "the student learns data v_i incorrectly but the
  teacher learns it reliably";
* an **edge** is reliable iff both endpoints are reliable and the student
  predicts the same class for them (Alg. 2, Eq. 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigError, ShapeError
from repro.core.scores import uncertainty_score


@dataclass(frozen=True)
class ReliabilitySets:
    """Output of one node-reliability update (Alg. 1).

    Attributes
    ----------
    reliable_mask:
        Boolean mask of ``V_r`` (reliable nodes).
    distill_mask:
        Boolean mask of ``V_b ⊆ V_r`` (teacher reliable, student uncertain)
        — the rows the ``L2`` distillation loss is applied to.
    """

    reliable_mask: np.ndarray
    distill_mask: np.ndarray

    @property
    def distill_index(self) -> np.ndarray:
        """Indices of ``V_b``."""
        return np.flatnonzero(self.distill_mask)

    @property
    def num_reliable(self) -> int:
        return int(self.reliable_mask.sum())

    @property
    def num_distill(self) -> int:
        return int(self.distill_mask.sum())


def entropy_threshold_mask(entropies: np.ndarray, percent: float, lowest: bool) -> np.ndarray:
    """Mask of the ``percent``% nodes with lowest (or highest) entropy.

    The paper avoids absolute entropy thresholds ("a threshold may vary
    significantly for different data and models") in favour of rank-based
    selection; ties are broken by index for determinism.  Degenerate
    inputs stay well-defined: an empty array yields an empty mask, an
    all-equal array falls entirely into the tie-breaking path (index
    order), and 0%/100% short-circuit to none/all without ranking.
    """
    if not 0.0 <= percent <= 100.0:
        raise ConfigError(f"percent must be in [0, 100], got {percent}")
    entropies = np.asarray(entropies)
    if entropies.ndim != 1:
        raise ShapeError(f"entropies must be 1-D, got shape {entropies.shape}")
    n = entropies.size
    count = int(round(n * percent / 100.0))
    mask = np.zeros(n, dtype=bool)
    if count == 0:
        return mask
    if count >= n:
        mask[:] = True
        return mask
    if not np.isfinite(entropies).all():
        # NaNs sort unpredictably through np.partition; the rank-based
        # selection below would silently return the wrong count.
        raise ShapeError("entropies must be finite to rank-select a percentile")
    # O(n) selection instead of a full stable argsort.  A stable argsort
    # breaks boundary ties by index: ``order[:count]`` keeps the
    # *smallest* indices among nodes tied at the threshold entropy,
    # ``order[-count:]`` keeps the *largest*.  Partitioning finds the
    # threshold value; nodes strictly inside are taken wholesale and the
    # tied remainder is filled index-first (or index-last) to reproduce
    # the stable-sort selection exactly.
    if lowest:
        threshold = np.partition(entropies, count - 1)[count - 1]
        strict = np.flatnonzero(entropies < threshold)
        need = count - len(strict)
        tied = np.flatnonzero(entropies == threshold)[:need]
    else:
        threshold = np.partition(entropies, n - count)[n - count]
        strict = np.flatnonzero(entropies > threshold)
        need = count - len(strict)
        ties = np.flatnonzero(entropies == threshold)
        tied = ties[len(ties) - need :]
    mask[strict] = True
    mask[tied] = True
    return mask


@dataclass(frozen=True)
class TeacherContext:
    """Teacher-side constants of Algorithm 1, precomputed once per student.

    The teacher ensemble is frozen for the whole of one student's
    training, so its argmax predictions, its uncertainty ranking (the
    lowest-``p``% threshold mask), and — under the ``"teacher"`` labeled
    check — the labeled-node reliability are identical across every
    per-epoch :func:`node_reliability` call.  Hoisting them out turns the
    per-epoch refresh into student-side work only.
    """

    teacher_probs: np.ndarray
    teacher_pred: np.ndarray
    p: float
    use_reliability: bool
    score: str
    labeled_check: str
    labeled_mask: Optional[np.ndarray] = None
    labeled_reliable: Optional[np.ndarray] = None
    low_teacher_uncertainty: Optional[np.ndarray] = None


def teacher_context(
    teacher_probs: np.ndarray,
    labels: np.ndarray,
    train_index: np.ndarray,
    p: float = 40.0,
    use_reliability: bool = True,
    score: str = "entropy",
    labeled_check: str = "teacher",
) -> TeacherContext:
    """Precompute the teacher-dependent parts of Algorithm 1 (see
    :class:`TeacherContext`)."""
    teacher_probs = np.asarray(teacher_probs)
    if teacher_probs.ndim != 2:
        raise ShapeError(f"teacher probs must be 2-D, got shape {teacher_probs.shape}")
    if labeled_check not in ("teacher", "student"):
        raise ConfigError(
            f"labeled_check must be 'teacher' or 'student', got {labeled_check!r}"
        )
    labels = np.asarray(labels, dtype=np.int64)
    train_index = np.asarray(train_index, dtype=np.int64)
    teacher_pred = teacher_probs.argmax(axis=1)

    labeled_mask = labeled_reliable = low_teacher = None
    if use_reliability:
        n = teacher_probs.shape[0]
        labeled_mask = np.zeros(n, dtype=bool)
        labeled_mask[train_index] = True
        if labeled_check == "teacher":
            labeled_reliable = np.zeros(n, dtype=bool)
            labeled_reliable[train_index] = teacher_pred[train_index] == labels[train_index]
        low_teacher = entropy_threshold_mask(
            uncertainty_score(teacher_probs, score), p, lowest=True
        )
    return TeacherContext(
        teacher_probs=teacher_probs,
        teacher_pred=teacher_pred,
        p=p,
        use_reliability=use_reliability,
        score=score,
        labeled_check=labeled_check,
        labeled_mask=labeled_mask,
        labeled_reliable=labeled_reliable,
        low_teacher_uncertainty=low_teacher,
    )


def node_reliability(
    teacher_probs: np.ndarray,
    student_probs: np.ndarray,
    labels: np.ndarray,
    train_index: np.ndarray,
    p: float = 40.0,
    use_reliability: bool = True,
    score: str = "entropy",
    labeled_check: str = "teacher",
    context: Optional[TeacherContext] = None,
) -> ReliabilitySets:
    """One update of Algorithm 1.

    Parameters
    ----------
    teacher_probs / student_probs:
        Softmax outputs ``H(x)`` and ``h_e(x)`` of shape ``(n, k)``.
    labels:
        Ground-truth labels (only rows in ``train_index`` are consulted).
    train_index:
        Indices of the labeled set ``V_l``.
    p:
        Reliability percentile (paper default 40).
    use_reliability:
        When False (the WNR ablation) every node is treated as reliable,
        reducing RDD's node distillation to classic KD-style mimicry on
        the student's most-uncertain rows.
    score:
        Uncertainty score used for the rank thresholds — ``"entropy"``
        (the paper's), ``"margin"``, or ``"confidence"``
        (see :mod:`repro.core.scores`).
    labeled_check:
        Which model's prediction decides a labeled node's reliability:
        ``"teacher"`` follows §3.1's prose (the default); ``"student"``
        follows the literal Algorithm 1 line 4 (``h_e(x_i) = y_i``).  The
        two readings of the paper disagree; both are provided so the
        discrepancy is executable.
    context:
        Precomputed teacher-side constants from :func:`teacher_context`.
        When given it supersedes ``teacher_probs`` and the
        ``p``/``use_reliability``/``score``/``labeled_check`` arguments;
        results are identical to passing the raw arguments, just cheaper
        when the same frozen teacher drives many refreshes.
    """
    if context is None:
        context = teacher_context(
            teacher_probs,
            labels,
            train_index,
            p=p,
            use_reliability=use_reliability,
            score=score,
            labeled_check=labeled_check,
        )
    teacher_probs = context.teacher_probs
    student_probs = np.asarray(student_probs)
    if teacher_probs.shape != student_probs.shape or teacher_probs.ndim != 2:
        raise ShapeError(
            f"teacher/student probs must share shape (n, k), got {teacher_probs.shape} vs {student_probs.shape}"
        )
    n = teacher_probs.shape[0]
    teacher_pred = context.teacher_pred
    student_pred = student_probs.argmax(axis=1)

    if context.use_reliability:
        labeled_mask = context.labeled_mask

        # Labeled nodes: reliable iff the checking model is correct.
        if context.labeled_check == "teacher":
            reliable = context.labeled_reliable.copy()
        else:
            labels = np.asarray(labels, dtype=np.int64)
            train_index = np.asarray(train_index, dtype=np.int64)
            reliable = np.zeros(n, dtype=bool)
            reliable[train_index] = student_pred[train_index] == labels[train_index]

        # Unlabeled nodes: lowest-p% teacher uncertainty ...
        reliable |= context.low_teacher_uncertainty & ~labeled_mask
        # ... and teacher/student label agreement (Alg. 1 line 8 removes
        # disagreeing nodes from V_r; labeled nodes keep their own rule).
        agree = teacher_pred == student_pred
        reliable &= agree | labeled_mask
    else:
        reliable = np.ones(n, dtype=bool)

    # V_b: reliable nodes whose *student* uncertainty is in the highest p%.
    student_entropy = uncertainty_score(student_probs, score)
    uncertain_student = entropy_threshold_mask(student_entropy, p, lowest=False)
    distill = reliable & uncertain_student
    return ReliabilitySets(reliable_mask=reliable, distill_mask=distill)


def edge_reliability(
    edge_src: np.ndarray,
    edge_dst: np.ndarray,
    reliable_mask: np.ndarray,
    student_pred: np.ndarray,
    use_reliability: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    """Algorithm 2: filter edges to the reliable set ``E_r``.

    ``w_ij = A_ij * B_ij * C_ij`` (Eq. 5): keep edge (i, j) iff it exists,
    both endpoints are reliable, and the student assigns both the same
    class.  With ``use_reliability=False`` (the WER ablation) the endpoint
    reliability factor ``B`` is dropped and plain Graph Laplacian
    Regularization over same-class-predicted edges remains; pass
    ``student_pred=None`` semantics are not supported — callers wanting
    *all* edges simply bypass this function.

    Returns the filtered ``(src, dst)`` arrays.
    """
    edge_src = np.asarray(edge_src, dtype=np.int64)
    edge_dst = np.asarray(edge_dst, dtype=np.int64)
    if edge_src.shape != edge_dst.shape:
        raise ShapeError(f"edge arrays differ: {edge_src.shape} vs {edge_dst.shape}")
    student_pred = np.asarray(student_pred)
    if student_pred.ndim != 1:
        raise ShapeError(f"student predictions must be 1-D, got shape {student_pred.shape}")
    n = student_pred.shape[0]
    if edge_src.size == 0:
        return edge_src, edge_dst
    low = min(int(edge_src.min()), int(edge_dst.min()))
    high = max(int(edge_src.max()), int(edge_dst.max()))
    if low < 0 or high >= n:
        raise ShapeError(
            f"edge endpoints must index {n} nodes, got range [{low}, {high}]"
        )
    same_class = student_pred[edge_src] == student_pred[edge_dst]
    keep = same_class
    if use_reliability:
        reliable_mask = np.asarray(reliable_mask, dtype=bool)
        if reliable_mask.shape != (n,):
            raise ShapeError(
                f"reliable mask covers {reliable_mask.shape} nodes, predictions cover {n}"
            )
        keep = keep & reliable_mask[edge_src] & reliable_mask[edge_dst]
    return edge_src[keep], edge_dst[keep]
