"""Reliable Data Distillation — the paper's primary contribution."""

from repro.core.config import RDDConfig
from repro.core.ensemble import EnsembleModel, ensemble_weight, uniform_softmax_ensemble
from repro.core.losses import RDDLossState, rdd_student_loss
from repro.core.rdd import RDDResult, RDDTrainer, train_rdd
from repro.core.reliability import (
    ReliabilitySets,
    TeacherContext,
    edge_reliability,
    entropy_threshold_mask,
    node_reliability,
    teacher_context,
)

__all__ = [
    "RDDConfig",
    "RDDTrainer",
    "RDDResult",
    "train_rdd",
    "ReliabilitySets",
    "TeacherContext",
    "teacher_context",
    "node_reliability",
    "edge_reliability",
    "entropy_threshold_mask",
    "EnsembleModel",
    "ensemble_weight",
    "uniform_softmax_ensemble",
    "RDDLossState",
    "rdd_student_loss",
]
