"""Scenario: inspect what "reliability" actually selects.

The paper's core claim is that reliable nodes/edges carry trustworthy
knowledge.  This script verifies that empirically on a Cora-like graph:

1. trains a teacher ensemble and a fresh student;
2. computes node reliability (Alg. 1) and edge reliability (Alg. 2);
3. measures *oracle* precision — how often the teacher is actually right
   on reliable vs unreliable nodes, and how often reliable edges really
   connect same-class nodes;
4. injects feature noise and shows the reliable set absorbs the damage
   (noisy nodes are demoted to unreliable rather than contaminating V_b).

Run with::

    python examples/reliability_analysis.py
"""

from __future__ import annotations

import numpy as np

from repro import GCN, Trainer, cora_like
from repro.core import (
    EnsembleModel,
    edge_reliability,
    ensemble_weight,
    node_reliability,
    teacher_context,
)
from repro.models.base import softmax_rows
from repro.training import make_rng


def build_teacher(graph, num_models: int = 3, seed: int = 0) -> EnsembleModel:
    """A small RDD-style teacher: independently trained, weighted GCNs."""
    teacher = EnsembleModel()
    pagerank = graph.pagerank()
    trainer = Trainer(max_epochs=120)
    for t in range(num_models):
        model = GCN(graph.num_features, graph.num_classes, make_rng(seed + t))
        trainer.fit(model, graph)
        logits = model.predict_logits(graph)
        probs = softmax_rows(logits)
        teacher.add(probs, logits, ensemble_weight(probs, pagerank))
    return teacher


def reliability_report(graph, title: str) -> None:
    teacher = build_teacher(graph)
    student = GCN(graph.num_features, graph.num_classes, make_rng(99))
    Trainer(max_epochs=120).fit(student, graph)
    student_probs = softmax_rows(student.predict_logits(graph))
    teacher_probs = teacher.probs()

    sets = node_reliability(
        student_probs, teacher_context(teacher_probs, graph.labels, graph.train_index, p=40.0)
    )
    teacher_pred = teacher_probs.argmax(axis=1)
    correct = teacher_pred == graph.labels

    reliable = sets.reliable_mask
    print(f"--- {title} ---")
    print(f"reliable nodes: {sets.num_reliable}/{graph.num_nodes} "
          f"(distillation set V_b: {sets.num_distill})")
    print(f"teacher precision on reliable nodes  : {correct[reliable].mean():.4f}")
    print(f"teacher precision on unreliable nodes: {correct[~reliable].mean():.4f}")

    src, dst = graph.edge_list()
    r_src, r_dst = edge_reliability(src, dst, reliable, student_probs.argmax(axis=1))
    same_class_all = (graph.labels[src] == graph.labels[dst]).mean()
    if len(r_src):
        same_class_reliable = (graph.labels[r_src] == graph.labels[r_dst]).mean()
    else:
        same_class_reliable = float("nan")
    print(f"edges: {len(src)} total, {len(r_src)} reliable")
    print(f"same-class rate: all edges {same_class_all:.4f}, "
          f"reliable edges {same_class_reliable:.4f}\n")


def main() -> None:
    clean = cora_like(seed=3, scale=0.25)
    reliability_report(clean, "clean features")

    noisy = cora_like(seed=3, scale=0.25, feature_noise=0.3)
    reliability_report(noisy, "30% feature noise injected")

    print("Expected: reliable-node precision >> unreliable-node precision, and")
    print("reliable edges are purer than the raw edge set — under noise too.")


if __name__ == "__main__":
    main()
