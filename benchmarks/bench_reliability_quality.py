"""Extension bench: oracle quality of the reliability machinery.

Uses the synthetic datasets' known labels to verify the core premise of
Algorithms 1–2 — the teacher is substantially more accurate on nodes it
marks reliable, and reliable edges are purer than the raw edge set —
including under injected feature noise (failure injection).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import emit
from repro.analysis import edge_reliability_quality, node_reliability_quality
from repro.core import node_reliability, teacher_context
from repro.datasets import cora_like
from repro.evaluation.common import ExperimentReport
from repro.models import GCN
from repro.models.base import softmax_rows
from repro.training import Trainer, make_rng


def _reliability_quality(graph, config):
    """Train teacher + student, return node/edge quality diagnostics."""
    trainer = Trainer(max_epochs=config.max_epochs, patience=config.patience)
    teacher_model = GCN(graph.num_features, graph.num_classes, make_rng(0), hidden=config.hidden)
    trainer.fit(teacher_model, graph)
    teacher_probs = softmax_rows(teacher_model.predict_logits(graph))

    student_model = GCN(graph.num_features, graph.num_classes, make_rng(1), hidden=config.hidden)
    trainer.fit(student_model, graph)
    student_probs = softmax_rows(student_model.predict_logits(graph))

    sets = node_reliability(
        student_probs, teacher_context(teacher_probs, graph.labels, graph.train_index, p=40.0)
    )
    nodes = node_reliability_quality(sets, teacher_probs, graph.labels)
    edges = edge_reliability_quality(graph, sets, student_probs.argmax(axis=1))
    return nodes, edges


@pytest.mark.benchmark(group="extensions")
def test_reliability_oracle_quality(benchmark, harness_config):
    def sweep():
        report = ExperimentReport(
            experiment="Extension: oracle reliability quality (cora, clean vs noisy)",
            notes="Reliable nodes must be markedly more accurate; reliable edges purer.",
        )
        for label, noise in (("clean", 0.0), ("30% feature noise", 0.3)):
            graph = cora_like(seed=0, scale=harness_config.scale, feature_noise=noise)
            nodes, edges = _reliability_quality(graph, harness_config)
            report.rows.append(
                {
                    "condition": label,
                    "reliable_precision": nodes.reliable_precision,
                    "unreliable_precision": nodes.unreliable_precision,
                    "separation": nodes.separation,
                    "edge_purity_all": edges.all_edge_same_class_rate,
                    "edge_purity_reliable": edges.reliable_edge_same_class_rate,
                }
            )
        return report

    report = benchmark.pedantic(sweep, iterations=1, rounds=1)
    emit(report)
    for row in report.rows:
        # Core premise: the reliable set is much cleaner than the unreliable one.
        assert row["separation"] > 0.1, f"{row['condition']}: reliability separation too weak"
    clean = next(r for r in report.rows if r["condition"] == "clean")
    noisy = next(r for r in report.rows if r["condition"] != "clean")
    # On clean data the edge filter strictly purifies; under heavy feature
    # noise it must at least stay in the neighborhood of the raw edge set
    # (the filter keys on *predictions*, which the noise degrades too).
    assert clean["edge_purity_reliable"] >= clean["edge_purity_all"] - 0.02
    assert noisy["edge_purity_reliable"] >= noisy["edge_purity_all"] - 0.1
