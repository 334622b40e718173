"""Figure 3: what the student learns — Knowledge Distillation vs RDD.

The paper's Figure 3 is a schematic: classic KD students mimic *all*
teacher outputs (including wrong ones), RDD students learn only the
reliable knowledge they themselves got wrong.  With synthetic ground
truth this becomes measurable — we compare the *oracle correctness of
the distilled supervision*:

* KD: the teacher's argmax labels over all nodes (what a BANs student
  absorbs);
* RDD: the teacher's argmax labels restricted to the distillation set
  ``V_b`` chosen by Algorithm 1.

The reproduction target is the purity gap: RDD's distilled supervision is
markedly more accurate than KD's, at a fraction of the volume.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.ensemble import EnsembleModel, ensemble_weight
from repro.core.reliability import node_reliability
from repro.evaluation.common import (
    ExperimentReport,
    HarnessConfig,
    load_graphs,
    mean_over_seeds,
    run_over_seeds,
)
from repro.graph.graph import Graph
from repro.models.base import softmax_rows
from repro.models.gcn import GCN
from repro.training.seed import make_rng


def run_purity(graph: Graph, config: HarnessConfig, seed: int) -> Tuple[float, float, float]:
    """One seed's (KD purity, RDD purity, RDD's distilled fraction of nodes)."""
    trainer = config.trainer()
    pagerank = graph.pagerank()

    teacher_ensemble = EnsembleModel()
    for t in range(2):
        model = GCN(graph.num_features, graph.num_classes, make_rng(seed + t), hidden=config.hidden)
        trainer.fit(model, graph)
        logits = model.predict_logits(graph)
        probs = softmax_rows(logits)
        teacher_ensemble.add(probs, logits, ensemble_weight(probs, pagerank))
    teacher_probs = teacher_ensemble.probs()

    student = GCN(graph.num_features, graph.num_classes, make_rng(seed + 99), hidden=config.hidden)
    trainer.fit(student, graph)
    student_probs = softmax_rows(student.predict_logits(graph))

    correct = teacher_probs.argmax(axis=1) == graph.labels
    sets = node_reliability(teacher_probs, student_probs, graph.labels, graph.train_index, p=40.0)
    vb = sets.distill_index
    rdd_purity = float(correct[vb].mean()) if len(vb) else float("nan")
    # KD distills every node's teacher output.
    return float(correct.mean()), rdd_purity, len(vb) / graph.num_nodes


def run(config: Optional[HarnessConfig] = None, dataset: str = "cora") -> ExperimentReport:
    """Measure distilled-supervision purity for KD vs RDD selection."""
    config = config or HarnessConfig()
    report = ExperimentReport(
        experiment=f"Figure 3 (operationalized): distilled-knowledge purity ({dataset})",
        notes=(
            "KD distills every teacher output; RDD only the reliable ones "
            "the student is unsure about.  Purity = fraction of distilled "
            "labels that are actually correct (oracle)."
        ),
    )
    kd_purity, rdd_purity, volumes = zip(
        *run_over_seeds(run_purity, load_graphs(config, dataset), config)
    )
    report.rows.append(
        {
            "selection": "KD (all teacher outputs)",
            "distilled_label_purity": mean_over_seeds(kd_purity),
            "distilled_fraction_of_nodes": 1.0,
        }
    )
    report.rows.append(
        {
            "selection": "RDD (reliable ∩ student-unsure)",
            "distilled_label_purity": mean_over_seeds(rdd_purity),
            "distilled_fraction_of_nodes": mean_over_seeds(volumes),
        }
    )
    return report
