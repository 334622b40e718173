"""Extension experiment: inductive generalization.

Train on a subgraph with a fraction of the test nodes *hidden* (their
nodes and edges absent), then evaluate on those unseen nodes using the
full graph at inference.  GCN weights are graph-size-independent, so the
trained models transfer; the question is how much accuracy the missing
structure costs, and whether RDD's advantage survives the shift.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.ensemble import uniform_softmax_ensemble
from repro.core.rdd import RDDTrainer
from repro.evaluation.common import (
    ExperimentReport,
    HarnessConfig,
    load_graphs,
    mean_over_seeds,
    run_over_seeds,
)
from repro.graph.graph import Graph
from repro.graph.subgraph import make_inductive_split
from repro.models.base import softmax_rows
from repro.models.gcn import GCN
from repro.tensor.functional import accuracy
from repro.training.seed import make_rng

ROWS = (
    "GCN transductive",
    "GCN inductive",
    "RDD(Ensemble) transductive",
    "RDD(Ensemble) inductive",
)


def run_inductive(
    graph: Graph, config: HarnessConfig, seed: int, unseen_fraction: float
) -> Dict[str, float]:
    """One seed's unseen-node accuracy per row of :data:`ROWS`."""
    split = make_inductive_split(graph, unseen_fraction, make_rng(seed + 500))
    accuracies = {}

    # Transductive references on the full graph.
    gcn_full = GCN(graph.num_features, graph.num_classes, make_rng(seed), hidden=config.hidden)
    config.trainer().fit(gcn_full, graph)
    accuracies["GCN transductive"] = accuracy(
        gcn_full.predict_logits(graph), graph.labels, split.unseen_nodes
    )
    rdd_full = RDDTrainer(config.rdd_config()).fit(graph, seed=seed)
    # Ensemble probabilities cover all nodes; restrict to unseen.
    accuracies["RDD(Ensemble) transductive"] = rdd_full.ensemble_test_accuracy

    # Inductive: train on the observed subgraph only.
    observed = split.observed
    gcn_obs = GCN(observed.num_features, observed.num_classes, make_rng(seed), hidden=config.hidden)
    config.trainer().fit(gcn_obs, observed)
    accuracies["GCN inductive"] = accuracy(
        gcn_obs.predict_logits(graph), graph.labels, split.unseen_nodes
    )

    captured = []

    def factory(g, rng):
        model = GCN(g.num_features, g.num_classes, rng, hidden=config.hidden)
        captured.append(model)
        return model

    RDDTrainer(config.rdd_config(), model_factory=factory).fit(observed, seed=seed)
    # Inference: average the students' full-graph predictions.
    probs = uniform_softmax_ensemble([softmax_rows(m.predict_logits(graph)) for m in captured])
    accuracies["RDD(Ensemble) inductive"] = accuracy(probs, graph.labels, split.unseen_nodes)
    return accuracies


def run(
    config: Optional[HarnessConfig] = None,
    dataset: str = "cora",
    unseen_fraction: float = 0.5,
) -> ExperimentReport:
    """Compare GCN and RDD transductive vs inductive on unseen test nodes."""
    config = config or HarnessConfig()
    report = ExperimentReport(
        experiment=f"Extension: inductive generalization ({dataset}, {unseen_fraction:.0%} unseen)",
        notes=(
            "Models trained without the unseen nodes, evaluated on them via "
            "the full graph.  Expectation: modest drop vs transductive; RDD "
            "stays at or above the GCN in both regimes."
        ),
    )
    per_seed = run_over_seeds(
        run_inductive, load_graphs(config, dataset), config, unseen_fraction=unseen_fraction
    )
    for method in ROWS:
        report.rows.append(
            {"method": method, "unseen_accuracy": mean_over_seeds([r[method] for r in per_seed])}
        )
    return report
