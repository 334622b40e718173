"""Scenario: infer paper topics in a citation network with scarce labels.

This is the workload the paper's introduction motivates: a citation graph
where labeling articles is expensive, so only a handful per topic are
labeled.  The script runs four of Table 4's rows on a Citeseer-like
network: label propagation (graph only), an MLP (features only), the GCN
(both) and RDD.

Run with::

    python examples/citation_topic_classification.py
"""

from __future__ import annotations

from repro import GCN, RDDConfig, Trainer, citeseer_like, train_rdd
from repro.baselines import LabelPropagation
from repro.models import MLP
from repro.tensor.functional import accuracy
from repro.training import make_rng


def main() -> None:
    graph = citeseer_like(seed=7, scale=0.25)
    print(f"dataset: {graph}")
    print(f"labeled papers: {len(graph.train_index)} of {graph.num_nodes} "
          f"({graph.label_rate:.1%})\n")

    results = {}

    lp = LabelPropagation()
    results["Label Propagation"] = accuracy(lp.predict(graph), graph.labels, graph.test_index)

    mlp = MLP(graph.num_features, graph.num_classes, make_rng(1))
    results["MLP"] = Trainer(max_epochs=120).fit(mlp, graph).test_accuracy

    gcn = GCN(graph.num_features, graph.num_classes, make_rng(1))
    results["GCN"] = Trainer(max_epochs=120).fit(gcn, graph).test_accuracy

    rdd = train_rdd(graph, RDDConfig(num_base_models=4, max_epochs=120, gamma_initial=3.0), seed=1)
    results["RDD (single)"] = rdd.last_base_test_accuracy
    results["RDD (ensemble)"] = rdd.ensemble_test_accuracy

    print(f"{'method':22s} test accuracy")
    print("-" * 38)
    for method, acc in sorted(results.items(), key=lambda kv: kv[1]):
        print(f"{method:22s} {acc:.4f}")


if __name__ == "__main__":
    main()
