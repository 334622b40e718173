"""Figure 6: accuracy vs labeled-data-per-class on Cora.

(a) single models: GCN, ResGCN, DenseGCN, JK-Net vs RDD(Single);
(b) ensembles: Bagging, BANs vs RDD(Ensemble).

Reproduction targets: RDD(Single) dominates the single models across the
sweep; the RDD-vs-Bagging ensemble margin narrows as labels grow.
Validation and test sets stay fixed while the training set is resampled,
exactly as in the paper.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.datasets.splits import max_train_per_class, resample_train_index
from repro.evaluation.common import (
    ExperimentReport,
    HarnessConfig,
    load_graphs,
    mean_over_seeds,
    run_bagging,
    run_bans,
    run_over_seeds,
    run_rdd,
    run_single_gcn,
    run_zoo_model,
)

# The paper sweeps {5, 10, 15, 20, 35, 50, 65, 77} on full-scale Cora.
PAPER_SWEEP = (5, 10, 15, 20, 35, 50, 65, 77)


def _sweep_points(graphs, requested: Sequence[int]) -> Sequence[int]:
    """Clip the sweep to what every seed's (possibly scaled) graph can supply."""
    cap = min(
        max_train_per_class(g.labels, np.concatenate([g.val_index, g.test_index])) for g in graphs
    )
    points = sorted({min(p, cap) for p in requested})
    return [p for p in points if p >= 1]


def run(
    config: Optional[HarnessConfig] = None,
    dataset: str = "cora",
    sweep: Sequence[int] = (3, 5, 8, 12, 18),
    include_deep: bool = True,
) -> ExperimentReport:
    """Sweep labels-per-class for the single- and ensemble-model panels.

    The default sweep is scaled for benchmark-sized graphs; pass
    ``sweep=PAPER_SWEEP`` with ``scale=1.0`` for the full protocol.
    """
    config = config or HarnessConfig()
    report = ExperimentReport(
        experiment=f"Figure 6: accuracy vs labels per class ({dataset})",
        notes=(
            "Shape targets: (a) RDD(Single) above all single models at every point; "
            "(b) RDD(Ensemble) above Bagging/BANs, margin narrowing with more labels."
        ),
    )
    graphs = load_graphs(config, dataset)
    points = _sweep_points(graphs, sweep)

    for per_class in points:
        swept = []
        for graph, seed in zip(graphs, config.seeds):
            rng = np.random.default_rng(seed + 20_000 + per_class)
            forbidden = np.concatenate([graph.val_index, graph.test_index])
            swept.append(graph.with_split(resample_train_index(graph.labels, rng, per_class, forbidden)))

        gcn = run_over_seeds(run_single_gcn, swept, config)
        row = {"labels_per_class": per_class, "GCN": mean_over_seeds([r.test_accuracy for r in gcn])}
        if include_deep:
            for name in ("ResGCN", "DenseGCN", "JK-Net"):
                deep = run_over_seeds(run_zoo_model, swept, config, model=name, num_layers=3)
                row[name] = mean_over_seeds([r.test_accuracy for r in deep])
        bagging = run_over_seeds(run_bagging, swept, config)
        bans = run_over_seeds(run_bans, swept, config)
        rdd = run_over_seeds(run_rdd, swept, config)
        row["RDD(Single)"] = mean_over_seeds([r.last_base_test_accuracy for r in rdd])
        row["Bagging"] = mean_over_seeds([r.ensemble_test_accuracy for r in bagging])
        row["BANs"] = mean_over_seeds([r.ensemble_test_accuracy for r in bans])
        row["RDD(Ensemble)"] = mean_over_seeds([r.ensemble_test_accuracy for r in rdd])
        report.rows.append(row)
    return report
