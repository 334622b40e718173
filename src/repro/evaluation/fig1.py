"""Figure 1: GCN accuracy vs label rate on Cora.

The paper's motivating figure: a regular GCN degrades quickly as the
label rate shrinks from ~5.2% to ~1.3% (accuracy 82% → 75%).  The harness
sweeps equivalent label rates on the Cora stand-in and reports the mean
test accuracy per rate — the reproduction target is the monotone decay.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.datasets.splits import resample_train_index
from repro.evaluation.common import (
    ExperimentReport,
    HarnessConfig,
    load_graphs,
    mean_over_seeds,
    run_over_seeds,
    run_single_gcn,
)

# Label rates of the paper's Figure 1 x-axis (percent) and the approximate
# accuracy curve read off the figure, for EXPERIMENTS.md comparison.
PAPER_LABEL_RATES = (1.3, 2.0, 2.6, 3.3, 3.9, 4.6, 5.2)
PAPER_ACCURACY = {1.3: 75.0, 2.0: 77.5, 2.6: 79.0, 3.3: 80.0, 3.9: 80.5, 4.6: 81.3, 5.2: 81.8}


def run(config: Optional[HarnessConfig] = None, label_rates: Sequence[float] = PAPER_LABEL_RATES) -> ExperimentReport:
    """Sweep label rates; one GCN per (rate, seed)."""
    config = config or HarnessConfig()
    report = ExperimentReport(
        experiment="Figure 1: GCN accuracy vs label rate (cora)",
        notes="Reproduction target: accuracy decays monotonically as labels shrink.",
    )
    graphs = load_graphs(config, "cora")
    for rate in label_rates:
        swept = []
        for graph, seed in zip(graphs, config.seeds):
            per_class = max(1, int(round(rate / 100.0 * graph.num_nodes / graph.num_classes)))
            rng = np.random.default_rng(seed + 10_000)
            forbidden = np.concatenate([graph.val_index, graph.test_index])
            swept.append(graph.with_split(resample_train_index(graph.labels, rng, per_class, forbidden)))
        accs = [r.test_accuracy for r in run_over_seeds(run_single_gcn, swept, config)]
        report.rows.append(
            {
                "label_rate_pct": rate,
                "labels_per_class": max(1, int(round(rate / 100.0 * graphs[0].num_nodes / graphs[0].num_classes))),
                "gcn_accuracy": mean_over_seeds(accs),
                "paper_accuracy_pct": PAPER_ACCURACY.get(rate, float("nan")),
            }
        )
    return report
