"""Extension experiment: robustness to feature noise.

Not a paper artifact — this probes the mechanism the paper sells:
reliability should let RDD degrade more gracefully than plain KD when the
data quality drops.  We corrupt a growing fraction of node features
(features re-sampled from a random class's topic) and compare the single
GCN, BANs (reliability-free KD), and RDD.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.evaluation.common import (
    ExperimentReport,
    HarnessConfig,
    load_graphs,
    mean_over_seeds,
    run_bans,
    run_over_seeds,
    run_rdd,
    run_single_gcn,
)


def run(
    config: Optional[HarnessConfig] = None,
    noise_levels: Sequence[float] = (0.0, 0.2, 0.4),
) -> ExperimentReport:
    """Sweep feature-noise levels on the Cora stand-in."""
    config = config or HarnessConfig()
    report = ExperimentReport(
        experiment="Extension: feature-noise robustness (cora)",
        notes=(
            "Expectation: all methods degrade with noise; RDD stays at or "
            "above the reliability-free KD baseline throughout."
        ),
    )
    for noise in noise_levels:
        graphs = load_graphs(config, "cora", feature_noise=noise)
        gcn = mean_over_seeds(
            [r.test_accuracy for r in run_over_seeds(run_single_gcn, graphs, config)]
        )
        bans = mean_over_seeds(
            [r.ensemble_test_accuracy for r in run_over_seeds(run_bans, graphs, config)]
        )
        rdd = mean_over_seeds(
            [r.ensemble_test_accuracy for r in run_over_seeds(run_rdd, graphs, config)]
        )
        report.rows.append(
            {
                "feature_noise": noise,
                "Single GCN": gcn,
                "BANs": bans,
                "RDD(Ensemble)": rdd,
            }
        )
    return report
