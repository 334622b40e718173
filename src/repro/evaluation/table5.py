"""Table 5: RDD(Single) vs deep GCN variants (JK-Net, ResGCN, DenseGCN).

The paper's point: making GCNs deeper barely helps (over-smoothing), while
RDD's data-driven use of unlabeled nodes beats every deep variant.  Each
deep model's layer count is tuned on the validation set, as in the paper.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.evaluation.common import (
    ExperimentReport,
    HarnessConfig,
    load_graphs,
    mean_over_seeds,
    run_over_seeds,
    run_rdd,
    run_single_gcn,
    zoo_model,
)
from repro.graph.graph import Graph
from repro.training.records import TrainResult
from repro.training.tuning import grid_search

PAPER_TABLE5 = {
    "cora": {"GCN": 81.8, "JK-Net": 81.8, "ResGCN": 82.2, "DenseGCN": 82.1, "RDD(Single)": 84.8},
    "citeseer": {"GCN": 70.8, "JK-Net": 70.7, "ResGCN": 70.8, "DenseGCN": 70.9, "RDD(Single)": 73.6},
    "pubmed": {"GCN": 79.3, "JK-Net": 78.8, "ResGCN": 78.3, "DenseGCN": 79.1, "RDD(Single)": 80.7},
    "nell": {"GCN": 83.0, "JK-Net": 84.1, "ResGCN": 82.1, "DenseGCN": 83.4, "RDD(Single)": 85.2},
}

DEFAULT_DATASETS = ("cora", "citeseer")
DEFAULT_DEPTHS = (2, 3, 4)
DEEP_MODELS = ("JK-Net", "ResGCN", "DenseGCN")


def run_best_depth(
    graph: Graph, config: HarnessConfig, seed: int, model: str, depths: Sequence[int]
) -> TrainResult:
    """Validation-tune ``model``'s layer count, as the paper does ("we use
    the validation data to tune how many layers each method should use")."""
    outcome = grid_search(
        lambda g, rng, depth: zoo_model(model, g, config, rng, num_layers=depth),
        {"depth": list(depths)},
        graph,
        trainer=config.trainer(),
        seed=seed,
    )
    return outcome.best_result


def run(
    config: Optional[HarnessConfig] = None,
    datasets: Sequence[str] = DEFAULT_DATASETS,
    depths: Sequence[int] = DEFAULT_DEPTHS,
) -> ExperimentReport:
    """Compare validation-tuned deep GCNs with RDD(Single)."""
    config = config or HarnessConfig()
    report = ExperimentReport(
        experiment="Table 5: deep GCN comparison",
        notes="Shape target: deep variants ~= GCN; RDD(Single) beats them all.",
    )
    for dataset in datasets:
        graphs = load_graphs(config, dataset)
        measured = {
            "GCN": mean_over_seeds(
                [r.test_accuracy for r in run_over_seeds(run_single_gcn, graphs, config)]
            )
        }
        for name in DEEP_MODELS:
            results = run_over_seeds(
                run_best_depth, graphs, config, model=name, depths=tuple(depths)
            )
            measured[name] = mean_over_seeds([r.test_accuracy for r in results])
        measured["RDD(Single)"] = mean_over_seeds(
            [r.last_base_test_accuracy for r in run_over_seeds(run_rdd, graphs, config)]
        )
        for method, acc in measured.items():
            report.rows.append(
                {
                    "dataset": dataset,
                    "method": method,
                    "test_accuracy": acc,
                    "paper_accuracy_pct": PAPER_TABLE5[dataset][method],
                }
            )
    return report
