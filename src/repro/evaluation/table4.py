"""Table 4: single-model comparison on the citation networks.

The paper runs LP, Planetoid, and seven GCN variants; several baselines'
numbers are copied from their publications.  This harness reruns every
method (Planetoid, LGCN and GPNN as simplified rebuilds; see their module
docstrings), plus an MLP as an extra reference, and compares them against
RDD's single model.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.baselines.label_propagation import LabelPropagation
from repro.baselines.planetoid import Planetoid
from repro.evaluation.common import (
    ExperimentReport,
    HarnessConfig,
    load_graphs,
    mean_over_seeds,
    run_over_seeds,
    run_rdd,
    run_single_gcn,
)
from repro.models.appnp import APPNP
from repro.models.dgcn import DGCN
from repro.models.gat import GAT
from repro.models.gpnn import GPNN
from repro.models.lgcn import LGCN
from repro.models.mlp import MLP
from repro.models.ngcn import NGCN
from repro.tensor.functional import accuracy
from repro.training.seed import make_rng

PAPER_TABLE4 = {
    "cora": {"LP": 68.0, "Planetoid": 75.7, "LGCN": 83.3, "GPNN": 81.8, "NGCN": 83.0,
             "DGCN": 83.5, "APPNP": 83.3, "GAT": 83.0, "GCN": 81.8, "RDD(Single)": 84.8},
    "citeseer": {"LP": 45.3, "Planetoid": 64.7, "LGCN": 73.0, "GPNN": 69.7, "NGCN": 72.2,
                 "DGCN": 72.6, "APPNP": 71.8, "GAT": 72.5, "GCN": 70.8, "RDD(Single)": 73.6},
    "pubmed": {"LP": 63.0, "Planetoid": 79.5, "LGCN": 79.5, "GPNN": 79.3, "NGCN": 79.5,
               "DGCN": 80.0, "APPNP": 80.1, "GAT": 79.0, "GCN": 79.3, "RDD(Single)": 80.7},
}

DEFAULT_DATASETS = ("cora", "citeseer", "pubmed")


def run(config: Optional[HarnessConfig] = None, datasets: Sequence[str] = DEFAULT_DATASETS) -> ExperimentReport:
    """Rerun every Table 4 method, plus the MLP reference, per dataset."""
    config = config or HarnessConfig()
    report = ExperimentReport(
        experiment="Table 4: single-model comparison",
        notes=(
            "Shape target: RDD(Single) > GCN and > LP by a wide margin; "
            "every method is rerun (Planetoid, LGCN and GPNN as simplified rebuilds)."
        ),
    )
    for dataset in datasets:
        graphs = load_graphs(config, dataset)
        trainer = config.trainer()

        model_factories = {
            "GAT": lambda g, s: GAT(g.num_features, g.num_classes, make_rng(s), dropout=config.dropout),
            "APPNP": lambda g, s: APPNP(g.num_features, g.num_classes, make_rng(s), dropout=config.dropout),
            "NGCN": lambda g, s: NGCN(g.num_features, g.num_classes, make_rng(s),
                                      hidden=config.hidden, dropout=config.dropout),
            "DGCN": lambda g, s: DGCN(g.num_features, g.num_classes, make_rng(s),
                                      hidden=config.hidden, dropout=config.dropout),
            "LGCN": lambda g, s: LGCN(g.num_features, g.num_classes, make_rng(s),
                                      hidden=config.hidden, dropout=config.dropout),
            "GPNN": lambda g, s: GPNN(g.num_features, g.num_classes, make_rng(s),
                                      hidden=config.hidden, dropout=config.dropout),
            "MLP (extra)": lambda g, s: MLP(g.num_features, g.num_classes, make_rng(s), dropout=config.dropout),
        }

        lp_accs, planetoid_accs = [], []
        model_accs = {name: [] for name in model_factories}
        for graph, seed in zip(graphs, config.seeds):
            lp = LabelPropagation()
            lp_accs.append(accuracy(lp.predict(graph), graph.labels, graph.test_index))
            planetoid = Planetoid(epochs=min(config.max_epochs, 100))
            planetoid_accs.append(planetoid.fit(graph, seed=seed).test_accuracy)
            for name, factory in model_factories.items():
                model_accs[name].append(trainer.fit(factory(graph, seed), graph).test_accuracy)
        gcn_accs = [r.test_accuracy for r in run_over_seeds(run_single_gcn, graphs, config)]
        rdd_accs = [
            r.last_base_test_accuracy for r in run_over_seeds(run_rdd, graphs, config)
        ]

        measured = {"LP": mean_over_seeds(lp_accs), "Planetoid": mean_over_seeds(planetoid_accs)}
        measured.update({name: mean_over_seeds(accs) for name, accs in model_accs.items()})
        measured["GCN"] = mean_over_seeds(gcn_accs)
        measured["RDD(Single)"] = mean_over_seeds(rdd_accs)
        for method, acc in measured.items():
            paper = PAPER_TABLE4[dataset].get(method.replace(" (extra)", ""), float("nan"))
            report.rows.append(
                {"dataset": dataset, "method": method, "test_accuracy": acc, "paper_accuracy_pct": paper}
            )
    return report
