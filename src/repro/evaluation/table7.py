"""Table 7: hyperparameter grid p × γ × β on Cora.

The paper's grid: p ∈ {40, 80}, γ_initial ∈ {0, 0.5, 1, 1.5},
β ∈ {0, 5, 10, 15}; best cell (86.1%) at p=40, γ=1, β=10.
Reproduction targets: γ=0 column is clearly worst; moderate p beats
aggressive p; the surface is otherwise flat-ish (all cells beat Bagging).
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
)

PAPER_TABLE7 = {
    # (p, gamma, beta) -> accuracy
    (40, 0.0, 0): 84.2, (40, 0.5, 0): 84.8, (40, 1.0, 0): 85.2, (40, 1.5, 0): 85.3,
    (40, 0.0, 5): 84.5, (40, 0.5, 5): 84.7, (40, 1.0, 5): 85.4, (40, 1.5, 5): 85.2,
    (40, 0.0, 10): 84.4, (40, 0.5, 10): 84.9, (40, 1.0, 10): 86.1, (40, 1.5, 10): 85.5,
    (40, 0.0, 15): 84.6, (40, 0.5, 15): 84.7, (40, 1.0, 15): 85.8, (40, 1.5, 15): 85.3,
    (80, 0.0, 0): 84.2, (80, 0.5, 0): 84.8, (80, 1.0, 0): 85.1, (80, 1.5, 0): 84.9,
    (80, 0.0, 5): 84.4, (80, 0.5, 5): 84.9, (80, 1.0, 5): 85.0, (80, 1.5, 5): 85.1,
    (80, 0.0, 10): 84.3, (80, 0.5, 10): 84.8, (80, 1.0, 10): 85.3, (80, 1.5, 10): 85.4,
    (80, 0.0, 15): 84.5, (80, 0.5, 15): 84.5, (80, 1.0, 15): 85.2, (80, 1.5, 15): 85.1,
}

DEFAULT_P = (40.0, 80.0)
DEFAULT_GAMMA = (0.0, 0.5, 1.0, 1.5)
# Our Lreg is edge- and dimension-averaged, so β is on a different scale
# than the paper's summed formulation: our {0, 0.5, 1, 1.5} plays the role
# of the paper's {0, 5, 10, 15} (see RDDConfig.beta).
DEFAULT_BETA = (0.0, 0.5, 1.0, 1.5)
_PAPER_BETA_FOR = {0.0: 0, 0.5: 5, 1.0: 10, 1.5: 15}


def run(
    config: Optional[HarnessConfig] = None,
    dataset: str = "cora",
    p_values: Sequence[float] = DEFAULT_P,
    gamma_values: Sequence[float] = DEFAULT_GAMMA,
    beta_values: Sequence[float] = DEFAULT_BETA,
) -> ExperimentReport:
    """Full RDD run per grid cell; ensemble test accuracy averaged over seeds."""
    config = config or HarnessConfig()
    report = ExperimentReport(
        experiment=f"Table 7: hyperparameter grid ({dataset})",
        notes="Shape targets: gamma=0 worst; p=40 >= p=80 at the best cells.",
    )
    graphs = load_graphs(config, dataset)
    for p in p_values:
        for gamma in gamma_values:
            for beta in beta_values:
                results = run_over_seeds(
                    run_rdd, graphs, config, p=p, gamma_initial=gamma, beta=beta
                )
                accs = [r.ensemble_test_accuracy for r in results]
                paper_beta = _PAPER_BETA_FOR.get(beta, int(beta))
                report.rows.append(
                    {
                        "p": p,
                        "gamma": gamma,
                        "beta": beta,
                        "ensemble_accuracy": mean_over_seeds(accs),
                        "paper_accuracy_pct": PAPER_TABLE7.get(
                            (int(p), float(gamma), paper_beta), float("nan")
                        ),
                    }
                )
    return report
