"""Adversarial robustness workload: attacks, robust baselines, sweeps.

RDD's reliability filtering — low-entropy node selection, teacher/student
agreement, reliable-edge Laplacian regularization — is structurally a
*defense* against graph poisoning: a perturbed graph is effectively
heterophilous, and reliability filtering is precisely the machinery that
refuses to distill across untrustworthy nodes and edges.  This package
measures that claim:

* :mod:`repro.robustness.attacks` — seeded structure-perturbation
  attacks (random edge flips, degree-targeted insertion, a DICE-style
  greedy local attack), each emitted as a replayable
  :class:`~repro.graph.delta.DeltaLog` so attacks compose with
  :func:`~repro.graph.delta.apply_delta`'s incremental ``Â`` maintenance
  and can be streamed into the serving engine's delta path;
* :mod:`repro.robustness.aggregation` — robust-aggregation GCN baselines
  (soft-median and trimmed-mean neighbor aggregation) as drop-in layer
  variants on the existing tensor ops;
* :mod:`repro.robustness.sweep` — the harness sweeping perturbation
  budget × {GCN, Bagging, KD, RDD, robust-agg} over seeds, reusing
  ``parallel_map``, checkpoints, and obs spans/events;
* :mod:`repro.robustness.report` — Table-style JSON reports under
  ``reports/`` plus the rendered defense-margin summary.

Entry points: ``repro attack`` (CLI) and ``scripts/robustness_smoke.py``
(CI).  The defense margins are checked by ``TestDefenseFloors`` in
``tests/robustness/test_sweep.py``.
"""

from repro.robustness.attacks import (
    ATTACKS,
    attack_edge_count,
    degree_targeted_attack,
    dice_attack,
    generate_attack,
    perturbation_stats,
    random_flip_attack,
)
from repro.robustness.aggregation import (
    AGGREGATIONS,
    RobustGCN,
    RobustGraphConvolution,
    robust_weights,
    soft_median_weights,
    trimmed_mean_weights,
)
from repro.robustness.sweep import METHODS, run_sweep
from repro.robustness.report import defense_margins, render_summary

__all__ = [
    "ATTACKS",
    "AGGREGATIONS",
    "METHODS",
    "RobustGCN",
    "RobustGraphConvolution",
    "attack_edge_count",
    "defense_margins",
    "degree_targeted_attack",
    "dice_attack",
    "generate_attack",
    "perturbation_stats",
    "random_flip_attack",
    "render_summary",
    "robust_weights",
    "run_sweep",
    "soft_median_weights",
    "trimmed_mean_weights",
]
