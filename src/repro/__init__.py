"""Reproduction of "Reliable Data Distillation on Graph Convolutional
Network" (Zhang et al., SIGMOD 2020).

Quick start::

    from repro import cora_like, RDDConfig, train_rdd

    graph = cora_like(seed=0, scale=0.25)
    result = train_rdd(graph, RDDConfig(num_base_models=3))
    print(result.summary())

Package map:

* :mod:`repro.tensor`   — numpy autodiff engine (PyTorch stand-in)
* :mod:`repro.nn`       — layers, optimizers, schedules
* :mod:`repro.graph`    — graph container, normalizations, PageRank, deltas
* :mod:`repro.datasets` — calibrated synthetic citation networks
* :mod:`repro.models`   — GCN / ResGCN / DenseGCN / JK-Net / GAT / APPNP /
  SGC / GraphSAGE / NGCN / DGCN / LGCN / GPNN / MLP
* :mod:`repro.baselines`— LP, Planetoid, Bagging, BANs
* :mod:`repro.core`     — Reliable Data Distillation (the contribution)
* :mod:`repro.sampling` — neighbor sampling for mini-batch training
* :mod:`repro.training` — trainer loops, checkpoints, records, seeding
* :mod:`repro.evaluation` — one harness per paper table/figure
* :mod:`repro.analysis` — diversity, calibration, over-smoothing, reliability
* :mod:`repro.robustness` — structure attacks, robust aggregation, defense sweep
* :mod:`repro.obs`      — spans, event logs, ``repro report``
* :mod:`repro.serving`  — model artifacts, micro-batched prediction, HTTP API
"""

from repro.core import (
    EnsembleModel,
    RDDConfig,
    RDDResult,
    RDDTrainer,
    edge_reliability,
    node_reliability,
    train_rdd,
)
from repro.datasets import (
    citeseer_like,
    cora_like,
    load_dataset,
    nell_like,
    pubmed_like,
)
from repro.graph import Graph
from repro.models import GCN
from repro.training import Trainer

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Graph",
    "GCN",
    "Trainer",
    "RDDConfig",
    "RDDTrainer",
    "RDDResult",
    "train_rdd",
    "node_reliability",
    "edge_reliability",
    "EnsembleModel",
    "cora_like",
    "citeseer_like",
    "pubmed_like",
    "nell_like",
    "load_dataset",
]
