"""Baseline methods the paper compares against (all runnable locally)."""

from repro.baselines.bagging import BaggingEnsemble
from repro.baselines.bans import BANsEnsemble
from repro.baselines.label_propagation import LabelPropagation
from repro.baselines.planetoid import Planetoid

__all__ = [
    "LabelPropagation",
    "BaggingEnsemble",
    "BANsEnsemble",
    "Planetoid",
]
