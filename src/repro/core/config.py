"""Configuration object for the RDD trainer, including ablation switches."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass
class RDDConfig:
    """Hyperparameters of Reliable Data Distillation (paper §5.1 settings).

    Attributes
    ----------
    num_base_models:
        ``T``, the number of students trained and ensembled (paper: 5).
    p:
        Node-reliability percentile (paper: 40).
    gamma_initial:
        ``γ_initial`` of the cosine annealing schedule, Eq. 14 (paper: 1
        for Cora, 3 for Citeseer/Pubmed, 0.01 for NELL).
    beta:
        Edge-regularization strength.  NOTE on scale: the paper writes
        ``Lreg`` as a *sum* over reliable edges and uses β=10; this
        implementation averages over edges and embedding dimensions so β
        transfers across datasets, which shifts the scale — our β=1 plays
        the role of the paper's β=10 (the Table 7 harness sweeps both
        scales side by side).
    hidden / dropout:
        Base GCN architecture (paper: hidden 16, dropout 0.8 on citation
        networks — we default to 0.5 which is more stable on the smaller
        synthetic stand-ins; harnesses can override).
    max_epochs / patience / lr / weight_decay:
        Training budget per student (paper: 500 epochs, patience 20,
        Adam lr 0.01, L2 5e-4).
    use_node_reliability / use_edge_reliability:
        Ablation switches WNR / WER (WKR = both off).
    use_l2 / use_lreg:
        Ablation switches "No L2" / "No Lreg".
    use_ensemble_weighting:
        WEW ablation: False falls back to uniform (Bagging-style) weights.
    """

    num_base_models: int = 5
    p: float = 40.0
    gamma_initial: float = 1.0
    beta: float = 1.0
    hidden: int = 16
    dropout: float = 0.5
    max_epochs: int = 200
    patience: int = 20
    lr: float = 0.01
    weight_decay: float = 5e-4
    use_node_reliability: bool = True
    use_edge_reliability: bool = True
    use_l2: bool = True
    use_lreg: bool = True
    use_ensemble_weighting: bool = True
    # L2 formulation: "prob_mse" (default, stable), "logit_mse" (literal
    # Eq. 7), or "kl" — see repro.core.losses.DISTILL_MODES.
    distill_mode: str = "prob_mse"
    # Uncertainty score for Algorithm 1's rank thresholds: "entropy"
    # (the paper's), "margin", or "confidence" — an ablatable extension.
    reliability_score: str = "entropy"
    # Record per-epoch loss/val-accuracy history on every student's
    # TrainResult (golden-trajectory regression fixtures rely on this).
    record_history: bool = False
    # Mini-batch neighbor sampling (repro.sampling / SampledTrainer):
    # "full" keeps the paper's full-batch training; "neighbor" trains
    # every student on fanout-sampled blocks so peak memory scales with
    # batch_size × prod(fanouts) instead of the graph.
    sampler: str = "full"
    # Per-layer fanouts, ordered from the output layer inward (the
    # BlockBuilder convention).  Only used when sampler="neighbor".
    fanouts: "tuple[int, ...]" = (10, 10)
    batch_size: int = 512

    def __post_init__(self) -> None:
        if self.num_base_models < 1:
            raise ConfigError(f"num_base_models must be >= 1, got {self.num_base_models}")
        if not 0.0 <= self.p <= 100.0:
            raise ConfigError(f"p must be in [0, 100], got {self.p}")
        # NaN would pass a plain ``< 0`` check and then silently train as
        # the No-L2 / No-Lreg ablation (the loss adds a term only when its
        # coefficient is > 0).
        if not (math.isfinite(self.gamma_initial) and self.gamma_initial >= 0.0):
            raise ConfigError(f"gamma_initial must be finite and >= 0, got {self.gamma_initial}")
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise ConfigError(f"beta must be finite and >= 0, got {self.beta}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        from repro.core.losses import DISTILL_MODES
        from repro.core.scores import RELIABILITY_SCORES

        if self.distill_mode not in DISTILL_MODES:
            raise ConfigError(
                f"distill_mode must be one of {DISTILL_MODES}, got {self.distill_mode!r}"
            )
        if self.reliability_score not in RELIABILITY_SCORES:
            raise ConfigError(
                f"reliability_score must be one of {RELIABILITY_SCORES}, "
                f"got {self.reliability_score!r}"
            )
        if self.sampler not in ("full", "neighbor"):
            raise ConfigError(f"sampler must be 'full' or 'neighbor', got {self.sampler!r}")
        self.fanouts = tuple(int(f) for f in (
            (self.fanouts,) if isinstance(self.fanouts, int) else self.fanouts
        ))
        if not self.fanouts or any(f < 1 for f in self.fanouts):
            raise ConfigError(f"fanouts must be a non-empty tuple of ints >= 1, got {self.fanouts}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")

    def effective_gamma_initial(self) -> float:
        """γ_initial honoring the "No L2" ablation."""
        return self.gamma_initial if self.use_l2 else 0.0

    def effective_beta(self) -> float:
        """β honoring the "No Lreg" ablation."""
        return self.beta if self.use_lreg else 0.0
