"""Training loop, metrics, seeding, checkpointing, and result records."""

from repro.training.checkpoint import (
    CheckpointError,
    CheckpointStore,
    read_checkpoint,
    write_checkpoint,
)
from repro.training.metrics import confusion_matrix, macro_f1, split_accuracies
from repro.training.parallel import (
    TaskTimeout,
    parallel_map,
    reset_fallback_warnings,
    spawn_seeds,
)
from repro.training.records import EnsembleResult, TrainResult, results_bitwise_equal
from repro.training.seed import make_rng, spawn_rngs
from repro.training.trainer import Trainer, supervised_loss
from repro.training.tuning import GridSearchResult, grid_cells, grid_search

__all__ = [
    "Trainer",
    "grid_search",
    "grid_cells",
    "GridSearchResult",
    "supervised_loss",
    "TrainResult",
    "EnsembleResult",
    "results_bitwise_equal",
    "make_rng",
    "spawn_rngs",
    "parallel_map",
    "spawn_seeds",
    "reset_fallback_warnings",
    "TaskTimeout",
    "CheckpointStore",
    "CheckpointError",
    "read_checkpoint",
    "write_checkpoint",
]
