"""Shared infrastructure for the per-table/figure experiment harnesses.

Each harness module exposes a ``run(config) -> ExperimentReport`` function
plus paper reference values, so benchmarks, examples, and EXPERIMENTS.md
all drive the same code.  ``HarnessConfig`` controls the compute budget:
the defaults are CPU-benchmark sized (scaled datasets, shortened epochs);
pass ``scale=1.0, max_epochs=300, seeds=range(10)`` to approach the
paper's full protocol.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

import repro.obs as obs
from repro.baselines.bagging import BaggingEnsemble
from repro.baselines.bans import BANsEnsemble
from repro.core.config import RDDConfig
from repro.core.rdd import RDDTrainer
from repro.datasets.registry import load_dataset
from repro.graph.graph import Graph, graph_fingerprint
from repro.models.appnp import APPNP
from repro.models.base import GraphModel
from repro.models.densegcn import DenseGCN
from repro.models.dgcn import DGCN
from repro.models.gat import GAT
from repro.models.gcn import GCN
from repro.models.gpnn import GPNN
from repro.models.jknet import JKNet
from repro.models.lgcn import LGCN
from repro.models.mlp import MLP
from repro.models.ngcn import NGCN
from repro.models.resgcn import ResGCN
from repro.tensor.tensor import default_dtype
from repro.testing.faults import fault_point
from repro.training.checkpoint import CheckpointStore
from repro.training.parallel import get_shared, parallel_map
from repro.training.records import EnsembleResult, TrainResult
from repro.training.sampled import SampledTrainer
from repro.training.seed import make_rng
from repro.training.trainer import Trainer


@dataclass
class HarnessConfig:
    """Compute budget for one experiment harness.

    Attributes
    ----------
    scale:
        Dataset shrink factor (see :meth:`CitationSpec.scaled`).
    seeds:
        Random seeds; results are averaged ("we run each method 10 times
        and report the mean" — we default to fewer for CPU benches).
    num_base_models:
        Ensemble size ``T`` (paper: 5).
    max_epochs / patience:
        Per-model training budget.
    hidden / dropout:
        Base GCN architecture.
    workers:
        Worker processes for the per-seed runs (1 = the serial loop,
        bit-identical to the pre-parallel harness).
    dtype:
        Compute dtype for datasets and models — ``None`` keeps the
        float64 default; ``"float32"`` halves memory bandwidth on the
        spmm/BLAS-bound hot paths.
    checkpoint_dir / resume:
        When ``checkpoint_dir`` is set, every :func:`run_over_seeds`
        loop persists each completed seed cell (atomic, checksummed —
        see :mod:`repro.training.checkpoint`) and, with ``resume``
        (the default), re-runs only the cells a crashed run had not
        finished.  Resumed results are bit-identical to an
        uninterrupted run.
    task_retries / retry_backoff / task_timeout:
        Per-cell fault tolerance forwarded to
        :func:`repro.training.parallel.parallel_map`: retry failing
        cells with exponential backoff, and presume pooled cells lost
        after ``task_timeout`` seconds.
    obs_dir:
        When set, the observability layer (:mod:`repro.obs`) is enabled
        for the run: spans and per-epoch RDD reliability diagnostics are
        appended to ``<obs_dir>/events.jsonl`` (worker processes
        included), summarizable with ``repro report <obs_dir>``.
        ``None`` (the default) keeps observability off at zero cost.
        An execution knob — excluded from the fingerprint.
    """

    scale: float = 0.2
    seeds: Sequence[int] = (0, 1, 2)
    num_base_models: int = 5
    max_epochs: int = 100
    patience: int = 20
    hidden: int = 16
    dropout: float = 0.5
    lr: float = 0.01
    weight_decay: float = 5e-4
    workers: int = 1
    dtype: Optional[str] = None
    checkpoint_dir: Optional[str] = None
    resume: bool = True
    task_retries: int = 0
    retry_backoff: float = 0.05
    task_timeout: Optional[float] = None
    obs_dir: Optional[str] = None
    # Mini-batch neighbor sampling: "full" (default) keeps full-batch
    # training everywhere; "neighbor" switches the GCN/RDD runners to
    # fanout-sampled mini-batches (repro.training.sampled) so training
    # memory scales with batch_size × prod(fanouts), not graph size.
    sampler: str = "full"
    fanouts: Sequence[int] = (10, 10)
    batch_size: int = 512

    def trainer(self) -> Trainer:
        """The full-batch trainer (used by every harness regardless of
        ``sampler`` — baselines that drive arbitrary models stay on the
        full-batch path; GCN/RDD runners switch via :meth:`sampled_trainer`)."""
        return Trainer(
            max_epochs=self.max_epochs,
            patience=self.patience,
            lr=self.lr,
            weight_decay=self.weight_decay,
        )

    def sampled_trainer(self, sample_seed: int = 0) -> SampledTrainer:
        """A neighbor-sampled trainer matching this budget."""
        return SampledTrainer(
            fanouts=tuple(self.fanouts),
            batch_size=self.batch_size,
            sample_seed=sample_seed,
            max_epochs=self.max_epochs,
            patience=self.patience,
            lr=self.lr,
            weight_decay=self.weight_decay,
        )

    def rdd_config(self, **overrides) -> RDDConfig:
        base = dict(
            num_base_models=self.num_base_models,
            max_epochs=self.max_epochs,
            patience=self.patience,
            hidden=self.hidden,
            dropout=self.dropout,
            lr=self.lr,
            weight_decay=self.weight_decay,
            sampler=self.sampler,
            fanouts=tuple(self.fanouts),
            batch_size=self.batch_size,
        )
        base.update(overrides)
        return RDDConfig(**base)

    def checkpoint_store(self) -> Optional[CheckpointStore]:
        """The configured :class:`CheckpointStore` (``None`` when off)."""
        if self.checkpoint_dir is None:
            return None
        return CheckpointStore(self.checkpoint_dir)

    def fingerprint(self) -> dict:
        """The scientific identity of this budget: every field that can
        change results.  Execution knobs (workers, retries, checkpoint
        location) are deliberately excluded — a run may resume with a
        different worker count and still be the same experiment."""
        fingerprint = {
            "scale": self.scale,
            "seeds": tuple(self.seeds),
            "num_base_models": self.num_base_models,
            "max_epochs": self.max_epochs,
            "patience": self.patience,
            "hidden": self.hidden,
            "dropout": self.dropout,
            "lr": self.lr,
            "weight_decay": self.weight_decay,
            "dtype": self.dtype,
        }
        if self.sampler != "full":
            # Sampling changes results, so it is part of the scientific
            # identity; full-batch keys stay unchanged so pre-existing
            # checkpoints remain resumable.
            fingerprint["sampler"] = self.sampler
            fingerprint["fanouts"] = tuple(self.fanouts)
            fingerprint["batch_size"] = self.batch_size
        return fingerprint


@dataclass
class ExperimentReport:
    """Uniform result payload returned by every harness."""

    experiment: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: str = ""

    def format(self) -> str:
        """Render the rows as an aligned text table."""
        if not self.rows:
            return f"[{self.experiment}] (no rows)"
        columns = list(self.rows[0].keys())
        rendered = [[_format_cell(row.get(col)) for col in columns] for row in self.rows]
        widths = [
            max(len(col), *(len(r[i]) for r in rendered)) for i, col in enumerate(columns)
        ]
        header = " | ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
        separator = "-+-".join("-" * w for w in widths)
        body = "\n".join(
            " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(r)) for r in rendered
        )
        title = f"== {self.experiment} =="
        note = f"\n{self.notes}" if self.notes else ""
        return f"{title}\n{header}\n{separator}\n{body}{note}"


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


# ----------------------------------------------------------------------
# Method runners (shared across tables)
# ----------------------------------------------------------------------
def run_single_gcn(graph: Graph, config: HarnessConfig, seed: int, num_layers: int = 2) -> TrainResult:
    """Train one plain GCN (the "Single GCN" rows)."""
    model = GCN(
        graph.num_features,
        graph.num_classes,
        make_rng(seed),
        hidden=config.hidden,
        num_layers=num_layers,
        dropout=config.dropout,
    )
    if config.sampler == "neighbor":
        return config.sampled_trainer(sample_seed=seed).fit(model, graph)
    return config.trainer().fit(model, graph)


# The model-zoo rows (Table 4's GNNs and the deep variants of Table 5 and
# Figure 6): name -> (class, whether it takes the harness's hidden width;
# the others keep their own default widths).
ZOO = {
    "GAT": (GAT, False),
    "APPNP": (APPNP, False),
    "NGCN": (NGCN, True),
    "DGCN": (DGCN, True),
    "LGCN": (LGCN, True),
    "GPNN": (GPNN, True),
    "MLP": (MLP, False),
    "ResGCN": (ResGCN, True),
    "DenseGCN": (DenseGCN, False),
    "JK-Net": (JKNet, False),
}


def zoo_model(name: str, graph: Graph, config: HarnessConfig, rng, **options) -> GraphModel:
    """Build the zoo model ``name`` for ``graph`` under this budget."""
    model_class, sized = ZOO[name]
    if sized:
        options["hidden"] = config.hidden
    return model_class(
        graph.num_features, graph.num_classes, rng, dropout=config.dropout, **options
    )


def run_zoo_model(graph: Graph, config: HarnessConfig, seed: int, model: str, **options) -> TrainResult:
    """Train one zoo model with the full-batch trainer; ``options`` (e.g.
    ``num_layers``) go to its constructor."""
    return config.trainer().fit(zoo_model(model, graph, config, make_rng(seed), **options), graph)


def run_bagging(graph: Graph, config: HarnessConfig, seed: int) -> EnsembleResult:
    """Train the Bagging ensemble baseline."""
    method = BaggingEnsemble(
        num_base_models=config.num_base_models,
        hidden=config.hidden,
        dropout=config.dropout,
        max_epochs=config.max_epochs,
        patience=config.patience,
        lr=config.lr,
        weight_decay=config.weight_decay,
    )
    return method.fit(graph, seed=seed)


def run_bans(graph: Graph, config: HarnessConfig, seed: int) -> EnsembleResult:
    """Train the BANs ensemble baseline."""
    method = BANsEnsemble(
        num_base_models=config.num_base_models,
        hidden=config.hidden,
        dropout=config.dropout,
        max_epochs=config.max_epochs,
        patience=config.patience,
        lr=config.lr,
        weight_decay=config.weight_decay,
    )
    return method.fit(graph, seed=seed)


# Paper §5.1: γ_initial per dataset (1 / 3 / 3 / 0.01).
PAPER_GAMMA_INITIAL = {"cora": 1.0, "citeseer": 3.0, "pubmed": 3.0, "nell": 0.01}


def run_rdd(graph: Graph, config: HarnessConfig, seed: int, **overrides) -> EnsembleResult:
    """Train RDD (ensemble + single metrics in one result).

    When the caller does not override ``gamma_initial``, the paper's
    per-dataset value is applied based on the graph's name.
    """
    if "gamma_initial" not in overrides and graph.name in PAPER_GAMMA_INITIAL:
        overrides = {**overrides, "gamma_initial": PAPER_GAMMA_INITIAL[graph.name]}
    return RDDTrainer(config.rdd_config(**overrides)).fit(graph, seed=seed)


def _run_seed_task(task):
    """Execute one harness cell; the per-seed graph rides the fork as
    shared memory (see :func:`repro.training.parallel.get_shared`)."""
    runner, config, seed, index, kwargs = task
    fault_point("harness:seed", key=index)
    graph = get_shared()[index]
    runner_name = getattr(runner, "__name__", repr(runner))
    with obs.span("harness:seed", seed=seed, index=index, runner=runner_name):
        with default_dtype(config.dtype):
            return runner(graph, config, seed, **kwargs)


def _graph_identity(graph: Graph) -> dict:
    """A seed cell's graph key: :func:`graph_fingerprint` (counts and the
    CSR structure digest) plus a SHA-256 over the features, labels and
    split, so graphs with equal counts never share a checkpoint."""
    features = graph.features
    arrays = [features.data, features.indices, features.indptr] if sp.issparse(features) else [features]
    digest = hashlib.sha256()
    for array in arrays + [graph.labels, graph.train_index, graph.val_index, graph.test_index]:
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())
    return {**graph_fingerprint(graph), "content_sha256": digest.hexdigest()}


def run_over_seeds(
    runner: Callable[..., object],
    graphs: Sequence[Graph],
    config: HarnessConfig,
    **kwargs,
) -> List[object]:
    """Run ``runner(graph, config, seed, **kwargs)`` for each seed's graph.

    This is the harness seed loop, and every harness fit runs through
    it: results come back in seed order and ``config.workers`` controls
    process parallelism (1 = serial, identical to a plain list
    comprehension over the seeds).  The configured compute dtype is
    installed around each run.  Graphs are handed to workers via fork
    inheritance, not pickled per task, so a runner must be a
    module-level function with picklable keyword arguments.

    With ``config.checkpoint_dir`` set, each completed seed cell is
    persisted the moment it finishes (atomic + checksummed), and a
    re-run after a crash executes only the missing cells — cells derive
    independent RNG streams, so the resumed result list is bit-identical
    to an uninterrupted run.  The checkpoint name hashes the runner, its
    keyword arguments, the budget fingerprint and each graph's content,
    so distinct loops inside one harness (or different configs, noise
    levels, attacks or splits) never collide.
    """
    if config.obs_dir is not None:
        obs.enable(config.obs_dir)

    graphs = list(graphs)
    tasks = [
        (runner, config, seed, index, kwargs)
        for index, seed in enumerate(config.seeds)
    ]

    on_result, done = None, None
    store = config.checkpoint_store()
    if store is not None:
        fingerprint = {
            "kind": "run-over-seeds",
            "runner": getattr(runner, "__name__", repr(runner)),
            "kwargs": repr(sorted(kwargs.items())),
            "config": config.fingerprint(),
            "graphs": [_graph_identity(graph) for graph in graphs],
        }
        digest = hashlib.sha256(repr(fingerprint).encode()).hexdigest()[:12]
        name = f"seeds-{fingerprint['runner']}-{digest}"
        saved = (store.load(name, fingerprint=fingerprint) or {}) if config.resume else {}
        done = {int(index): result for index, result in saved.items()}
        known = dict(done)

        def on_result(index, result):
            known[index] = result
            store.save(name, known, fingerprint=fingerprint)

    return parallel_map(
        _run_seed_task,
        tasks,
        workers=config.workers,
        shared=graphs,
        retries=config.task_retries,
        backoff=config.retry_backoff,
        task_timeout=config.task_timeout,
        on_result=on_result,
        completed=done,
    )


def mean_over_seeds(values: Sequence[float]) -> float:
    """Mean of per-seed metrics (the paper reports mean over 10 runs)."""
    return float(np.mean(values))


def std_over_seeds(values: Sequence[float]) -> float:
    """Sample standard deviation across seeds (0 for a single seed)."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1))


def load_graphs(config: HarnessConfig, dataset: str, **generator_kwargs) -> List[Graph]:
    """One graph instance per seed, in the configured dtype (structure
    varies with the seed, as the synthetic stand-ins re-sample the graph;
    this subsumes the paper's repeated-runs protocol).  Generator options
    such as ``feature_noise`` pass through to :func:`load_dataset`."""
    return [
        load_dataset(
            dataset, seed=seed, scale=config.scale, dtype=config.dtype, **generator_kwargs
        )
        for seed in config.seeds
    ]
