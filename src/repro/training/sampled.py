"""Mini-batch neighbor-sampled training loop.

The memory-bounded counterpart of :class:`repro.training.trainer.Trainer`:
instead of one full-graph forward per epoch, each epoch visits the seed
pool in shuffled batches, builds per-batch normalized Â blocks with a
:class:`repro.sampling.BlockBuilder`, and steps the optimizer once per
batch.  Training cost and the training-pass peak memory then scale with
``batch_size × prod(fanouts)`` instead of with the graph.

Only the epoch's steps are its own: the epoch loop is the full-batch
trainer's (:meth:`Trainer._run`), so the Adam/early-stopping budget, the
best-checkpoint restore, the ``epoch_callback`` signature (RDD's
reliability refresh plugs in unchanged), the obs spans and the
:class:`TrainResult` are shared.  Two things necessarily differ:

* ``loss_fn`` is batch-aware — ``(model, logits, seeds, epoch)`` where
  ``logits`` covers only the (sorted, deduplicated) batch ``seeds``.  It
  may return ``None`` to skip a batch none of whose loss terms apply.
* validation still runs one full-graph eval forward per epoch, the
  one graph-sized allocation left in the loop.

With full fanouts, ``batch_size >= len(pool)``, and dropout disabled,
one epoch is a single batch whose blocks reproduce the global Â rows
bitwise (see :mod:`repro.sampling.blocks`), so the trajectory matches
full-batch training up to BLAS summation-order noise — the differential
tests in ``tests/training/test_sampled.py`` pin that equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

import repro.obs as obs
from repro.errors import TrainingError
from repro.graph.graph import Graph
from repro.models.base import GraphModel
from repro.nn.optim import Adam
from repro.sampling import BlockBuilder, ItemSampler, MiniBatch
from repro.tensor.functional import masked_cross_entropy_logits
from repro.tensor.tensor import GradArena, Tensor
from repro.training.records import TrainResult
from repro.training.trainer import EpochCallback, Trainer

# Batch-aware objective: receives the logits of the sorted/deduplicated
# batch seeds (row i of ``logits`` is global node ``seeds[i]``).  May
# return None when no loss term applies to this batch.
SampledLossFn = Callable[[GraphModel, Tensor, np.ndarray, int], Optional[Tensor]]


@dataclass
class SamplingPlan:
    """One epoch's sampling directives (recomputed per epoch when the
    caller supplies a ``plan_fn``).

    Attributes
    ----------
    seeds:
        The epoch's seed pool (global node ids); every pool node is
        visited exactly once per epoch.
    seed_weights:
        Optional positive weights aligned with ``seeds`` — biases the
        batch shuffle so heavy seeds land in earlier batches (RDD:
        reliable nodes first).
    node_weights:
        Optional per-global-node positive weights for *neighbor*
        selection on over-fanout rows (RDD: prefer reliable neighbors).
    reliable_mask:
        Optional boolean mask over all nodes; when set (and obs is
        enabled) every ``sampler:batch`` span reports how many of its
        seeds are currently reliable.
    """

    seeds: np.ndarray
    seed_weights: Optional[np.ndarray] = None
    node_weights: Optional[np.ndarray] = None
    reliable_mask: Optional[np.ndarray] = None


class SampledTrainer(Trainer):
    """Neighbor-sampled mini-batch trainer for GCN-family models.

    The model must expose ``propagate(adjacencies, h)`` (its layer loop,
    one matrix per layer), ``block_adjacency(block)`` (the matrix its
    layers aggregate with over a sampled block) and ``layers`` (one
    fanout per layer) — the :class:`GCN` contract, which
    :class:`GraphSAGE` shares.

    Parameters
    ----------
    fanouts:
        Per-layer fanouts ordered from the *output* layer inward
        (:class:`BlockBuilder`'s convention).  An int replicates across
        all layers; a sequence must have one entry per model layer.
    batch_size:
        Seed nodes per optimizer step.
    sample_seed:
        Seeds the two sampling streams (batch shuffle, neighbor
        selection), independent of the model's init/dropout RNG.
    """

    def __init__(
        self,
        fanouts: Union[int, Sequence[int]] = (10, 10),
        batch_size: int = 512,
        sample_seed: int = 0,
        **trainer_kwargs,
    ):
        super().__init__(**trainer_kwargs)
        if isinstance(fanouts, (int, np.integer)):
            fanouts = (int(fanouts),)
        self.fanouts = tuple(int(f) for f in fanouts)
        if not self.fanouts or any(f < 1 for f in self.fanouts):
            raise TrainingError(f"fanouts must be a non-empty tuple of ints >= 1, got {fanouts}")
        if batch_size < 1:
            raise TrainingError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = int(batch_size)
        self.sample_seed = int(sample_seed)

    # ------------------------------------------------------------------
    def _model_fanouts(self, model: GraphModel) -> tuple:
        layers = getattr(model, "layers", None)
        if (
            layers is None
            or not hasattr(model, "propagate")
            or not hasattr(model, "block_adjacency")
        ):
            raise TrainingError(
                "SampledTrainer needs a GCN-family model exposing .layers, .propagate "
                "and .block_adjacency"
            )
        num_layers = len(layers)
        fanouts = self.fanouts
        if len(fanouts) == 1 and num_layers > 1:
            fanouts = fanouts * num_layers
        if len(fanouts) != num_layers:
            raise TrainingError(
                f"{num_layers}-layer model needs {num_layers} fanouts, got {len(self.fanouts)}"
            )
        return fanouts

    @staticmethod
    def _forward_blocks(model: GraphModel, graph: Graph, batch: MiniBatch) -> Tensor:
        """The model's layer loop over the batch's blocks.

        Block ``i`` maps layer ``i``'s input rows to its output rows
        (consecutive blocks chain — ``blocks[i].output_nodes ==
        blocks[i+1].input_nodes``), so the returned logits cover exactly
        ``batch.seeds``.
        """
        return model.propagate(
            [model.block_adjacency(block) for block in batch.blocks],
            graph.features[batch.input_nodes],
        )

    # ------------------------------------------------------------------
    def fit(
        self,
        model: GraphModel,
        graph: Graph,
        loss_fn: Optional[SampledLossFn] = None,
        epoch_callback: Optional[EpochCallback] = None,
        plan_fn: Optional[Callable[[int], SamplingPlan]] = None,
    ) -> TrainResult:
        """Mini-batch train ``model``; returns metrics of the best epoch.

        Parameters
        ----------
        loss_fn:
            Batch-aware objective (see :data:`SampledLossFn`); defaults
            to cross entropy over each batch's training seeds.
        epoch_callback:
            Same contract as the full-batch trainer: ``(epoch, model,
            eval_logits)``, invoked before the epoch's batches.
            ``eval_logits`` are the latest full-graph evaluation (epoch 0
            bootstraps one).
        plan_fn:
            ``epoch -> SamplingPlan`` recomputing the seed pool and
            sampling weights each epoch (runs *after* the callback, so
            RDD's refreshed reliability sets feed the same epoch's
            plan).  Default: uniform shuffle of ``graph.train_index``.
        """
        fanouts = self._model_fanouts(model)
        if loss_fn is None:
            loss_fn = sampled_supervised_loss(graph)
        shuffle_rng, neighbor_rng = (
            np.random.default_rng(s) for s in np.random.SeedSequence(self.sample_seed).spawn(2)
        )
        builder = BlockBuilder(
            graph.adjacency, fanouts, rng=neighbor_rng, dtype=graph.normalized_adjacency().dtype
        )
        obs_on = obs.enabled()

        def train_epoch(epoch: int, optimizer: Adam, arena: GradArena) -> Tuple[float, int]:
            plan = plan_fn(epoch) if plan_fn is not None else SamplingPlan(graph.train_index)
            builder.set_weights(plan.node_weights)
            batches = ItemSampler(plan.seeds, self.batch_size, rng=shuffle_rng).epoch(
                weights=plan.seed_weights
            )
            total, steps = 0.0, 0
            for batch_idx, seed_batch in enumerate(batches):
                batch = builder.build(seed_batch)
                attrs = {}
                if obs_on:
                    attrs = dict(
                        epoch=epoch,
                        batch=batch_idx,
                        num_seeds=len(batch.seeds),
                        num_input_nodes=len(batch.input_nodes),
                    )
                    if plan.reliable_mask is not None:
                        attrs["reliable_seeds"] = int(
                            np.count_nonzero(plan.reliable_mask[batch.seeds])
                        )
                with obs.span("sampler:batch", **attrs) as batch_span:
                    with arena.record():
                        logits = self._forward_blocks(model, graph, batch)
                        loss = loss_fn(model, logits, batch.seeds, epoch)
                    if loss is None:  # no applicable loss term in this batch
                        continue
                    optimizer.zero_grad()
                    arena.backward(loss)
                    optimizer.step()
                    if batch_span:
                        batch_span.set(loss=loss.item())
                total += loss.item()
                steps += 1
            return total, steps

        return self._run(
            model,
            graph,
            train_epoch,
            epoch_callback,
            sampler="neighbor",
            fanouts=list(fanouts),
            batch_size=self.batch_size,
        )


def sampled_supervised_loss(graph: Graph) -> SampledLossFn:
    """Batch-aware default objective: cross entropy on the batch's
    training seeds (the sampled counterpart of ``supervised_loss``)."""
    train_sorted = np.sort(np.asarray(graph.train_index, dtype=np.int64))

    def loss_fn(model: GraphModel, logits: Tensor, seeds: np.ndarray, epoch: int):
        local = np.flatnonzero(np.isin(seeds, train_sorted, assume_unique=True))
        if local.size == 0:
            return None
        return masked_cross_entropy_logits(logits, graph.labels[seeds], local)

    return loss_fn
