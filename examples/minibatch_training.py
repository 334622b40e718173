"""Scenario: memory-bounded training with sampled neighborhoods.

The paper's related work (§6) notes that spatial GCNs like GraphSAGE can
train on "a batch of nodes instead of the whole graph".  This example
contrasts the two regimes on a Pubmed-like graph:

1. full-batch GraphSAGE (exact neighbor means over the whole graph);
2. minibatch GraphSAGE with layer-wise neighbor sampling — each training
   step touches only a few hundred nodes regardless of graph size.

Run with::

    python examples/minibatch_training.py
"""

from __future__ import annotations

import time

from repro import pubmed_like
from repro.models import GraphSAGE
from repro.sampling import BlockBuilder
from repro.training import Trainer, make_rng
from repro.training.sampled import SampledTrainer


def main() -> None:
    graph = pubmed_like(seed=5, scale=0.08)
    print(f"dataset: {graph}\n")

    # Full-batch: every epoch aggregates over all edges.
    start = time.perf_counter()
    full = GraphSAGE(graph.num_features, graph.num_classes, make_rng(0), hidden=16)
    full_result = Trainer(max_epochs=100).fit(full, graph)
    print(f"full-batch GraphSAGE : {full_result.summary()} "
          f"({time.perf_counter() - start:.1f}s)")

    # Minibatch: sampled 2-layer neighborhoods, 32 seeds per step.
    start = time.perf_counter()
    mini = GraphSAGE(graph.num_features, graph.num_classes, make_rng(0), hidden=16)
    trainer = SampledTrainer(fanouts=(5, 5), batch_size=32, max_epochs=25, patience=25)
    mini_result = trainer.fit(mini, graph)
    print(f"minibatch GraphSAGE  : {mini_result.summary()} "
          f"({time.perf_counter() - start:.1f}s)")

    # Show how small one sampled computation graph actually is.
    batch = BlockBuilder(graph.adjacency, (5, 5), seed=1).build(graph.train_index[:32])
    print(f"\none minibatch touches {len(batch.input_nodes)} of "
          f"{graph.num_nodes} nodes "
          f"({len(batch.input_nodes) / graph.num_nodes:.1%} of the graph)")
    print("Expected: comparable accuracy, with per-step cost independent of graph size.")


if __name__ == "__main__":
    main()
