"""Planetoid-T (Yang, Cohen & Salakhutdinov, 2016), transductive variant.

Planetoid learns, per node, an embedding trained to predict graph
*context* (random-walk co-occurrences, plus same-label pairs injecting
supervision), and classifies from features concatenated with the learned
embedding.  This reproduction implements the transductive algorithm in
its standard simplified form:

* context pairs: skip-gram windows over uniform random walks, and
  positive pairs between same-labeled training nodes;
* embedding loss: negative-sampling logistic loss
  ``−log σ(e_i·e_j) − Σ log σ(−e_i·e_neg)``;
* classifier: one hidden layer over ``[x_i, e_i]`` with softmax output;
* training alternates embedding batches and supervised batches.

One of the two graph-SSL baselines in Table 4 that the paper reprints
from its publication — here actually runnable.
"""

from __future__ import annotations

import time
from typing import List, Tuple

import numpy as np
import scipy.sparse as sp

from repro.graph.graph import Graph
from repro.graph.walks import batch_random_walks
from repro.nn.layers import Linear
from repro.nn.module import Module, Parameter
from repro.nn.optim import Adam
from repro.tensor import ops
from repro.tensor.functional import accuracy, cross_entropy
from repro.tensor.tensor import Tensor
from repro.training.records import TrainResult
from repro.training.seed import make_rng


class _PlanetoidNet(Module):
    """Feature branch + embedding table + joint classifier."""

    def __init__(self, num_features: int, num_classes: int, num_nodes: int,
                 hidden: int, embed_dim: int, rng: np.random.Generator):
        super().__init__()
        self.feature_layer = Linear(num_features, hidden, rng)
        self.embeddings = Parameter(rng.normal(0.0, 0.1, size=(num_nodes, embed_dim)), name="embeddings")
        self.classifier = Linear(hidden + embed_dim, num_classes, rng)

    def logits_for(self, features: np.ndarray, index: np.ndarray) -> Tensor:
        h = ops.relu(self.feature_layer(Tensor(features[index])))
        e = ops.gather(self.embeddings, index)
        return self.classifier(ops.concat([h, e], axis=1))


# Planetoid's fixed settings: embedding and classifier hidden widths,
# random-walk length and skip-gram window, walks per node per embedding
# epoch, negatives per positive pair, the share of context pairs drawn
# from same-label training pairs (the original's supervision
# injection), and Adam's learning rate.
EMBED_DIM = 32
HIDDEN = 16
WALK_LENGTH = 6
WINDOW = 3
WALKS_PER_NODE = 2
NEGATIVE_SAMPLES = 4
SUPERVISED_RATIO = 0.5
LR = 0.01


class Planetoid:
    """Transductive Planetoid trainer.

    Parameters
    ----------
    epochs:
        Alternating training epochs (each = one embedding pass + one
        supervised pass).
    """

    def __init__(self, epochs: int = 100):
        self.epochs = epochs

    # ------------------------------------------------------------------
    def _context_pairs(self, graph: Graph, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
        """Sample (node, context) pairs from walks and same-label pairs.

        Walks are sampled in one vectorized batch; window pairs are
        extracted with array slicing, so the cost stays sub-second even
        on Pubmed-scale graphs.
        """
        # Cap the per-epoch walk batch so epochs stay cheap on big graphs.
        num_starts = min(512, max(32, graph.num_nodes // 4))
        starts = rng.permutation(graph.num_nodes)[:num_starts]
        starts = np.repeat(starts, WALKS_PER_NODE)
        walks = batch_random_walks(graph.adjacency, starts, WALK_LENGTH, rng)

        source_parts: List[np.ndarray] = []
        context_parts: List[np.ndarray] = []
        length = walks.shape[1]
        for offset in range(1, WINDOW + 1):
            if offset >= length:
                break
            u = walks[:, offset:]
            v = walks[:, :-offset]
            keep = u != v  # drop stalled-walk self pairs
            source_parts.append(u[keep].ravel())
            context_parts.append(v[keep].ravel())
        sources = np.concatenate(source_parts) if source_parts else np.empty(0, dtype=np.int64)
        contexts = np.concatenate(context_parts) if context_parts else np.empty(0, dtype=np.int64)

        # Supervision injection: pairs of same-labeled training nodes.
        train = graph.train_index
        labels = graph.labels
        num_supervised = int(len(sources) * SUPERVISED_RATIO)
        if num_supervised and len(train) > 1:
            u = rng.choice(train, size=num_supervised)
            v = np.empty_like(u)
            for c in np.unique(labels[train]):
                members = train[labels[train] == c]
                mask = labels[u] == c
                if mask.any():
                    v[mask] = rng.choice(members, size=int(mask.sum()))
            keep = u != v
            sources = np.concatenate([sources, u[keep]])
            contexts = np.concatenate([contexts, v[keep]])
        return sources.astype(np.int64), contexts.astype(np.int64)

    def _embedding_loss(self, net: _PlanetoidNet, graph: Graph, rng: np.random.Generator) -> Tensor:
        """Negative-sampling skip-gram loss over fresh context pairs."""
        src, ctx = self._context_pairs(graph, rng)
        if len(src) == 0:
            return Tensor(0.0)
        negatives = rng.integers(0, graph.num_nodes, size=(len(src), NEGATIVE_SAMPLES))

        e_src = ops.gather(net.embeddings, src)
        e_ctx = ops.gather(net.embeddings, ctx)
        positive_score = ops.sum(ops.mul(e_src, e_ctx), axis=1)
        loss = -ops.mean(ops.log(ops.clip(ops.sigmoid(positive_score), 1e-10, 1.0)))
        for k in range(NEGATIVE_SAMPLES):
            e_neg = ops.gather(net.embeddings, negatives[:, k])
            negative_score = ops.sum(ops.mul(e_src, e_neg), axis=1)
            term = -ops.mean(ops.log(ops.clip(ops.sigmoid(-negative_score), 1e-10, 1.0)))
            loss = ops.add(loss, ops.mul(term, 1.0 / NEGATIVE_SAMPLES))
        return loss

    # ------------------------------------------------------------------
    def fit(self, graph: Graph, seed: int = 0) -> TrainResult:
        """Alternate embedding and supervised updates; report split metrics."""
        start = time.perf_counter()
        rng = make_rng(seed)
        features = graph.features
        if sp.issparse(features):
            features = features.toarray()

        net = _PlanetoidNet(
            graph.num_features, graph.num_classes, graph.num_nodes,
            HIDDEN, EMBED_DIM, rng,
        )
        optimizer = Adam(net.parameters(), lr=LR)

        best_val, best_state, best_epoch = -1.0, net.state_dict(), -1
        for epoch in range(self.epochs):
            # Embedding step.
            optimizer.zero_grad()
            self._embedding_loss(net, graph, rng).backward()
            optimizer.step()

            # Supervised step.
            optimizer.zero_grad()
            logits = net.logits_for(features, graph.train_index)
            loss = cross_entropy(ops.log_softmax(logits, axis=1), graph.labels[graph.train_index])
            loss.backward()
            optimizer.step()

            val_logits = net.logits_for(features, graph.val_index).data
            val_acc = accuracy(val_logits, graph.labels[graph.val_index])
            if val_acc > best_val:
                best_val, best_state, best_epoch = val_acc, net.state_dict(), epoch

        net.load_state_dict(best_state)

        def split_accuracy(index: np.ndarray) -> float:
            logits = net.logits_for(features, index).data
            return float((logits.argmax(axis=1) == graph.labels[index]).mean())

        return TrainResult(
            train_accuracy=split_accuracy(graph.train_index),
            val_accuracy=split_accuracy(graph.val_index),
            test_accuracy=split_accuracy(graph.test_index),
            epochs_run=self.epochs,
            best_epoch=best_epoch,
            wall_time_s=time.perf_counter() - start,
        )
