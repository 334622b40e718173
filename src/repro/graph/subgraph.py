"""Induced subgraphs and inductive splits.

The paper's setting is transductive (all nodes visible during training).
The inductive setting — new nodes appear only at inference — is the
natural stress test for whether RDD's gains are tied to having seen the
test nodes' structure.  These utilities carve a training subgraph out of
a full graph while keeping global node identities recoverable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
import scipy.sparse as sp

from repro.errors import GraphError
from repro.graph.graph import Graph


@dataclass(frozen=True)
class InductiveSplit:
    """A training subgraph plus the full graph for inference.

    Attributes
    ----------
    observed:
        The induced subgraph over the visible nodes (train/val plus
        unlabeled context); node ids are *local* to this subgraph.
    full:
        The original graph (inference-time view, including unseen nodes).
    observed_nodes:
        Global ids of the observed nodes: ``observed_nodes[local] = global``.
    unseen_nodes:
        Global ids of nodes hidden during training (the inductive test set).
    """

    observed: Graph
    full: Graph
    observed_nodes: np.ndarray
    unseen_nodes: np.ndarray


def induced_subgraph(graph: Graph, nodes: np.ndarray, name: str = "") -> Tuple[Graph, np.ndarray]:
    """The subgraph induced by ``nodes``, with remapped split indices.

    Split indices of the original graph are carried over where they fall
    inside ``nodes``; nodes outside are dropped from the splits.  Returns
    ``(subgraph, nodes)`` with ``nodes`` sorted (the local→global map).
    """
    nodes = np.unique(np.asarray(nodes, dtype=np.int64))
    if len(nodes) < 2:
        raise GraphError("induced subgraph needs at least two nodes")
    if nodes.min() < 0 or nodes.max() >= graph.num_nodes:
        raise GraphError("node ids out of range")

    local_of = -np.ones(graph.num_nodes, dtype=np.int64)
    local_of[nodes] = np.arange(len(nodes))

    adjacency = graph.adjacency[nodes][:, nodes].tocsr()
    # Isolated nodes break GCN normalization; attach them to themselves?
    # No self loops allowed — attach each isolated node to the nearest
    # (by id) kept node deterministically.
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    isolated = np.flatnonzero(degrees == 0)
    if len(isolated):
        rows, cols = [], []
        for local in isolated:
            partner = (local + 1) % len(nodes)
            rows += [local, partner]
            cols += [partner, local]
        patch = sp.csr_matrix(
            (np.ones(len(rows)), (rows, cols)), shape=adjacency.shape
        )
        adjacency = ((adjacency + patch) > 0).astype(np.float64).tocsr()
        adjacency.setdiag(0.0)
        adjacency.eliminate_zeros()

    features = graph.features[nodes]

    def remap(index: np.ndarray) -> np.ndarray:
        local = local_of[index]
        return np.sort(local[local >= 0])

    subgraph = Graph(
        adjacency,
        features,
        graph.labels[nodes],
        remap(graph.train_index),
        remap(graph.val_index),
        remap(graph.test_index),
        name=name or f"{graph.name}-sub",
    )
    return subgraph, nodes


def make_inductive_split(
    graph: Graph, unseen_fraction: float, rng: np.random.Generator
) -> InductiveSplit:
    """Hide a fraction of the *test* nodes during training.

    The observed subgraph keeps every non-test node plus the un-hidden
    test nodes; the hidden test nodes (and their edges) only exist in the
    ``full`` view used at inference.
    """
    if not 0.0 < unseen_fraction <= 1.0:
        raise GraphError(f"unseen_fraction must be in (0, 1], got {unseen_fraction}")
    test = graph.test_index
    num_unseen = max(1, int(round(len(test) * unseen_fraction)))
    unseen = np.sort(rng.choice(test, size=num_unseen, replace=False))
    observed_nodes = np.setdiff1d(np.arange(graph.num_nodes), unseen)
    observed, mapping = induced_subgraph(graph, observed_nodes)
    # A fresh Graph normalizes Â in float64; cast it to the features'
    # dtype so a float32 graph's observed view also trains in float32.
    observed = observed.astype(graph.features.dtype)
    return InductiveSplit(
        observed=observed, full=graph, observed_nodes=mapping, unseen_nodes=unseen
    )
