"""The prediction engine: one loaded artifact answering node queries.

A :class:`PredictionEngine` is the compute half of the serving stack —
no sockets, no queues, just "artifact + graph in, logits out":

* **transductive** queries (nodes the training graph contains) are
  served from a logits *table* — one eval-mode, tape-free forward pass
  over the whole graph (the full-batch models compute every node's
  logits in one shot anyway), cached after the first computation.  For
  RDD ensemble artifacts the table is the α-weighted average of the
  stored member logits, exactly :meth:`EnsembleModel.embeddings`.
* **inductive** queries (nodes unseen at training time, given as a
  feature vector plus edges into the known graph) build a query
  subgraph around the attachment points — sampled layer-wise
  neighborhoods (:func:`repro.sampling.layerwise_neighborhood`), carved
  out with :func:`repro.graph.subgraph.induced_subgraph` — run the model
  on that small graph, and read off the query node's row.  Results are memoized
  in a :class:`~repro.serving.cache.TieredCache` keyed by the query's
  content: a cold LRU admission tier under a frequency-promoted hot
  tier, so repeated queries (health probes, hot entities) cost a dict
  lookup and cold scan bursts cannot evict the hot set.

In a multi-replica deployment the transductive table is computed once
and placed in ``multiprocessing.shared_memory``; worker processes call
:meth:`install_logits_table` to serve from the shared copy instead of
paying one table (and one forward) per process — see
:mod:`repro.serving.replica`.

Both paths run under ``no_grad`` and are deterministic: the same query
against the same artifact returns bitwise-identical logits, which is the
contract the micro-batcher's "batched == unbatched" guarantee rests on.

**Streaming mode** (``streaming=True``, single-model GCN artifacts only)
makes the engine delta-aware: :meth:`PredictionEngine.apply_delta`
installs an updated graph (CSR and cached ``Â`` maintained incrementally
by :func:`repro.graph.delta.apply_delta`), bumps a monotonic graph
version, and marks stale exactly the logits rows within the model's
receptive field — the k-hop closure of the dirty nodes, k = the layer
count — of everything edited since the table was last consistent.
Stale rows are recomputed lazily (the first query touching one triggers
a refresh) or eagerly by a
:class:`~repro.serving.refresh.BackgroundRefresher`.  The table itself
is maintained by the row-pure :class:`~repro.serving.refresh.RowRefresher`
forward, so a refreshed table is bitwise identical to a from-scratch
streaming rebuild on the updated graph.  All public query and delta
entry points serialize on one reentrant lock; the inductive LRU key
includes the graph version, so a pre-delta neighborhood can never be
served after the graph changed.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

import repro.obs as obs
from repro.errors import ReproError
from repro.graph.delta import GraphDelta, apply_delta, k_hop_closures
from repro.graph.graph import Graph
from repro.graph.subgraph import induced_subgraph
from repro.obs.metrics import MetricRegistry
from repro.sampling import layerwise_neighborhood
from repro.sampling.neighbor import unique_ids
from repro.serving.artifacts import ModelArtifact, graph_fingerprint, load_artifact
from repro.serving.cache import TieredCache
from repro.serving.refresh import RowRefresher

NodeIds = Sequence[int]

# Neighbors sampled per hop around an inductive query's attachment points.
INDUCTIVE_FANOUT = 10


class ServingError(ReproError):
    """A serving request is malformed or unanswerable by this engine."""


@dataclass(frozen=True)
class InductiveQuery:
    """The serving payload of an inductive request: one unseen node's
    feature vector and the known nodes it links to.

    The other serving payload is a plain node-id list (transductive);
    :meth:`PredictionEngine.answer_batch` answers both.
    """

    features: object
    neighbors: NodeIds


class PredictionEngine:
    """Load an artifact once; answer node queries forever after.

    Parameters
    ----------
    artifact:
        A :class:`~repro.serving.artifacts.ModelArtifact` or a path to one.
    graph:
        The serving graph.  Must structurally match the artifact's
        training graph (checked via the stored fingerprint unless
        ``verify_graph=False``); it is cast to the artifact's compute
        dtype and seeded with the artifact's cached ``Â``.
    streaming:
        Accept :meth:`apply_delta` and maintain the logits table
        incrementally (single-model GCN artifacts only).  The table is
        then computed by the row-pure streaming forward, which can differ
        from the static table in the last ulp — compare streaming engines
        with streaming engines.

    The logits table is kept after its first computation.  Inductive
    query subgraphs sample :data:`INDUCTIVE_FANOUT` neighbors per hop over
    as many hops as the model has layers (2 when the artifact does not
    say), and their answers are memoized in a
    :class:`~repro.serving.cache.TieredCache` of its default size.
    """

    def __init__(
        self,
        artifact: Union[ModelArtifact, str, Path],
        graph: Graph,
        *,
        verify_graph: bool = True,
        streaming: bool = False,
    ):
        if not isinstance(artifact, ModelArtifact):
            artifact = load_artifact(artifact)
        self.artifact = artifact
        graph = graph.astype(artifact.dtype)
        if verify_graph:
            artifact.check_graph(graph)
        if graph._normalized is None and (
            graph_fingerprint(graph)["structure_sha256"]
            == artifact.graph_fingerprint["structure_sha256"]
        ):
            # The artifact ships the propagation matrix; installing it
            # skips the normalization pass in the serving process.  Only
            # when the structures match — an engine built on an *updated*
            # graph (post-delta rebuild parity checks) must normalize its
            # own adjacency, not inherit the training graph's.
            graph._normalized = artifact.normalized_adjacency(dtype=artifact.dtype)
        self.graph = graph
        self._table: Optional[np.ndarray] = None
        self.metrics = MetricRegistry()
        self._inductive_cache = TieredCache(metrics=self.metrics, prefix="inductive_cache")

        if artifact.is_ensemble:
            self._model = None
            self._ensemble = artifact.ensemble()
            self._member_models = None  # built lazily on first inductive query
        else:
            self._model = artifact.build_model(graph)
            self._ensemble = None
            self._member_models = None
        self._num_hops = self._infer_hops()

        self.streaming = bool(streaming)
        self._version = 0
        self._lock = threading.RLock()
        self._delta_listeners: List[Callable[[int], None]] = []
        self._refresher: Optional[RowRefresher] = None
        self._stale: Optional[np.ndarray] = None
        self._closures: List[np.ndarray] = []
        self._base_adjacency: Optional[sp.csr_matrix] = None
        self._pending_dirty = np.empty(0, dtype=np.int64)
        if self.streaming:
            if artifact.is_ensemble or artifact.spec is None or artifact.spec.kind != "gcn":
                raise ServingError(
                    f"streaming mode needs a single-model GCN artifact, "
                    f"got {self.model_kind!r}"
                )
            self._refresher = RowRefresher(self._model, artifact.dtype)
            self._stale = np.zeros(graph.num_nodes, dtype=bool)
            self._base_adjacency = graph.adjacency

    # ------------------------------------------------------------------
    # Introspection (for /healthz)
    # ------------------------------------------------------------------
    @property
    def model_kind(self) -> str:
        return self.artifact.model_kind

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def num_classes(self) -> int:
        table = self.logits_table()
        return int(table.shape[1])

    def _infer_hops(self) -> int:
        spec = self.artifact.spec
        if spec is not None:
            if "num_layers" in spec.options:
                return int(spec.options["num_layers"])
            if "k_hops" in spec.options:
                return int(spec.options["k_hops"])
        return 2

    # ------------------------------------------------------------------
    # Streaming: graph deltas, versioning, refresh
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotonic graph version (0 at construction, +1 per delta)."""
        return self._version

    def add_delta_listener(self, listener: Callable[[int], None]) -> None:
        """Register ``listener(version)`` to run after every applied delta
        (outside the engine lock)."""
        self._delta_listeners.append(listener)

    def remove_delta_listener(self, listener: Callable[[int], None]) -> None:
        if listener in self._delta_listeners:
            self._delta_listeners.remove(listener)

    def apply_delta(self, delta: GraphDelta) -> int:
        """Install a graph delta; returns the new graph version.

        The updated graph (incrementally-maintained ``Â`` included)
        replaces :attr:`graph` atomically under the engine lock, and the
        rows of the logits table within the model's receptive field of
        *everything* edited since the last refresh are marked stale.
        Their closure at every layer depth comes from one traversal and
        is kept for :meth:`refresh`, which reuses it until the next delta.
        Nothing is recomputed here — that happens lazily on the next
        query touching a stale row, or eagerly in a
        :class:`~repro.serving.refresh.BackgroundRefresher` cycle.
        """
        if not self.streaming:
            raise ServingError(
                "apply_delta on a static engine; construct with streaming=True"
            )
        with self._lock:
            with obs.span("serving:apply_delta", version=self._version + 1):
                dirty = delta.dirty_nodes(self.graph.num_nodes)
                updated = apply_delta(self.graph, delta)
                self.graph = updated
                self._version += 1
                self._pending_dirty = unique_ids(np.concatenate([self._pending_dirty, dirty]))
                self._closures = k_hop_closures(
                    [self._base_adjacency, updated.adjacency],
                    self._pending_dirty,
                    self._refresher.num_layers,
                )
                stale = np.zeros(updated.num_nodes, dtype=bool)
                stale[self._closures[-1]] = True
                self._stale = stale
                self.metrics.inc("deltas_total")
                self.metrics.inc("rows_invalidated_total", len(self._closures[-1]))
                version = self._version
        for listener in list(self._delta_listeners):
            listener(version)
        return version

    def refresh(self) -> int:
        """Bring every stale logits row up to date; returns rows recomputed.

        After this the table matches, bitwise, what a fresh streaming
        engine on the current graph would compute, and the engine's
        "last consistent" baseline advances to the current graph.
        """
        if not self.streaming:
            raise ServingError("refresh on a static engine; construct with streaming=True")
        with self._lock:
            graph = self.graph
            if self._refresher.table is None:
                self._table = self._refresher.rebuild(graph)
                refreshed = graph.num_nodes
            elif self._stale.any():
                refreshed = self._refresher.refresh(graph, self._closures)
                self._table = self._refresher.table
                self.metrics.inc("rows_refreshed_total", refreshed)
            else:
                return 0
            self._base_adjacency = graph.adjacency
            self._pending_dirty = np.empty(0, dtype=np.int64)
            self._closures = []
            self._stale = np.zeros(graph.num_nodes, dtype=bool)
            return refreshed

    def _ensure_fresh(self, nodes: Optional[np.ndarray]) -> None:
        """Lazy-refresh guard (call with the lock held): refresh if the
        table is missing or any requested row is stale.  Queries that
        touch only clean rows cost a mask lookup and nothing else."""
        if self._refresher.table is None:
            self.refresh()
        elif self._stale.any() and (nodes is None or self._stale[nodes].any()):
            self.metrics.inc("stale_row_hits_total")
            self.refresh()

    # ------------------------------------------------------------------
    # Transductive path
    # ------------------------------------------------------------------
    def install_logits_table(self, table: np.ndarray) -> None:
        """Serve transductive queries from a precomputed logits table.

        The replica tier's entry point: worker processes attach the one
        shared-memory copy of the table (computed once by the parent)
        instead of each paying a full forward pass and holding a private
        copy.  The array is installed as-is — zero-copy for a
        shared-memory view; callers pass read-only views so a bug in one
        replica cannot corrupt its siblings.
        """
        if self.streaming:
            raise ServingError(
                "streaming engines maintain their own table; "
                "install_logits_table is for static replicas"
            )
        table = np.asarray(table)
        if table.ndim != 2 or table.shape[0] != self.graph.num_nodes:
            raise ServingError(
                f"logits table must have shape ({self.graph.num_nodes}, k), "
                f"got {table.shape}"
            )
        with self._lock:
            self._table = table

    def logits_table(self) -> np.ndarray:
        """Per-node logits over the whole serving graph (cached)."""
        if self.streaming:
            with self._lock:
                self._ensure_fresh(None)
                return self._table
        if self._table is None:
            if self._ensemble is not None:
                self._table = self._ensemble.embeddings()
            else:
                self._table = self._model.predict_logits(self.graph)
        return self._table

    def _check_nodes(self, node_ids: NodeIds) -> np.ndarray:
        try:
            nodes = np.asarray(node_ids, dtype=np.int64)
        except OverflowError as exc:
            raise ServingError(f"node ids must fit in int64: {exc}") from None
        if nodes.ndim != 1 or nodes.size == 0:
            raise ServingError(f"nodes must be a nonempty 1-D id list, got shape {nodes.shape}")
        if nodes.min() < 0 or nodes.max() >= self.graph.num_nodes:
            raise ServingError(
                f"node ids must be in [0, {self.graph.num_nodes}), got "
                f"[{nodes.min()}, {nodes.max()}]"
            )
        return nodes

    def predict_nodes(self, node_ids: NodeIds) -> np.ndarray:
        """Logits rows for known nodes, shape ``(len(node_ids), k)``."""
        if self.streaming:
            return self.predict_nodes_versioned(node_ids)[0]
        return self.logits_table()[self._check_nodes(node_ids)]

    def predict_nodes_versioned(self, node_ids: NodeIds) -> Tuple[np.ndarray, int]:
        """Like :meth:`predict_nodes`, plus the graph version answered at.

        The rows and the version are read under one lock hold, so the
        pair is consistent even while deltas land concurrently — the
        attribution guarantee the chaos tests check.
        """
        with self._lock:
            nodes = self._check_nodes(node_ids)
            if self.streaming:
                self._ensure_fresh(nodes)
                return self._table[nodes], self._version
            return self.logits_table()[nodes], self._version

    def predict_many(self, requests: Sequence[NodeIds]) -> List[np.ndarray]:
        """Answer several node-id requests off **one** shared table.

        This is the micro-batcher's batch function: the forward pass (or
        table lookup) is paid once for the whole batch.  Id validation
        happens up front so one malformed request cannot waste the
        batch's forward.
        """
        return self.predict_many_versioned(requests)[0]

    def predict_many_versioned(
        self, requests: Sequence[NodeIds]
    ) -> Tuple[List[np.ndarray], int]:
        """Batched :meth:`predict_nodes_versioned`: one table, one version."""
        with self._lock:
            checked = [self._check_nodes(request) for request in requests]
            if self.streaming:
                self._ensure_fresh(np.concatenate(checked) if checked else None)
                table = self._table
            else:
                table = self.logits_table()
            return [table[nodes] for nodes in checked], self._version

    def answer_batch(self, payloads: Sequence[object]) -> List[np.ndarray]:
        """Answer one batch of serving payloads, in order.

        Node-id lists share **one** :meth:`predict_many` call, which
        receives the payload objects unchanged; each
        :class:`InductiveQuery` runs :meth:`predict_inductive`.  This is
        the batch function of both serving executors (the in-process
        micro-batcher and every replica worker).
        """
        node_lists = [p for p in payloads if not isinstance(p, InductiveQuery)]
        rows = iter(self.predict_many(node_lists) if node_lists else ())
        return [
            self.predict_inductive(p.features, p.neighbors)
            if isinstance(p, InductiveQuery)
            else next(rows)
            for p in payloads
        ]

    # ------------------------------------------------------------------
    # Inductive path
    # ------------------------------------------------------------------
    def predict_inductive(self, features, neighbor_ids: NodeIds) -> np.ndarray:
        """Logits for one unseen node attached to known nodes.

        ``features`` is the query node's feature vector; ``neighbor_ids``
        are the known nodes it links to.  Deterministic: the neighbor
        sampling RNG is derived from the query content, so the same
        query always sees the same subgraph.
        """
        with self._lock:
            graph = self.graph
            try:
                features = np.asarray(features, dtype=self.artifact.dtype)
            except OverflowError as exc:
                raise ServingError(f"features out of range: {exc}") from None
            if features.shape != (graph.num_features,):
                raise ServingError(
                    f"features must have shape ({graph.num_features},), got {features.shape}"
                )
            neighbors = unique_ids(self._check_nodes(neighbor_ids))

            key = self._inductive_key(features, neighbors)
            cached = self._inductive_cache.get(key)
            if cached is not None:
                return cached

            logits = self._run_inductive(graph, features, neighbors, key)
            self._inductive_cache.put(key, logits)
            return logits

    def _inductive_key(self, features: np.ndarray, neighbors: np.ndarray) -> bytes:
        digest = hashlib.sha256()
        # The graph version participates in the key: an entry computed
        # against a pre-delta neighborhood must never satisfy the same
        # query after the graph changed (static engines stay at 0, so
        # their keys are unchanged).
        digest.update(np.int64(self._version).tobytes())
        digest.update(features.tobytes())
        digest.update(neighbors.tobytes())
        return digest.digest()

    def _run_inductive(self, graph: Graph, features, neighbors, key: bytes) -> np.ndarray:
        context = self._sample_context(graph, neighbors, key)
        subgraph, mapping = induced_subgraph(graph, context, name="query")
        query_graph = _attach_query_node(subgraph, mapping, neighbors, features)
        if self._ensemble is not None:
            if self._member_models is None:
                self._member_models = self.artifact.member_models(graph)
            weights = self._ensemble.weights
            rows = np.stack(
                [model.predict_logits(query_graph)[-1] for model in self._member_models]
            )
            return np.einsum("t,tk->k", weights.astype(rows.dtype, copy=False), rows)
        return self._model.predict_logits(query_graph)[-1]

    def _sample_context(self, graph: Graph, neighbors: np.ndarray, key: bytes) -> np.ndarray:
        """Layer-wise sampled neighborhood of the attachment points.

        Seeded from ``(0, query digest)`` so the subgraph — and therefore
        the prediction — is a pure function of the query (the digest
        already folds in the graph version, so post-delta queries
        resample against the updated structure).
        """
        rng = np.random.default_rng((0, int.from_bytes(key[:8], "big")))
        context = layerwise_neighborhood(
            graph.adjacency, neighbors, INDUCTIVE_FANOUT, self._num_hops, rng
        )
        if context.size < 2:
            # A single isolated attachment point: induced_subgraph needs
            # two nodes, so pull in a deterministic partner (mirroring
            # its own isolated-node patch rule).
            partner = (int(context[0]) + 1) % graph.num_nodes
            context = unique_ids(np.append(context, partner))
        return context


def _attach_query_node(
    subgraph: Graph, mapping: np.ndarray, neighbors: np.ndarray, features: np.ndarray
) -> Graph:
    """Append the query node (last index) to an induced context subgraph."""
    local = np.searchsorted(mapping, neighbors)
    n = subgraph.num_nodes
    extra_src = np.concatenate([np.full(len(local), n, dtype=np.int64), local])
    extra_dst = np.concatenate([local, np.full(len(local), n, dtype=np.int64)])
    base = subgraph.adjacency.tocoo()
    adjacency = sp.csr_matrix(
        (
            np.concatenate([base.data, np.ones(len(extra_src), dtype=base.data.dtype)]),
            (
                np.concatenate([base.row, extra_src]),
                np.concatenate([base.col, extra_dst]),
            ),
        ),
        shape=(n + 1, n + 1),
    )
    if sp.issparse(subgraph.features):
        stacked = sp.vstack([subgraph.features, sp.csr_matrix(features[None, :])]).tocsr()
    else:
        stacked = np.vstack([subgraph.features, features[None, :]])
    empty = np.empty(0, dtype=np.int64)
    return Graph(
        adjacency,
        stacked,
        np.zeros(n + 1, dtype=np.int64),
        empty,
        empty,
        empty,
        name=f"{subgraph.name}+query",
    )
