"""Incremental logits-table maintenance for delta-aware serving.

When a :class:`~repro.graph.delta.GraphDelta` lands, only the rows of
the logits table within the model's receptive field of the edit can
change — for an L-layer GCN, the L-hop closure of the dirty nodes.  The
two classes here turn that observation into a serving primitive:

* :class:`RowRefresher` — a **row-pure** GCN forward: a per-layer
  decomposition (support ``S_l = H_{l-1} W_l``, aggregate
  ``H_l = Â S_l + b_l``, ReLU) in which every output row is a pure
  function of its own inputs, independent of which other rows are
  computed alongside it.  Sparse products already have this property
  (CSR kernels iterate rows independently); dense supports get it from a
  fixed-shape zero-padded block GEMM (:data:`BLOCK` rows per call, same
  shape whether rebuilding everything or one block).  Because full
  rebuilds and partial refreshes run the *same* routine, refreshing the
  k-hop-affected rows after a delta reproduces, bitwise, the table a
  from-scratch rebuild on the updated graph would produce — the parity
  property ``tests/serving/test_refresh.py`` enforces.

  Note the one deliberate divergence: an unstreamed engine's table comes
  from the model's eval forward (:meth:`GraphModel.predict_logits`), whose
  hidden-layer GEMMs are single BLAS calls whose blocking depends on the
  matrix shape.  Those are *not*
  row-pure, so streaming engines use this routine for full builds too;
  streaming and non-streaming tables can differ in the last ulp (both
  are valid float orderings of the same sums).

* :class:`BackgroundRefresher` — the eager half of the freshness story:
  a daemon thread that wakes on every applied delta (plus a periodic
  heartbeat) and calls :meth:`PredictionEngine.refresh`, so queries
  rarely pay the recompute inline.  Each cycle passes the
  ``serving:refresh`` fault point and is traced as a
  ``serving:refresh`` span; a crashed cycle is counted and swallowed —
  the engine simply stays in lazy mode until the next cycle or query,
  bounded staleness instead of a wedged server.
"""

from __future__ import annotations

import threading
from typing import List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro.graph.graph import Graph
from repro.tensor.sparse import sparse_dense_matmul
from repro.testing.faults import fault_point
import repro.obs as obs

__all__ = ["RowRefresher", "BackgroundRefresher", "BLOCK"]

# Rows per dense-support GEMM call.  Every call multiplies a zero-padded
# (BLOCK, in_dim) block, so the kernel — and therefore each row's float
# summation order — never depends on how many rows are actually live.
BLOCK = 256


class RowRefresher:
    """Row-pure GCN forward with stored per-layer state for partial refresh.

    Holds, per layer ``l``, the support ``S_l`` and the activation
    ``H_l`` over the whole graph (``H_last`` is the logits table).
    :meth:`rebuild` recomputes everything; :meth:`refresh` recomputes
    only the given per-layer row closures, growing the arrays when the
    delta appended nodes.  Not thread-safe — callers (the engine)
    serialize access.
    """

    def __init__(self, model, dtype):
        self._weights = [layer.weight.data for layer in model.layers]
        self._biases = [
            None if layer.bias is None else layer.bias.data for layer in model.layers
        ]
        self.dtype = np.dtype(dtype)
        self._supports: Optional[List[np.ndarray]] = None
        self._hidden: Optional[List[np.ndarray]] = None

    @property
    def num_layers(self) -> int:
        return len(self._weights)

    @property
    def table(self) -> Optional[np.ndarray]:
        """The maintained logits table (``H_last``), or None before rebuild."""
        return None if self._hidden is None else self._hidden[-1]

    # ------------------------------------------------------------------
    def _dense_support_block(self, h: np.ndarray, weight: np.ndarray, start: int) -> np.ndarray:
        stop = min(start + BLOCK, h.shape[0])
        block = np.zeros((BLOCK, h.shape[1]), dtype=h.dtype)
        block[: stop - start] = h[start:stop]
        return (block @ weight)[: stop - start]

    def _support_full(self, h, weight: np.ndarray) -> np.ndarray:
        if sp.issparse(h):
            return sparse_dense_matmul(h.tocsr(), weight)
        out = np.empty((h.shape[0], weight.shape[1]), dtype=weight.dtype)
        for start in range(0, h.shape[0], BLOCK):
            stop = min(start + BLOCK, h.shape[0])
            out[start:stop] = self._dense_support_block(h, weight, start)
        return out

    def _support_rows(self, h, weight: np.ndarray, target: np.ndarray, rows: np.ndarray) -> None:
        """Update ``target[rows]`` (and, dense, their whole blocks) in place.

        Dense refreshes recompute every block a changed row lives in; the
        block's unchanged rows reproduce their prior values bitwise (row
        purity), so overwriting the whole block is safe and keeps the
        per-call GEMM shape fixed.
        """
        if sp.issparse(h):
            target[rows] = sparse_dense_matmul(h[rows].tocsr(), weight)
            return
        for start in np.unique(rows // BLOCK) * BLOCK:
            stop = min(start + BLOCK, h.shape[0])
            target[start:stop] = self._dense_support_block(h, weight, start)

    def _aggregate_rows(
        self, adjacency: sp.csr_matrix, support: np.ndarray, bias, relu: bool, rows=None
    ) -> np.ndarray:
        matrix = adjacency if rows is None else adjacency[rows]
        out = sparse_dense_matmul(matrix, support)
        if bias is not None:
            out += bias
        if relu:
            np.maximum(out, 0.0, out=out)
        return out

    # ------------------------------------------------------------------
    def rebuild(self, graph: Graph) -> np.ndarray:
        """Recompute every layer over the whole graph; returns the table."""
        adjacency = graph.normalized_adjacency()
        h = graph.features
        supports, hidden = [], []
        last = self.num_layers - 1
        for i, (weight, bias) in enumerate(zip(self._weights, self._biases)):
            support = self._support_full(h, weight)
            supports.append(support)
            h = self._aggregate_rows(adjacency, support, bias, relu=i < last)
            hidden.append(h)
        self._supports, self._hidden = supports, hidden
        return self.table

    def refresh(self, graph: Graph, closures: Sequence[np.ndarray]) -> int:
        """Recompute the rows in ``closures`` against ``graph``.

        ``closures[l]`` is the l-hop closure of the dirty set over the
        union of the last-consistent and current adjacencies: layer
        ``l``'s support is recomputed at ``closures[l]`` (the rows whose
        input could have changed) and its activation at
        ``closures[l + 1]``.  Appended nodes must be in every closure —
        their fresh rows are written before anything reads them.
        Returns the number of table rows recomputed.
        """
        if self._hidden is None:
            raise RuntimeError("refresh() before rebuild()")
        if len(closures) != self.num_layers + 1:
            raise ValueError(
                f"need {self.num_layers + 1} closures for {self.num_layers} layers, "
                f"got {len(closures)}"
            )
        adjacency = graph.normalized_adjacency()
        n = graph.num_nodes
        self._grow(n)
        h = graph.features
        last = self.num_layers - 1
        for i, (weight, bias) in enumerate(zip(self._weights, self._biases)):
            rows_in, rows_out = closures[i], closures[i + 1]
            if len(rows_in):
                self._support_rows(h, weight, self._supports[i], rows_in)
            if len(rows_out):
                self._hidden[i][rows_out] = self._aggregate_rows(
                    adjacency, self._supports[i], bias, relu=i < last, rows=rows_out
                )
            h = self._hidden[i]
        return len(closures[-1])

    def _grow(self, num_rows: int) -> None:
        """Extend stored arrays for appended nodes (new rows start as
        garbage; the caller's closures always include them, so every new
        row is overwritten before it is read)."""
        for arrays in (self._supports, self._hidden):
            for i, array in enumerate(arrays):
                if array.shape[0] < num_rows:
                    grown = np.empty((num_rows, array.shape[1]), dtype=array.dtype)
                    grown[: array.shape[0]] = array
                    arrays[i] = grown


class BackgroundRefresher:
    """Eagerly refresh a streaming engine from a daemon thread.

    Wakes whenever the engine applies a delta (registered as a delta
    listener) and additionally every ``interval_s`` as a heartbeat.  A
    cycle that raises — including an injected ``serving:refresh`` fault —
    increments ``refresh_errors_total`` on the engine's metrics and is
    otherwise swallowed: queries fall back to lazy refresh, and the next
    cycle tries again.  Use as a context manager or call
    :meth:`start`/:meth:`stop`.
    """

    def __init__(self, engine, interval_s: float = 0.05):
        self._engine = engine
        self._interval_s = float(interval_s)
        self._wake = threading.Event()
        self._stopping = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._cycle = 0
        self.cycles_run = 0
        self.errors = 0

    # ------------------------------------------------------------------
    def start(self) -> "BackgroundRefresher":
        if self._thread is not None:
            raise RuntimeError("refresher already started")
        self._stopping.clear()
        self._engine.add_delta_listener(self._on_delta)
        self._thread = threading.Thread(
            target=self._run, name="background-refresher", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._engine.remove_delta_listener(self._on_delta)
        self._stopping.set()
        self._wake.set()
        self._thread.join()
        self._thread = None

    def __enter__(self) -> "BackgroundRefresher":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def _on_delta(self, version: int) -> None:
        self._wake.set()

    def _run(self) -> None:
        while True:
            self._wake.wait(timeout=self._interval_s)
            if self._stopping.is_set():
                return
            self._wake.clear()
            cycle = self._cycle
            self._cycle += 1
            try:
                with obs.span("serving:refresh", cycle=cycle):
                    fault_point("serving:refresh", key=cycle)
                    self._engine.refresh()
                self.cycles_run += 1
                self._engine.metrics.inc("refresh_cycles_total")
            except Exception:
                # Degrade to lazy recompute: the table stays stale until
                # the next cycle or the next query touching a stale row.
                self.errors += 1
                self._engine.metrics.inc("refresh_errors_total")
