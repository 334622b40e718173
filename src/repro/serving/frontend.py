"""The replica frontend: the serving core over worker processes.

:class:`ReplicaFrontend` is the in-parent half of the replica tier
(:mod:`repro.serving.replica` is the worker half).  It is a
:class:`~repro.serving.batching.BatchingCore` — the same bounded
admission queue, collect window, ``serving:request`` fault point, close
and metrics as the in-process micro-batcher — whose executors are one
IPC round trip per batch to a replica process.  What it adds:

* the **one** shared-memory logits table — computed by a parent-side
  engine at construction, placed in a
  :class:`~repro.serving.replica.SharedLogitsTable`, attached read-only
  by every replica;
* **one executor per replica**, each dispatcher pulling from the shared
  admission queue.  Pulling from a shared queue is natural
  least-loaded balancing: a replica stuck in a slow batch simply stops
  taking work while its siblings drain the queue;
* **self-healing** — a replica that dies or stops answering
  (``reply_timeout_s``) is terminated and re-forked with fresh queues,
  and the in-flight batch is retried once on the revived replica
  (predictions are pure, so the retry is safe and bitwise-identical);
* **rolling reload** — :meth:`reload` computes the new artifact's table
  into a fresh shared segment, then swaps replicas one at a time under
  their per-replica locks.  The other replicas keep answering
  throughout, so an artifact upgrade is zero-downtime by construction.

Determinism: each replica holds an identical engine attached to the
same physical table and answers a batch exactly as the in-process
executor does (:meth:`~repro.serving.engine.PredictionEngine.answer_batch`),
and inductive sampling is seeded from query content, so fan-out answers
are bitwise-equal to a single-process engine's — the property the
replica parity tests check.

Streaming engines are out of scope here: a delta-mutated table cannot
live in a read-only shared segment.  Use a single-process
:class:`~repro.serving.engine.PredictionEngine` with
``streaming=True`` for that deployment shape.
"""

from __future__ import annotations

import functools
import multiprocessing
import queue
import threading
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.errors import ReproError
from repro.graph.graph import Graph
from repro.serving.artifacts import ModelArtifact
from repro.serving.batching import BatcherClosed, BatchingCore
from repro.serving.engine import PredictionEngine, ServingError
from repro.serving.metrics import ServingMetrics
from repro.serving.replica import ReplicaError, SharedLogitsTable, replica_main


class _Replica:
    """Parent-side handle on one worker process (mutated in place by revive)."""

    def __init__(self, index: int, process, request_queue, response_queue):
        self.index = index
        self.process = process
        self.request_queue = request_queue
        self.response_queue = response_queue
        # Serializes the strictly-paired send/recv protocol; reload and
        # revive take the same lock to swap the replica out safely.
        self.lock = threading.Lock()


class ReplicaFrontend(BatchingCore):
    """Serve one artifact from N worker processes sharing one logits table.

    Requests are the serving payloads of
    :meth:`~repro.serving.engine.PredictionEngine.answer_batch`: a
    node-id list or an :class:`~repro.serving.engine.InductiveQuery`.

    Parameters
    ----------
    artifact / graph:
        What to serve, exactly as :class:`PredictionEngine` takes them.
    replicas:
        Worker processes.  Each holds a full engine but shares the
        transductive table, so marginal memory per replica is the model
        weights, not the table.
    engine_kwargs:
        Forwarded to every engine construction (parent and replicas);
        ``streaming=True`` is rejected — see the module docstring.
    max_queue / max_batch_size / max_wait_s / metrics:
        The core's knobs (see
        :class:`~repro.serving.batching.BatchingCore`); ``max_queue`` is
        the admission bound across the whole tier, and ``max_wait_s``
        caps each replica's collect window, which otherwise lasts as
        long as that replica's previous round trip.
    reply_timeout_s:
        How long an executor waits for its replica's answer before
        declaring it wedged and re-forking it.
    spawn_timeout_s:
        How long to wait for a replica's ready handshake at fork time.
    """

    def __init__(
        self,
        artifact: Union[ModelArtifact, str, Path],
        graph: Graph,
        *,
        replicas: int = 2,
        engine_kwargs: Optional[dict] = None,
        max_queue: int = 1024,
        max_batch_size: int = 32,
        max_wait_s: float = 0.002,
        reply_timeout_s: float = 30.0,
        spawn_timeout_s: float = 30.0,
        metrics: Optional[ServingMetrics] = None,
    ):
        if replicas < 1:
            raise ReproError(f"replicas must be >= 1, got {replicas}")
        super().__init__(
            max_batch_size=max_batch_size, max_wait_s=max_wait_s,
            max_queue=max_queue, metrics=metrics,
        )
        self._engine_kwargs = dict(engine_kwargs or {})
        if self._engine_kwargs.get("streaming"):
            raise ServingError(
                "the replica tier serves a static shared table; "
                "streaming engines must run single-process"
            )
        self.reply_timeout_s = float(reply_timeout_s)
        self.spawn_timeout_s = float(spawn_timeout_s)
        self.artifact_version = 0

        # Parent engine: computes the table once, then serves as the
        # metadata source for /healthz (model kind, node/class counts).
        self._engine = PredictionEngine(artifact, graph, **self._engine_kwargs)
        self._shared = SharedLogitsTable.create(self._engine.logits_table())
        # The parent, too, serves from the shared copy — its private
        # table is dropped, leaving one physical table for the machine.
        self._engine.install_logits_table(self._shared.table)

        # fork: replicas inherit the loaded artifact + graph as
        # copy-on-write memory, no pickling of model state.  Platforms
        # without fork fall back to the default (spawn) context, which
        # pickles the constructor args instead.
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX
            self._ctx = multiprocessing.get_context()

        self._replicas: List[_Replica] = []
        try:
            for index in range(replicas):
                self._replicas.append(self._spawn(index))
        except Exception:
            self._on_close()
            raise
        self._start(
            [functools.partial(self._execute, replica) for replica in self._replicas],
            "replica-dispatch",
        )

    # ------------------------------------------------------------------
    # Introspection (for /healthz)
    # ------------------------------------------------------------------
    @property
    def replicas(self) -> int:
        return len(self._replicas)

    @property
    def model_kind(self) -> str:
        return self._engine.model_kind

    @property
    def num_nodes(self) -> int:
        return self._engine.num_nodes

    @property
    def num_classes(self) -> int:
        return self._engine.num_classes

    @property
    def graph(self) -> Graph:
        return self._engine.graph

    def ping(self) -> List[dict]:
        """One info dict per live replica (served counts, pids, versions)."""
        infos = []
        for replica in self._replicas:
            with replica.lock:
                if not replica.process.is_alive():
                    infos.append({"replica": replica.index, "alive": False})
                    continue
                replica.request_queue.put(("ping",))
                try:
                    kind, info = replica.response_queue.get(timeout=self.reply_timeout_s)
                except queue.Empty:
                    infos.append({"replica": replica.index, "alive": False})
                    continue
            info = dict(info) if kind == "pong" else {"replica": replica.index}
            info["alive"] = True
            infos.append(info)
        return infos

    # ------------------------------------------------------------------
    # Rolling reload
    # ------------------------------------------------------------------
    def reload(self, artifact_path: Union[str, Path]) -> int:
        """Swap every replica to a new artifact with zero downtime.

        The new table is computed parent-side into a fresh shared
        segment first; then each replica rebuilds from ``artifact_path``
        one at a time, under its own lock, while the others keep
        serving.  Returns the new :attr:`artifact_version`.  A replica
        that fails to reload keeps serving the old artifact and the
        error propagates after the loop (partial swaps are visible in
        :meth:`ping`'s per-replica ``artifact_version``).
        """
        artifact_path = str(artifact_path)
        fresh_engine = PredictionEngine(artifact_path, self._engine.graph, **self._engine_kwargs)
        fresh_shared = SharedLogitsTable.create(fresh_engine.logits_table())
        fresh_engine.install_logits_table(fresh_shared.table)

        failures = []
        for replica in self._replicas:
            if not replica.process.is_alive():
                # A dead replica whose executor has not picked up work
                # yet (healing is lazy) would fail the swap; re-fork it
                # now — it comes up on the old artifact and reloads like
                # its siblings.
                try:
                    self._revive(replica)
                except Exception as error:
                    failures.append(f"replica {replica.index} is dead ({error})")
                    continue
            with replica.lock:
                replica.request_queue.put(("reload", artifact_path, fresh_shared.descriptor))
                try:
                    kind, info = replica.response_queue.get(timeout=self.reply_timeout_s)
                except queue.Empty:
                    failures.append(f"replica {replica.index} reload timed out")
                    continue
                if kind != "reloaded":
                    failures.append(f"replica {replica.index}: {info}")
        if failures:
            fresh_shared.close()
            fresh_shared.unlink()
            raise ReplicaError("rolling reload failed: " + "; ".join(failures))

        old_engine, old_shared = self._engine, self._shared
        self._engine, self._shared = fresh_engine, fresh_shared
        self.artifact_version += 1
        self.metrics.inc("reloads_total")
        del old_engine
        old_shared.close()
        old_shared.unlink()
        return self.artifact_version

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _on_close(self) -> None:
        """Stop the replica processes and destroy the shared table."""
        for replica in self._replicas:
            if replica.process.is_alive():
                try:
                    replica.request_queue.put_nowait(("shutdown",))
                except Exception:
                    pass
        for replica in self._replicas:
            replica.process.join(timeout=2.0)
            if replica.process.is_alive():
                replica.process.terminate()
                replica.process.join(timeout=1.0)
        self._shared.close()
        self._shared.unlink()

    # ------------------------------------------------------------------
    # Replica management
    # ------------------------------------------------------------------
    def _spawn(self, index: int) -> _Replica:
        request_queue = self._ctx.Queue()
        response_queue = self._ctx.Queue()
        process = self._ctx.Process(
            target=replica_main,
            args=(
                index,
                self._engine.artifact,
                self._engine.graph,
                self._engine_kwargs,
                self._shared.descriptor,
                request_queue,
                response_queue,
            ),
            name=f"serving-replica-{index}",
            daemon=True,
        )
        process.start()
        try:
            kind, info = response_queue.get(timeout=self.spawn_timeout_s)
        except queue.Empty:
            process.terminate()
            raise ReplicaError(f"replica {index} did not come up") from None
        if kind != "ready":
            process.join(timeout=1.0)
            raise ReplicaError(f"replica {index} failed to start: {info}")
        return _Replica(index, process, request_queue, response_queue)

    def _revive(self, replica: _Replica) -> None:
        """Re-fork a dead or wedged replica with fresh queues.

        Fresh queues matter: a *wedged* (not dead) old process may emit
        its answer eventually, and it must land on an abandoned queue
        rather than desynchronize the new process's request/reply pairing.
        """
        with replica.lock:
            if replica.process.is_alive():
                replica.process.terminate()
            replica.process.join(timeout=2.0)
            fresh = self._spawn(replica.index)
            replica.process = fresh.process
            replica.request_queue = fresh.request_queue
            replica.response_queue = fresh.response_queue
        self.metrics.inc("replica_restarts_total")

    # ------------------------------------------------------------------
    # Executor
    # ------------------------------------------------------------------
    def _execute(self, replica: _Replica, payloads: List[object]) -> List[Tuple[bool, object]]:
        """Answer one batch on ``replica`` (the core's executor)."""
        try:
            return self._roundtrip(replica, payloads)
        except ReplicaError:
            if self._closed:
                # close() already stopped the replicas: fail the batch
                # rather than re-fork a worker nobody will shut down.
                raise BatcherClosed("frontend closed before the request ran") from None
            # Dead or wedged replica: re-fork it and retry the batch
            # once.  Predictions are pure, so the retry is safe — and
            # bitwise-identical, per the engine's determinism contract.
            self._revive(replica)
            return self._roundtrip(replica, payloads)

    def _roundtrip(self, replica: _Replica, payloads: List[object]) -> List[Tuple[bool, object]]:
        with replica.lock:
            if not replica.process.is_alive():
                raise ReplicaError(f"replica {replica.index} died")
            replica.request_queue.put(("predict", payloads))
            try:
                kind, results = replica.response_queue.get(timeout=self.reply_timeout_s)
            except queue.Empty:
                raise ReplicaError(
                    f"replica {replica.index} did not answer within "
                    f"{self.reply_timeout_s}s"
                ) from None
        if kind != "results" or len(results) != len(payloads):
            raise ReplicaError(f"replica {replica.index} answered out of protocol")
        return results
