"""Replica worker processes sharing one logits table.

One GIL-bound process caps serving throughput no matter how well it
batches.  The replica tier runs N worker **processes**, each holding a
:class:`~repro.serving.engine.PredictionEngine`, behind the in-parent
:class:`~repro.serving.frontend.ReplicaFrontend`.  The expensive shared
state — the precomputed transductive logits table — lives in
``multiprocessing.shared_memory``: the parent computes it once, every
replica attaches a read-only view, so N replicas cost one table, not N.

Two pieces live here:

* :class:`SharedLogitsTable` — lifecycle wrapper around one shared
  segment: ``create`` (parent; copies the table in), ``attach``
  (worker; read-only zero-copy view), ``close``/``unlink``.  Attaching
  skips resource-tracker registration — the parent owns the segment
  and unlinks it; a worker exiting must not tear it down under its
  siblings.
* :func:`replica_main` — the worker process body: build the engine,
  attach the shared table, then answer framed messages off a request
  queue (``predict`` batches, ``ping``, ``reload``, ``shutdown``).  One
  message in, one reply out, strictly sequential — the frontend's
  per-replica executor enforces the pairing, so no correlation ids
  are needed.  A ``predict`` batch is answered exactly as the
  in-process micro-batcher answers one:
  :meth:`~repro.serving.engine.PredictionEngine.answer_batch` under
  :func:`~repro.serving.batching.run_isolated`.

The worker is **fork-spawned**: the parent's loaded artifact and graph
ride into the child as inherited (copy-on-write) memory, so boot costs
milliseconds and no pickling of model state happens on the spawn path.
A ``reload`` message carries an artifact *path* plus the name of a fresh
shared segment; the worker builds the new engine from disk, attaches the
new table, and drops the old — the frontend swaps replicas one at a time
so the tier as a whole never stops serving (rolling reload).
"""

from __future__ import annotations

import signal
import threading
from multiprocessing import resource_tracker, shared_memory
from typing import Optional, Tuple

import numpy as np

from repro.errors import ReproError
from repro.serving.batching import run_isolated
from repro.serving.engine import PredictionEngine


class ReplicaError(ReproError):
    """A replica worker failed, timed out, or answered out of protocol."""


_ATTACH_LOCK = threading.Lock()


# ----------------------------------------------------------------------
# Shared-memory logits table
# ----------------------------------------------------------------------
class SharedLogitsTable:
    """One logits table in a named shared-memory segment.

    The parent calls :meth:`create` (copying the computed table in) and
    eventually :meth:`unlink`; workers call :meth:`attach` with the
    ``(name, shape, dtype)`` descriptor and get a read-only ndarray view
    at :attr:`table` — zero copies, one physical table for the fleet.
    """

    def __init__(self, shm: shared_memory.SharedMemory, table: np.ndarray, owner: bool):
        self._shm = shm
        self.table = table
        self._owner = owner

    @classmethod
    def create(cls, table: np.ndarray) -> "SharedLogitsTable":
        table = np.ascontiguousarray(table)
        shm = shared_memory.SharedMemory(create=True, size=table.nbytes)
        view = np.ndarray(table.shape, dtype=table.dtype, buffer=shm.buf)
        view[:] = table
        view.flags.writeable = False
        return cls(shm, view, owner=True)

    @classmethod
    def attach(cls, name: str, shape: Tuple[int, ...], dtype: str) -> "SharedLogitsTable":
        # Python 3.11's SharedMemory registers with the resource tracker
        # on *attach* too, and the tracker (shared with the parent after
        # fork) keeps one flat set of names — a second attacher's
        # unregister would race the first's into a tracker KeyError, and
        # not unregistering makes the tracker destroy the segment under
        # the parent when a worker exits.  Attach without registering:
        # the creating parent is the sole owner of cleanup.
        with _ATTACH_LOCK:
            original_register = resource_tracker.register
            resource_tracker.register = lambda *args, **kwargs: None
            try:
                shm = shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = original_register
        view = np.ndarray(tuple(shape), dtype=np.dtype(dtype), buffer=shm.buf)
        view.flags.writeable = False
        return cls(shm, view, owner=False)

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def descriptor(self) -> Tuple[str, Tuple[int, ...], str]:
        """``(name, shape, dtype)`` — everything :meth:`attach` needs."""
        return self._shm.name, tuple(self.table.shape), str(self.table.dtype)

    def close(self) -> None:
        """Drop this process's mapping (the segment itself survives)."""
        self.table = None
        try:
            self._shm.close()
        except BufferError:
            # A live numpy view still references the buffer somewhere;
            # the mapping is reclaimed when the process exits.
            pass

    def unlink(self) -> None:
        """Destroy the segment (owner only; call after every close)."""
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass


# ----------------------------------------------------------------------
# Worker process body
# ----------------------------------------------------------------------
def replica_main(
    index: int,
    artifact,
    graph,
    engine_kwargs: Optional[dict],
    table_descriptor: Tuple[str, Tuple[int, ...], str],
    request_queue,
    response_queue,
) -> None:
    """Run one replica: build the engine, attach the table, serve the queue.

    Message protocol (one reply per message, in order):

    ==================================  =================================
    ``("predict", [payload, ...])``     ``("results", [(ok, value), ...])``
                                        — one ``answer_batch`` call with
                                        per-payload isolation: a bad
                                        payload errors alone, the rest
                                        of the batch answers normally
    ``("ping",)``                       ``("pong", info_dict)``
    ``("reload", path, descriptor)``    ``("reloaded", info)`` or
                                        ``("error", message)``
    ``("shutdown",)``                   ``("bye",)`` then return
    ==================================  =================================
    """
    # Ctrl-C in a terminal signals the whole foreground process group;
    # shutdown is the parent's job (the shutdown message, or terminate),
    # so the worker ignoring SIGINT turns ^C into a clean exit instead
    # of N interleaved KeyboardInterrupt tracebacks.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except ValueError:  # pragma: no cover - non-main thread (in-process tests)
        pass
    shared = None
    try:
        engine = PredictionEngine(artifact, graph, **(engine_kwargs or {}))
        shared = SharedLogitsTable.attach(*table_descriptor)
        engine.install_logits_table(shared.table)
    except Exception as error:  # fail fast: the frontend awaits this handshake
        response_queue.put(("error", f"{type(error).__name__}: {error}"))
        return
    response_queue.put(("ready", {"replica": index, "pid": __import__("os").getpid()}))

    served = 0
    artifact_version = 0
    while True:
        message = request_queue.get()
        op = message[0]
        if op == "shutdown":
            shared.close()
            response_queue.put(("bye",))
            return
        if op == "ping":
            response_queue.put(
                ("pong", {"replica": index, "served": served, "artifact_version": artifact_version})
            )
            continue
        if op == "reload":
            _, path, descriptor = message
            try:
                fresh_engine = PredictionEngine(path, engine.graph, **(engine_kwargs or {}))
                fresh_shared = SharedLogitsTable.attach(*descriptor)
                fresh_engine.install_logits_table(fresh_shared.table)
            except Exception as error:
                # Keep serving the old artifact: a bad reload must not
                # take the replica down mid-swap.
                response_queue.put(("error", f"{type(error).__name__}: {error}"))
                continue
            old = shared
            engine, shared = fresh_engine, fresh_shared
            artifact_version += 1
            old.close()
            response_queue.put(
                ("reloaded", {"replica": index, "artifact_version": artifact_version})
            )
            continue
        if op == "predict":
            results = run_isolated(engine.answer_batch, message[1])
            served += len(results)
            response_queue.put(("results", results))
            continue
        response_queue.put(("error", f"unknown op {op!r}"))
