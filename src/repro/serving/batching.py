"""The serving core: bounded admission plus micro-batching over executors.

A full-batch GCN computes *every* node's logits in one forward, so ten
concurrent prediction requests answered independently cost ten forwards
of which nine are pure waste.  :class:`BatchingCore` turns that waste
into throughput, and it is the one queue both serving modes run on:
requests land on a bounded queue, a dispatcher thread drains up to
``max_batch_size`` of them (waiting at most ``max_wait_s`` for
stragglers once the first request of a batch arrives), and hands the
whole batch to its **executor** — the callable that answers a batch.
There is one dispatcher per executor:

* :class:`MicroBatcher` runs ``batch_fn`` in-thread (for the prediction
  engine, :meth:`~repro.serving.engine.PredictionEngine.answer_batch`,
  which pays one shared logits-table lookup for the batch's node lists);
* :class:`~repro.serving.frontend.ReplicaFrontend` runs one IPC round
  trip per batch to its replica process.

Correctness contract:

* **ordering / identity** — each request's result is routed back on its
  own future; batching can never hand caller A caller B's rows.
* **bitwise parity** — executors must be deterministic per request
  (the engine's eval-mode forwards are), so a batched response is
  bitwise identical to the unbatched one.
* **fault isolation** — a request that fails (including via the
  ``serving:request`` fault point, see :mod:`repro.testing.faults`)
  errors *its own* future; the rest of the batch completes and the
  dispatcher survives to serve the next batch.
* **admission control** — the queue is *bounded* (``max_queue``).  A
  submit against a full queue raises :class:`Overloaded` immediately
  instead of growing the queue without bound: overload sheds the excess
  (HTTP maps it to 429) while the accepted requests keep their latency,
  rather than every request's p99 collapsing together.
"""

from __future__ import annotations

import functools
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.serving.metrics import ServingMetrics
from repro.testing.faults import fault_point

# An executor answers one batch of payloads with one ``(ok, value)``
# pair per payload, in order: ``value`` is the result when ``ok``, else
# the exception that request fails with.  Raising fails the whole batch.
Executor = Callable[[List[object]], List[Tuple[bool, object]]]


class BatcherClosed(ReproError):
    """A request was submitted to a batcher that has been shut down."""


class Overloaded(ReproError):
    """A request was shed: the serving queue is at capacity.

    Raised by :meth:`BatchingCore.submit` instead of enqueueing past the
    bound.  HTTP maps it to ``429 Too Many Requests`` with a
    ``Retry-After`` hint of :attr:`retry_after_s` (rounded up to whole
    seconds).
    """

    def __init__(self, message: str, retry_after_s: float = 0.05):
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


@dataclass
class _Pending:
    """One enqueued request: payload + routing info."""

    key: int  # arrival sequence number (also the fault-point key)
    payload: object
    future: Future = field(default_factory=Future)
    submitted: float = field(default_factory=time.monotonic)


_SHUTDOWN = object()


def run_isolated(
    batch_fn: Callable[[Sequence[object]], Sequence[object]], payloads: List[object]
) -> List[Tuple[bool, object]]:
    """Run ``batch_fn`` over a batch as an :data:`Executor`.

    One call answers the whole batch.  If it fails, the culprit may be a
    single malformed payload among several coalesced ones, so each
    payload is re-run alone and only the ones that fail alone fail
    (deterministic batch functions make the retry bitwise-equal).
    """
    try:
        results = batch_fn(payloads)
        if len(results) != len(payloads):
            raise ReproError(
                f"batch_fn returned {len(results)} results for {len(payloads)} requests"
            )
    except Exception as error:
        if len(payloads) == 1:
            return [(False, error)]
        return [run_isolated(batch_fn, [payload])[0] for payload in payloads]
    return [(True, result) for result in results]


class BatchingCore:
    """Bounded admission queue + micro-batching dispatchers.

    Subclasses validate their own arguments, call ``__init__`` (which
    validates the queue knobs), then :meth:`_start` their executors.

    Parameters
    ----------
    max_batch_size:
        Largest batch handed to an executor.
    max_wait_s:
        How long a dispatcher holds the first request of a batch while
        waiting for more to coalesce.  Bounds the latency cost of
        batching; 0 batches only what is already queued.
    max_queue:
        Admission bound: requests queued (not yet picked up by a
        dispatcher) beyond this are shed with :class:`Overloaded`
        instead of enqueued.  Sizes the worst-case queueing delay —
        under overload the queue holds at most ``max_queue`` requests,
        so accepted requests keep a bounded p99 while the excess is
        rejected fast.
    metrics:
        :class:`ServingMetrics` receiving request counts, per-request
        latency, batch sizes, shed and error counts (a fresh registry
        when ``None``).
    """

    def __init__(
        self,
        *,
        max_batch_size: int,
        max_wait_s: float,
        max_queue: int,
        metrics: Optional[ServingMetrics],
    ):
        if max_batch_size < 1:
            raise ReproError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_wait_s < 0:
            raise ReproError(f"max_wait_s must be >= 0, got {max_wait_s}")
        if max_queue < 1:
            raise ReproError(f"max_queue must be >= 1, got {max_queue}")
        self.max_batch_size = int(max_batch_size)
        self.max_wait_s = float(max_wait_s)
        self.max_queue = int(max_queue)
        self.metrics = metrics if metrics is not None else ServingMetrics()
        self._queue: "queue.Queue" = queue.Queue(maxsize=self.max_queue)
        self._lock = threading.Lock()
        self._closed = False
        self._sequence = 0
        self._threads: List[threading.Thread] = []

    def _start(self, executors: Sequence[Executor], name: str) -> None:
        """Start one dispatcher thread per executor."""
        self._threads = [
            threading.Thread(
                target=self._dispatch, args=(executor,), name=f"{name}-{i}", daemon=True
            )
            for i, executor in enumerate(executors)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def submit(self, payload: object) -> Future:
        """Enqueue one request; returns a future resolving to its result.

        The closed check and the enqueue happen under one lock: checking,
        releasing, and then enqueuing would let a request racing
        :meth:`close` land *behind* the shutdown sentinels, where no
        dispatcher would ever resolve its future.

        Raises :class:`Overloaded` (without consuming an arrival
        sequence number) when the queue is at ``max_queue``.
        """
        with self._lock:
            if self._closed:
                raise BatcherClosed("batcher is closed")
            pending = _Pending(key=self._sequence, payload=payload)
            try:
                self._queue.put_nowait(pending)
            except queue.Full:
                self.metrics.inc("shed_total")
                raise Overloaded(
                    f"serving queue is full ({self.max_queue} requests queued)"
                ) from None
            self._sequence += 1
        self.metrics.inc("requests_total")
        return pending.future

    def predict(self, payload: object, timeout: Optional[float] = None) -> object:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(payload).result(timeout=timeout)

    def close(self, timeout: Optional[float] = 5.0) -> None:
        """Stop accepting requests; drain dispatchers; fail leftovers.

        Dispatchers batch whatever precedes their shutdown sentinel, but
        a request enqueued between one dispatcher's sentinel and
        another's (or left behind by one that timed out) would otherwise
        sit on the queue forever with its future unresolved — a
        ``predict()`` caller with no timeout hangs for good.  After the
        joins, everything still queued is failed with
        :class:`BatcherClosed`, so every future ever returned by
        :meth:`submit` resolves.  Then :meth:`_on_close` releases the
        executors' resources.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            # Under the same lock as submit's enqueue: nothing can land
            # behind these sentinels.  The queue is bounded and may be
            # full of shed-worthy requests at shutdown, so sentinel
            # placement evicts (and fails) queued requests rather than
            # blocking close() behind a wedged dispatcher.
            for _ in self._threads:
                self._put_sentinel()
        for thread in self._threads:
            thread.join(timeout=timeout)
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not _SHUTDOWN:
                self._fail(item, BatcherClosed("batcher closed before the request ran"))
        # A dispatcher that outlived its join (wedged in a slow batch)
        # may have had its sentinel swallowed by the drain; repost one
        # per survivor so it can still exit once its batch returns.  The
        # drain just emptied the queue, so these never block for long.
        for thread in self._threads:
            if thread.is_alive():
                self._put_sentinel()
        self._on_close()

    def _on_close(self) -> None:
        """Release executor resources once the queue is shut (a hook)."""

    def _put_sentinel(self) -> None:
        """Place one shutdown sentinel without ever blocking.

        A full queue at close time holds requests that are doomed anyway
        (the post-join drain would fail them); evicting one to make room
        for the sentinel just fails it earlier.  Bounded attempts: if a
        sentinel evicts another sentinel (tiny queue, several
        dispatchers) the shortfall is repaired by close()'s post-join
        repost loop.
        """
        for _ in range(self.max_queue + len(self._threads) + 1):
            try:
                self._queue.put_nowait(_SHUTDOWN)
                return
            except queue.Full:
                try:
                    evicted = self._queue.get_nowait()
                except queue.Empty:
                    continue
                if evicted is _SHUTDOWN:
                    # Keep the sibling's sentinel; count ours as placed —
                    # a deficit is repaired after the joins.
                    try:
                        self._queue.put_nowait(evicted)
                    except queue.Full:
                        pass
                    return
                self._fail(evicted, BatcherClosed("batcher closed before the request ran"))

    def __enter__(self) -> "BatchingCore":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # Dispatcher side
    # ------------------------------------------------------------------
    def _collect(self, first: _Pending) -> Tuple[List[_Pending], bool]:
        """Coalesce queued requests behind ``first`` until size or deadline.

        Returns ``(batch, shutdown)``; a sentinel drained mid-batch is
        consumed by *this* dispatcher (it runs the batch, then exits)
        rather than reposted — a repost against a full bounded queue
        would block the dispatcher behind the very backlog it should be
        draining.
        """
        batch = [first]
        deadline = time.monotonic() + self.max_wait_s
        while len(batch) < self.max_batch_size:
            remaining = deadline - time.monotonic()
            try:
                item = self._queue.get(block=remaining > 0, timeout=max(remaining, 0) or None)
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                return batch, True
            batch.append(item)
        return batch, False

    def _dispatch(self, execute: Executor) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                return
            batch, shutdown = self._collect(item)
            self._run_batch(execute, batch)
            if shutdown:
                return

    def _run_batch(self, execute: Executor, batch: List[_Pending]) -> None:
        self.metrics.observe_batch_size(len(batch))
        live: List[_Pending] = []
        for pending in batch:
            try:
                fault_point("serving:request", key=pending.key, payload=pending.payload)
            except Exception as error:
                self._fail(pending, error)
            else:
                live.append(pending)
        if not live:
            return
        try:
            results = execute([pending.payload for pending in live])
        except Exception as error:
            for pending in live:
                self._fail(pending, error)
            return
        now = time.monotonic()
        for pending, (ok, value) in zip(live, results):
            if ok:
                self.metrics.observe_latency(now - pending.submitted)
                pending.future.set_result(value)
            else:
                self._fail(pending, value)

    def _fail(self, pending: _Pending, error: Exception) -> None:
        self.metrics.inc("errors_total")
        pending.future.set_exception(error)


class MicroBatcher(BatchingCore):
    """The serving core over in-thread ``batch_fn`` executors.

    Parameters
    ----------
    batch_fn:
        ``batch_fn(payloads) -> results`` executing a whole batch in one
        call; must return exactly one result per payload, in order.  A
        failing batch is re-run request by request (:func:`run_isolated`),
        so one bad payload fails only its own future.
    workers:
        Dispatcher threads draining the queue, each running ``batch_fn``.
        One maximizes coalescing; more help when ``batch_fn`` releases
        the GIL.
    max_batch_size / max_wait_s / max_queue / metrics:
        The core's knobs (see :class:`BatchingCore`).
    """

    def __init__(
        self,
        batch_fn: Callable[[Sequence[object]], Sequence[object]],
        *,
        max_batch_size: int = 32,
        max_wait_s: float = 0.002,
        workers: int = 1,
        max_queue: int = 1024,
        metrics: Optional[ServingMetrics] = None,
    ):
        if workers < 1:
            raise ReproError(f"workers must be >= 1, got {workers}")
        super().__init__(
            max_batch_size=max_batch_size, max_wait_s=max_wait_s,
            max_queue=max_queue, metrics=metrics,
        )
        self.batch_fn = batch_fn
        self._start([functools.partial(run_isolated, batch_fn)] * workers, "microbatcher")
