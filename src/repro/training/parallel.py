"""Fault-tolerant process-pool execution for parallel training work.

Harness seed loops, Bagging base models, and grid-search cells are
independent full training runs: no shared mutable state, deterministic
given their own seed/rng.  :func:`parallel_map` fans such tasks out over
a process pool while guaranteeing:

* **order preservation** — results come back in task order, so seed
  averaging and best-cell selection are identical to the serial loop;
* **serial equivalence** — ``workers=1`` runs in-process with no pool,
  executor, or pickling involved, bit-identical to the pre-parallel code;
* **graceful degradation** — tasks that cannot be pickled (e.g. lambda
  model factories) fall back to the serial path (warning once per call
  site, with the pickle error) instead of crashing, as does a pool that
  cannot be constructed at all;
* **fault tolerance** — per-task ``retries`` with exponential
  ``backoff``, a per-task ``task_timeout``, and broken-pool recovery: if
  worker processes die (OOM killer, segfault, :func:`os._exit`), the
  pool is rebuilt and only the tasks without results are re-run.
  Completed work is never repeated;
* **resumability** — callers pass ``completed`` (index → result) to skip
  work recovered from a checkpoint, and ``on_result`` to persist each
  newly computed result the moment it arrives.  Together these give
  every loop built on ``parallel_map`` crash-safe resume for free.

Workers are spawned with the ``fork`` start method where available so
graphs and configs are inherited copy-on-write instead of re-pickled per
task.  Large read-only inputs (graphs, ensembles) should ride the fork
via the ``shared`` payload — pushing megabytes of features through the
task pipe costs more than the training it parallelizes.  Each task runs
the same pure function on its own arguments; child processes never
mutate parent state, so re-running a lost task after a pool failure is
safe.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, Iterable, List, Optional, Sequence, TypeVar

import numpy as np

import repro.obs as obs
from repro.errors import TrainingError
from repro.testing.faults import fault_point

T = TypeVar("T")
R = TypeVar("R")

# Pool rebuilds allowed per parallel_map call before degrading to serial.
MAX_POOL_RESTARTS = 2


class TaskTimeout(TrainingError):
    """A parallel task exceeded ``task_timeout`` on every allowed attempt.

    Deliberately *not* an :class:`OSError` (unlike the builtin
    ``TimeoutError``) so pool-failure handling never confuses a slow
    task with a dead executor.
    """


def available_cores() -> int:
    """CPU cores this process may run on (affinity-aware, min 1)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # non-Linux platforms
        return max(1, os.cpu_count() or 1)


def spawn_seeds(seed: int, count: int) -> List[int]:
    """``count`` independent integer seeds derived from ``seed``.

    Uses :class:`numpy.random.SeedSequence` spawning, so the derived
    streams are statistically independent and identical regardless of
    which process consumes them — the contract that makes parallel and
    serial execution produce the same models.
    """
    return [int(child.generate_state(1)[0]) for child in np.random.SeedSequence(seed).spawn(count)]


# Read-only payload inherited by forked workers (see parallel_map).  Set
# in the parent before the pool forks; never mutated by children.
_SHARED = None


def get_shared():
    """The ``shared`` payload of the enclosing :func:`parallel_map` call.

    Task functions use this to reach large read-only inputs (graphs,
    ensembles) that ride into forked workers as copy-on-write memory
    instead of being pickled through the task pipe.
    """
    return _SHARED


# ----------------------------------------------------------------------
# Serial-fallback warnings: once per call site, with the reason
# ----------------------------------------------------------------------
_WARNED_SITES: set = set()


def reset_fallback_warnings() -> None:
    """Forget which call sites already warned (test isolation hook)."""
    _WARNED_SITES.clear()


def _warn_fallback(category: str, message: str) -> None:
    """Warn about a serial fallback once per (call site, category).

    The same harness loop degrading a thousand times should not print a
    thousand identical warnings — but each *distinct* call site gets its
    own, so silent degradation is impossible.
    """
    frame = sys._getframe(2)  # _warn_fallback <- parallel_map <- caller
    key = (frame.f_code.co_filename, frame.f_lineno, category)
    if key in _WARNED_SITES:
        return
    _WARNED_SITES.add(key)
    warnings.warn(message, stacklevel=3)


def _pickle_check(fn, items) -> tuple:
    """(ok, reason): whether fn and the task list survive pickling."""
    for target, label in ((fn, "task function"), (items, "task arguments")):
        try:
            pickle.dumps(target)
        except Exception as error:
            return False, f"{label}: {type(error).__name__}: {error}"
    return True, ""


# ----------------------------------------------------------------------
# Task execution
# ----------------------------------------------------------------------
def _invoke_task(fn, index, item):
    """Run one task (in a worker or in-process) through its fault point.

    The span lands in the parent's event log even from a pooled worker:
    forked workers inherit the enabled recorder, which reopens the same
    ``events.jsonl`` in append mode on first emit in the new process.
    """
    fault_point("parallel:task", key=index)
    with obs.span("parallel:task", index=index):
        return fn(item)


def _backoff_sleep(backoff: float, attempt: int) -> None:
    if backoff > 0.0:
        time.sleep(backoff * (2.0**attempt))


def _run_with_retries(fn, item, index, retries, backoff):
    attempt = 0
    while True:
        try:
            return _invoke_task(fn, index, item)
        except Exception as error:
            if attempt >= retries:
                raise
            warnings.warn(
                f"parallel_map: task {index} failed "
                f"({type(error).__name__}: {error}); retrying "
                f"({attempt + 1}/{retries})",
                stacklevel=2,
            )
            _backoff_sleep(backoff, attempt)
            attempt += 1


def _run_serial(fn, items, pending, results, retries, backoff, on_result):
    for index in list(pending):
        results[index] = _run_with_retries(fn, items[index], index, retries, backoff)
        pending.remove(index)
        if on_result is not None:
            on_result(index, results[index])


class _PoolRestart(Exception):
    """Internal: the pool must be rebuilt and lost tasks resubmitted."""


def _harvest(futures, results, pending, on_result):
    """Record every finished-successfully future before a pool rebuild.

    Futures that completed before the pool broke keep their results, so
    a crash costs only the genuinely unfinished tasks.
    """
    for index in list(pending):
        future = futures.get(index)
        if future is None or not future.done() or future.cancelled():
            continue
        if future.exception() is not None:
            continue  # will be retried by the rebuilt pool
        results[index] = future.result()
        pending.remove(index)
        if on_result is not None:
            on_result(index, results[index])


def _run_pool(
    fn, items, pending, results, pool_size, context, retries, backoff, task_timeout, on_result
):
    attempts = {index: 0 for index in pending}
    restarts = 0
    while pending:
        try:
            pool = ProcessPoolExecutor(
                max_workers=min(pool_size, len(pending)), mp_context=context
            )
        except Exception as error:  # missing semaphores, fd limits, ...
            warnings.warn(
                f"parallel_map: cannot create process pool "
                f"({type(error).__name__}: {error}); running serially",
                stacklevel=3,
            )
            _run_serial(fn, items, pending, results, retries, backoff, on_result)
            return
        futures: Dict[int, object] = {}
        try:
            futures = {
                index: pool.submit(_invoke_task, fn, index, items[index]) for index in pending
            }
            for index in list(pending):
                while True:
                    try:
                        value = futures[index].result(timeout=task_timeout)
                    except FuturesTimeout:
                        # The worker may be wedged; the only safe move is
                        # to tear the pool down and resubmit lost tasks.
                        attempts[index] += 1
                        if attempts[index] > retries:
                            raise TaskTimeout(
                                f"parallel_map: task {index} exceeded its "
                                f"{task_timeout}s timeout on all "
                                f"{retries + 1} attempt(s)"
                            ) from None
                        warnings.warn(
                            f"parallel_map: task {index} exceeded its "
                            f"{task_timeout}s timeout; restarting the pool and retrying "
                            f"({attempts[index]}/{retries})",
                            stacklevel=3,
                        )
                        raise _PoolRestart from None
                    except BrokenProcessPool as error:
                        warnings.warn(
                            f"parallel_map: process pool broke "
                            f"({type(error).__name__}: {error}); rebuilding and "
                            "re-running only the lost tasks",
                            stacklevel=3,
                        )
                        raise _PoolRestart from None
                    except Exception as error:
                        attempts[index] += 1
                        if attempts[index] > retries:
                            raise
                        warnings.warn(
                            f"parallel_map: task {index} failed "
                            f"({type(error).__name__}: {error}); retrying "
                            f"({attempts[index]}/{retries})",
                            stacklevel=3,
                        )
                        _backoff_sleep(backoff, attempts[index] - 1)
                        try:
                            futures[index] = pool.submit(_invoke_task, fn, index, items[index])
                        except Exception:  # pool died while we were retrying
                            raise _PoolRestart from None
                        continue
                    results[index] = value
                    pending.remove(index)
                    if on_result is not None:
                        on_result(index, value)
                    break
            pool.shutdown(wait=True)
        except _PoolRestart:
            _harvest(futures, results, pending, on_result)
            pool.shutdown(wait=False, cancel_futures=True)
            restarts += 1
            if restarts > MAX_POOL_RESTARTS:
                warnings.warn(
                    "parallel_map: process pool failed repeatedly; running the "
                    f"remaining {len(pending)} task(s) serially",
                    stacklevel=3,
                )
                _run_serial(fn, items, pending, results, retries, backoff, on_result)
                return
        except BaseException:
            # A task ran out of retries (or the caller interrupted):
            # persist what finished, then propagate.
            _harvest(futures, results, pending, on_result)
            pool.shutdown(wait=False, cancel_futures=True)
            raise


def parallel_map(
    fn: Callable[[T], R],
    tasks: Iterable[T],
    workers: Optional[int] = 1,
    chunksize: int = 1,
    shared=None,
    retries: int = 0,
    backoff: float = 0.0,
    task_timeout: Optional[float] = None,
    on_result: Optional[Callable[[int, R], None]] = None,
    completed: Optional[Dict[int, R]] = None,
) -> List[R]:
    """Apply ``fn`` to every task, optionally across worker processes.

    ``workers <= 1`` (or a single pending task) runs the plain serial
    loop — the exact code path the repo had before parallelism existed.
    With ``workers > 1`` the tasks are distributed over a process pool
    and the results returned in task order.  Unpicklable work falls back
    to the serial loop, warning once per call site with the pickle error.

    ``shared`` is made available to tasks via :func:`get_shared` for the
    duration of the call.  Keep per-task tuples small (indices, seeds,
    configs) and put anything megabyte-sized in ``shared``: forked
    workers inherit it for free, while task arguments pay pickle +
    pipe-transfer per worker.

    Fault-tolerance knobs:

    retries / backoff:
        Each failing task is re-run up to ``retries`` times, sleeping
        ``backoff * 2**attempt`` seconds between attempts.  The final
        failure propagates to the caller.
    task_timeout:
        Seconds a pooled task may run before it is presumed lost; the
        pool is torn down, rebuilt, and the task retried (then
        :class:`TaskTimeout` once retries are exhausted).  Serial runs
        cannot be preempted and ignore the timeout.
    on_result:
        ``on_result(index, result)`` invoked in the parent exactly once
        per *newly computed* result, as soon as it is recorded —
        checkpoint stores hang their incremental saves here.
    completed:
        Results recovered from a checkpoint, ``{task index: result}``.
        Those tasks are skipped entirely (and not re-reported through
        ``on_result``); only the missing indices run.

    ``chunksize`` is retained for backward compatibility but unused:
    scheduling has been per-task since retries/timeouts/checkpoint hooks
    were added, and the training tasks this module runs are seconds to
    minutes long, so per-task submission overhead is noise.
    """
    global _SHARED
    items: List[T] = list(tasks)
    results: List[R] = [None] * len(items)  # type: ignore[list-item]
    done = set()
    if completed:
        for index, value in completed.items():
            index = int(index)
            if 0 <= index < len(items):
                results[index] = value
                done.add(index)
    pending = [index for index in range(len(items)) if index not in done]

    previous_shared = _SHARED
    _SHARED = shared
    try:
        if not pending:
            return results

        use_pool = workers is not None and workers > 1 and len(pending) > 1
        context = None
        if use_pool:
            ok, reason = _pickle_check(fn, items)
            if not ok:
                _warn_fallback(
                    "unpicklable",
                    f"parallel_map: task is not picklable ({reason}); running "
                    "serially (use module-level functions to enable process "
                    "parallelism)",
                )
                use_pool = False
        if use_pool:
            methods = multiprocessing.get_all_start_methods()
            if "fork" not in methods and shared is not None:
                # Spawned workers re-import modules and would see _SHARED=None.
                _warn_fallback(
                    "no-fork",
                    "parallel_map: shared payload requires fork-based workers; "
                    "running serially",
                )
                use_pool = False
            else:
                context = multiprocessing.get_context("fork" if "fork" in methods else None)
        if use_pool:
            # Cap the pool at the cores we may actually run on: these tasks
            # are CPU-bound, so oversubscription only buys scheduler thrash.
            pool_size = min(int(workers), len(pending), available_cores())
            if pool_size <= 1:
                # A one-worker pool is the serial loop plus pickling overhead.
                use_pool = False

        if not use_pool:
            _run_serial(fn, items, pending, results, retries, backoff, on_result)
            return results

        _run_pool(
            fn,
            items,
            pending,
            results,
            pool_size,
            context,
            retries,
            backoff,
            task_timeout,
            on_result,
        )
        return results
    finally:
        _SHARED = previous_shared
