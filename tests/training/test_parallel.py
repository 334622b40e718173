"""Tests for the process-pool executor and its determinism contract.

The one hard requirement: ``workers=N`` must produce results equal to
``workers=1`` (which itself is the pre-parallel serial loop).  The box
running the suite may expose a single core — the pool clamps itself to
the available cores and degrades to the serial loop — so the tests that
need a real pool monkeypatch :func:`available_cores`.

The fault-tolerance tests crash real worker processes (``os._exit``)
with filesystem sentinels making each crash happen exactly once, so a
rebuilt pool observes the task succeeding on its second attempt.
"""

import multiprocessing
import os
import time
import warnings as warnings_module

import numpy as np
import pytest

from repro.evaluation.common import HarnessConfig, load_graphs, run_over_seeds, run_single_gcn
from repro.training import parallel
from repro.training.parallel import (
    TaskTimeout,
    available_cores,
    get_shared,
    parallel_map,
    reset_fallback_warnings,
)
from repro.training.seed import spawn_rngs

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def _square(x):
    return x * x


def _shared_lookup(index):
    return get_shared()[index] * 10


def _once(sentinel):
    """True exactly once per sentinel path (atomic create-or-fail)."""
    try:
        fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def _crash_once(args):
    x, sentinel = args
    if x == 2 and _once(sentinel):
        os._exit(1)  # hard-kill the worker: the pool breaks
    return x * x


def _flaky(args):
    x, sentinel = args
    if x == 1 and _once(sentinel):
        raise ValueError("transient failure")
    return x * x


def _slow_once(args):
    x, sentinel = args
    if x == 1 and _once(sentinel):
        time.sleep(3.0)
    return x * x


def _sleepy(x):
    if x == 1:
        time.sleep(3.0)
    return x


@pytest.fixture
def two_cores(monkeypatch):
    """Force the pool clamp to allow two workers even on a 1-core box."""
    monkeypatch.setattr(parallel, "available_cores", lambda: 2)


def _first_draws(seed, count):
    return [int(rng.integers(2**62)) for rng in spawn_rngs(seed, count)]


class TestSpawnSeeds:
    """Ensemble members draw from :func:`spawn_rngs`, whose streams
    derive from the root seed alone, so every process spawns the same."""

    def test_deterministic(self):
        assert _first_draws(0, 4) == _first_draws(0, 4)

    def test_distinct(self):
        assert len(set(_first_draws(7, 8))) == 8

    def test_differs_by_root(self):
        assert _first_draws(0, 4) != _first_draws(1, 4)


class TestParallelMap:
    def test_serial_basics(self):
        assert parallel_map(_square, [1, 2, 3], workers=1) == [1, 4, 9]

    def test_empty(self):
        assert parallel_map(_square, [], workers=4) == []

    def test_order_preserved_with_pool(self, two_cores):
        items = list(range(12))
        assert parallel_map(_square, items, workers=2) == [x * x for x in items]

    def test_unpicklable_falls_back_serially(self, two_cores):
        offset = 5
        with pytest.warns(UserWarning, match="not picklable"):
            result = parallel_map(lambda x: x + offset, [1, 2], workers=2)
        assert result == [6, 7]

    def test_single_worker_pool_runs_serial(self, monkeypatch):
        # workers > 1 but one usable core: the pool would serialize
        # anyway, so the executor must not be constructed at all.
        monkeypatch.setattr(parallel, "available_cores", lambda: 1)

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("pool constructed despite single core")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", boom)
        assert parallel_map(_square, [1, 2, 3], workers=4) == [1, 4, 9]

    @pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
    def test_shared_payload_reaches_workers(self, two_cores):
        payload = [3, 5, 7]
        result = parallel_map(
            _shared_lookup, [0, 1, 2], workers=2, shared=payload
        )
        assert result == [30, 50, 70]

    def test_shared_payload_serial(self):
        assert parallel_map(_shared_lookup, [1], workers=1, shared=[4, 8]) == [80]

    def test_shared_cleared_after_call(self):
        parallel_map(_shared_lookup, [0], workers=1, shared=[1])
        assert get_shared() is None


class TestWorkerDeterminism:
    @pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
    def test_run_over_seeds_matches_serial(self, two_cores):
        budget = dict(
            scale=0.05, seeds=(0, 1), max_epochs=4, patience=4, hidden=8
        )
        serial_cfg = HarnessConfig(workers=1, **budget)
        pooled_cfg = HarnessConfig(workers=2, **budget)
        graphs = load_graphs(serial_cfg, "cora")
        serial = run_over_seeds(run_single_gcn, graphs, serial_cfg)
        pooled = run_over_seeds(run_single_gcn, graphs, pooled_cfg)
        assert len(serial) == len(pooled) == 2
        for a, b in zip(serial, pooled):
            assert a.test_accuracy == b.test_accuracy
            assert a.val_accuracy == b.val_accuracy
            assert a.epochs_run == b.epochs_run


class TestFallbackWarnings:
    @pytest.fixture(autouse=True)
    def fresh_warning_sites(self):
        reset_fallback_warnings()
        yield
        reset_fallback_warnings()

    def test_warns_once_per_call_site_with_reason(self, two_cores):
        offset = 1
        with warnings_module.catch_warnings(record=True) as caught:
            warnings_module.simplefilter("always")
            for _ in range(3):  # same call site three times -> one warning
                assert parallel_map(lambda x: x + offset, [1, 2], workers=2) == [2, 3]
        fallback = [w for w in caught if "not picklable" in str(w.message)]
        assert len(fallback) == 1
        # The reason (what failed to pickle, and why) must be included.
        assert "task function" in str(fallback[0].message)

    def test_distinct_call_sites_each_warn(self, two_cores):
        offset = 1
        with warnings_module.catch_warnings(record=True) as caught:
            warnings_module.simplefilter("always")
            parallel_map(lambda x: x + offset, [1, 2], workers=2)
            parallel_map(lambda x: x + offset, [1, 2], workers=2)  # different line
        assert len([w for w in caught if "not picklable" in str(w.message)]) == 2

    def test_reset_rearms_the_warning(self, two_cores):
        offset = 1
        with warnings_module.catch_warnings(record=True) as caught:
            warnings_module.simplefilter("always")
            for _ in range(2):
                parallel_map(lambda x: x + offset, [1, 2], workers=2)
                reset_fallback_warnings()
        assert len([w for w in caught if "not picklable" in str(w.message)]) == 2


class TestSerialRetries:
    def test_transient_failure_retried(self, tmp_path):
        sentinel = str(tmp_path / "flaky")
        tasks = [(x, sentinel) for x in range(3)]
        with pytest.warns(UserWarning, match="retrying"):
            result = parallel_map(_flaky, tasks, workers=1, retries=1)
        assert result == [0, 1, 4]

    def test_retries_exhausted_propagates(self):
        def always_fails(x):
            raise ValueError("permanent failure")

        with pytest.raises(ValueError, match="permanent failure"):
            with pytest.warns(UserWarning, match="retrying"):
                parallel_map(always_fails, [1], workers=1, retries=2)

    def test_no_retries_fails_fast(self):
        calls = []

        def fails(x):
            calls.append(x)
            raise ValueError("boom")

        with pytest.raises(ValueError):
            parallel_map(fails, [1], workers=1)
        assert calls == [1]


class TestResumeHooks:
    def test_on_result_reports_each_new_result_in_order(self):
        seen = []
        parallel_map(_square, [1, 2, 3], workers=1, on_result=lambda i, r: seen.append((i, r)))
        assert seen == [(0, 1), (1, 4), (2, 9)]

    def test_completed_tasks_are_skipped(self):
        def must_not_run_zero(x):
            if x == 0:
                raise AssertionError("completed task re-ran")
            return x * x

        result = parallel_map(must_not_run_zero, [0, 1, 2], workers=1, completed={0: 111})
        assert result == [111, 1, 4]

    def test_completed_tasks_not_rereported(self):
        seen = []
        parallel_map(
            _square, [1, 2, 3], workers=1,
            on_result=lambda i, r: seen.append(i), completed={1: 999},
        )
        assert seen == [0, 2]

    def test_completed_accepts_string_keys(self):
        # Checkpoint payloads that round-trip through JSON stringify keys.
        assert parallel_map(_square, [5, 6], workers=1, completed={"1": 42}) == [25, 42]

    def test_out_of_range_completed_ignored(self):
        assert parallel_map(_square, [2], workers=1, completed={7: 1}) == [4]

    def test_all_completed_runs_nothing(self):
        def boom(x):
            raise AssertionError("nothing should run")

        assert parallel_map(boom, [1, 2], workers=1, completed={0: "a", 1: "b"}) == ["a", "b"]


@pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
class TestPoolFaultTolerance:
    def test_broken_pool_recovers_and_reruns_only_lost_tasks(self, two_cores, tmp_path):
        sentinel = str(tmp_path / "crash")
        tasks = [(x, sentinel) for x in range(4)]
        with pytest.warns(UserWarning, match="process pool broke"):
            result = parallel_map(_crash_once, tasks, workers=2)
        assert result == [0, 1, 4, 9]

    def test_pooled_transient_failure_retried(self, two_cores, tmp_path):
        sentinel = str(tmp_path / "flaky")
        tasks = [(x, sentinel) for x in range(4)]
        with pytest.warns(UserWarning, match="retrying"):
            result = parallel_map(_flaky, tasks, workers=2, retries=1)
        assert result == [0, 1, 4, 9]

    def test_task_timeout_raises_after_retries(self, two_cores):
        with pytest.raises(TaskTimeout, match="exceeded"):
            parallel_map(_sleepy, [0, 1], workers=2, task_timeout=0.25)

    def test_task_timeout_recovers_when_retry_is_fast(self, two_cores, tmp_path):
        sentinel = str(tmp_path / "slow")
        tasks = [(x, sentinel) for x in range(2)]
        with pytest.warns(UserWarning, match="restarting the pool"):
            result = parallel_map(_slow_once, tasks, workers=2, task_timeout=0.5, retries=1)
        assert result == [0, 1]

    def test_finished_work_survives_a_task_failure(self, two_cores, tmp_path):
        # Task 1 fails with no retries; results already computed by the
        # pool must still reach on_result before the error propagates.
        seen = {}
        sentinel = str(tmp_path / "never-created-so-always-raises")

        def record(index, value):
            seen[index] = value

        with pytest.raises(ValueError, match="transient failure"):
            with warnings_module.catch_warnings():
                warnings_module.simplefilter("ignore")
                parallel_map(
                    _always_flaky, [(x, sentinel) for x in range(4)],
                    workers=2, on_result=record,
                )
        assert all(seen[i] == i * i for i in seen)


def _always_flaky(args):
    x, _ = args
    if x == 1:
        time.sleep(0.2)  # let some siblings finish first
        raise ValueError("transient failure")
    return x * x
