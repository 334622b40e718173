"""The batching core: ordering, bitwise parity, fault isolation, lifecycle.

Hypothesis property tests that batching preserves per-request ordering
and returns results bitwise-equal to unbatched single-request inference;
a multi-threaded smoke test with concurrent clients; proof that an
injected ``serving:request`` fault errors only its own future while the
batching loop survives.  The admission, batch-window and shutdown-race
classes are written against :class:`~repro.serving.batching.BatchingCore`
and run over both executors: the in-thread micro-batcher and the replica
tier.
"""

import contextlib
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.obs.metrics import MetricRegistry
from repro.serving.batching import BatcherClosed, MicroBatcher, Overloaded
from repro.serving.engine import InductiveQuery, ServingError
from repro.serving.frontend import ReplicaFrontend
from repro.testing.faults import FaultPlan, WorkerCrash, inject

NUM_NODES = 60  # tiny_graph size; strategies must stay in range

node_request = st.lists(st.integers(min_value=0, max_value=NUM_NODES - 1), min_size=1, max_size=6)
request_stream = st.lists(node_request, min_size=1, max_size=24)

relaxed = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


# ----------------------------------------------------------------------
# Property tests
# ----------------------------------------------------------------------
class TestProperties:
    @relaxed
    @given(stream=request_stream)
    def test_results_are_bitwise_equal_to_unbatched(self, engine, stream):
        expected = [engine.predict_nodes(nodes) for nodes in stream]
        with MicroBatcher(engine.predict_many, max_batch_size=8, max_wait_s=0.001) as batcher:
            futures = [batcher.submit(nodes) for nodes in stream]
            for future, reference in zip(futures, expected):
                assert np.array_equal(future.result(timeout=10), reference)

    @relaxed
    @given(stream=st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=32))
    def test_ordering_is_preserved_under_coalescing(self, stream):
        # A payload-tagging batch_fn makes routing mistakes visible: each
        # future must resolve to a pure function of its own payload.
        def batch_fn(payloads):
            return [(value, value * 2 + 1) for value in payloads]

        with MicroBatcher(batch_fn, max_batch_size=4, max_wait_s=0.001) as batcher:
            futures = [batcher.submit(value) for value in stream]
            for value, future in zip(stream, futures):
                assert future.result(timeout=10) == (value, value * 2 + 1)


# ----------------------------------------------------------------------
# Concurrency smoke
# ----------------------------------------------------------------------
class TestConcurrentClients:
    def test_concurrent_clients_get_their_own_bitwise_results(self, engine):
        clients, per_client = 8, 20
        rng = np.random.default_rng(5)
        streams = [
            [rng.integers(0, engine.num_nodes, size=4) for _ in range(per_client)]
            for _ in range(clients)
        ]
        expected = [[engine.predict_nodes(nodes) for nodes in stream] for stream in streams]
        metrics = MetricRegistry()
        mismatches = []

        with MicroBatcher(
            engine.predict_many, max_batch_size=16, max_wait_s=0.002, metrics=metrics
        ) as batcher:

            def client(index):
                for nodes, reference in zip(streams[index], expected[index]):
                    if not np.array_equal(batcher.predict(nodes, timeout=30), reference):
                        mismatches.append(index)

            threads = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        assert not mismatches
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["requests_total"] == clients * per_client
        assert snapshot["counters"].get("errors_total", 0) == 0
        assert snapshot["histograms"]["batch_size"]["count"] == snapshot["counters"]["batches_total"]
        assert snapshot["histograms"]["latency_ms"]["count"] == clients * per_client


# ----------------------------------------------------------------------
# Fault isolation
# ----------------------------------------------------------------------
class TestFaultIsolation:
    def test_injected_fault_fails_only_its_own_future(self, engine):
        metrics = MetricRegistry()
        with inject(FaultPlan().fail("serving:request", key=1)) as plan:
            with MicroBatcher(
                engine.predict_many, max_batch_size=8, max_wait_s=0.02, metrics=metrics
            ) as batcher:
                futures = [batcher.submit([node]) for node in (0, 1, 2, 3)]
                with pytest.raises(WorkerCrash):
                    futures[1].result(timeout=10)
                for node in (0, 2, 3):
                    assert np.array_equal(
                        futures[node].result(timeout=10), engine.predict_nodes([node])
                    )
                # The loop survived: later requests still get answers.
                assert np.array_equal(
                    batcher.predict([5], timeout=10), engine.predict_nodes([5])
                )
        assert plan.fired("serving:request") == 1
        assert metrics.counter("errors_total") == 1
        assert metrics.counter("requests_total") == 5

    def test_malformed_payload_fails_alone_in_a_coalesced_batch(self, engine):
        # predict_many validates up front and raises for the whole batch;
        # the batcher isolates by re-running each request alone, so only
        # the bad payload's future errors.
        with MicroBatcher(engine.predict_many, max_batch_size=8, max_wait_s=0.05) as batcher:
            with _queued_together(batcher):
                futures = [batcher.submit(payload) for payload in ([0, 1], [10**6], [2])]
            with pytest.raises(ServingError):
                futures[1].result(timeout=10)
            assert np.array_equal(futures[0].result(timeout=10), engine.predict_nodes([0, 1]))
            assert np.array_equal(futures[2].result(timeout=10), engine.predict_nodes([2]))

    def test_bad_inductive_query_fails_alone_in_a_mixed_batch(self, engine, tiny_graph):
        # answer_batch serves both payload kinds in one batch; a bad
        # inductive query fails the batch call, and isolation re-runs
        # each request so only that query's future errors.
        features = np.asarray(tiny_graph.features[4]).ravel().tolist()
        payloads = ([0, 1], InductiveQuery(features[:3], [4]), InductiveQuery(features, [4, 9]))
        with MicroBatcher(engine.answer_batch, max_batch_size=8, max_wait_s=0.05) as batcher:
            with _queued_together(batcher):
                futures = [batcher.submit(payload) for payload in payloads]
            with pytest.raises(ServingError):
                futures[1].result(timeout=10)
            assert np.array_equal(futures[0].result(timeout=10), engine.predict_nodes([0, 1]))
            assert np.array_equal(
                futures[2].result(timeout=10), engine.predict_inductive(features, [4, 9])
            )

    def test_single_request_batch_failure_surfaces_directly(self, engine):
        with MicroBatcher(engine.predict_many, max_batch_size=1, max_wait_s=0.0) as batcher:
            with pytest.raises(ServingError):
                batcher.predict([10**6], timeout=10)
            assert np.array_equal(batcher.predict([0], timeout=10), engine.predict_nodes([0]))

    def test_miscounting_batch_fn_fails_the_request(self):
        with MicroBatcher(lambda payloads: [], max_batch_size=1, max_wait_s=0.0) as batcher:
            with pytest.raises(ReproError, match="results"):
                batcher.predict("x", timeout=10)


# ----------------------------------------------------------------------
# The core over both executors
# ----------------------------------------------------------------------
@pytest.fixture
def make_core(request, engine, gcn_artifact_path, tiny_graph):
    """Build the batching core over the test class's ``executor``: an
    in-thread :class:`MicroBatcher` over the engine, or a replica tier
    serving the same artifact.  ``executors`` counts the replicas (the
    micro-batcher always runs one dispatcher); the other knobs are the
    core's."""
    built = []

    def make(executors: int = 1, **knobs):
        if request.cls.executor == "engine":
            core = MicroBatcher(engine.answer_batch, **knobs)
        else:
            core = ReplicaFrontend(gcn_artifact_path, tiny_graph, replicas=executors, **knobs)
        built.append(core)
        return core

    yield make
    for core in built:
        core.close()


def _wedge():
    """(plan, entered, release): a serving:request fault whose action
    parks the dispatcher on its first request until ``release`` is set —
    the deterministic stand-in for a slow or wedged executor."""
    entered, release = threading.Event(), threading.Event()

    def block(context):
        entered.set()
        release.wait(timeout=30)

    return FaultPlan().fail("serving:request", at=0, action=block), entered, release


@contextlib.contextmanager
def _queued_together(core):
    """Park the dispatcher on a warm-up request while the block runs, so
    the requests it submits queue up and leave as one batch (a
    dispatcher's first batch does not wait for stragglers)."""
    plan, entered, release = _wedge()
    with inject(plan):
        warm_up = core.submit([0])
        assert entered.wait(timeout=10), "dispatcher never reached the wedge"
        try:
            yield
        finally:
            release.set()
        warm_up.result(timeout=30)


def _resolves(future, engine, nodes, closing_ok: bool) -> None:
    """An in-flight request at close() resolves, never hangs.  The
    in-thread executor must finish it; only a replica tier, whose workers
    close() has stopped (``closing_ok``), may fail it with BatcherClosed."""
    if closing_ok:
        try:
            result = future.result(timeout=30)
        except BatcherClosed:
            return
    else:
        result = future.result(timeout=30)
    assert np.array_equal(result, engine.predict_nodes(nodes))


class TestAdmission:
    """Admission control, written against the core: every test runs once
    per executor (``TestAdmissionOverReplicas`` reruns it over replicas)."""

    executor = "engine"

    def test_full_queue_sheds_with_overloaded_and_accepted_work_completes(
        self, make_core, engine
    ):
        # Regression: the queue used to be unbounded — saturation grew
        # latency without limit instead of rejecting the excess.
        plan, entered, release = _wedge()
        metrics = MetricRegistry()
        core = make_core(max_batch_size=1, max_wait_s=0.0, max_queue=2, metrics=metrics)
        with inject(plan):
            try:
                first = core.submit([0])  # the dispatcher takes this and blocks
                assert entered.wait(timeout=10), "dispatcher never reached the wedge"
                accepted = [core.submit([node]) for node in (1, 2)]  # fills the queue
                for node in range(3, 8):
                    with pytest.raises(Overloaded) as excinfo:
                        core.submit([node])
                    assert excinfo.value.retry_after_s > 0
            finally:
                release.set()
            # Shedding protected the accepted requests: all complete.
            for node, future in enumerate([first, *accepted]):
                assert np.array_equal(future.result(timeout=30), engine.predict_nodes([node]))
        assert metrics.counter("shed_total") == 5
        assert metrics.counter("requests_total") == 3  # shed never counted

    def test_shed_requests_do_not_consume_sequence_numbers(self, make_core):
        # The fault-point key is the arrival sequence number; shedding
        # must not advance it or keyed fault plans would drift under load.
        plan, entered, release = _wedge()
        plan.fail("serving:request", key=2)
        core = make_core(max_batch_size=1, max_wait_s=0.0, max_queue=1)
        with inject(plan):
            try:
                accepted = [core.submit([0])]  # key 0, wedged in the dispatcher
                assert entered.wait(timeout=10), "dispatcher never reached the wedge"
                accepted.append(core.submit([1]))  # key 1, fills the queue
                with pytest.raises(Overloaded):
                    core.submit([2])  # shed: must not take key 2
            finally:
                release.set()
            for future in accepted:
                future.result(timeout=30)
            # The next accepted request is key 2, so the keyed rule fires.
            with pytest.raises(WorkerCrash):
                core.predict([3], timeout=30)


class TestAdmissionOverReplicas(TestAdmission):
    executor = "replica"


# ----------------------------------------------------------------------
# The collect window
# ----------------------------------------------------------------------
class TestBatchWindow:
    """A dispatcher holds a batch open for as long as its previous batch
    took to run, capped by ``max_wait_s``; every test runs once per
    executor (``TestBatchWindowOverReplicas`` reruns it over replicas)."""

    executor = "engine"

    def test_lone_requests_do_not_wait_out_the_cap(self, make_core, engine):
        # Regression: every batch was held open for the full max_wait_s,
        # so each lone request idled that long before a lookup that
        # takes well under a millisecond.
        core = make_core(max_wait_s=0.5)
        core.predict([0], timeout=30)  # warm-up
        for node in range(1, 11):
            started = time.monotonic()
            result = core.predict([node], timeout=30)
            assert time.monotonic() - started < 0.25
            assert np.array_equal(result, engine.predict_nodes([node]))


class TestBatchWindowOverReplicas(TestBatchWindow):
    executor = "replica"


class TestComputeBoundCoalescing:
    """A slow executor still batches: the window it opens lasts as long
    as its batches take."""

    def test_requests_queued_during_a_batch_share_the_next_one(self):
        batches, running = [], threading.Event()

        def batch_fn(payloads):  # echoes its payloads, 50 ms per batch
            batches.append(list(payloads))
            running.set()
            time.sleep(0.05)
            return payloads

        with MicroBatcher(batch_fn, max_wait_s=0.5) as batcher:
            first = batcher.submit(0)
            assert running.wait(timeout=10), "the first batch never started"
            queued = [batcher.submit(value) for value in (1, 2, 3)]
            assert [future.result(timeout=10) for future in (first, *queued)] == [0, 1, 2, 3]
        assert batches == [[0], [1, 2, 3]]

    def test_a_straggler_within_the_window_joins_the_batch(self):
        # After a 0.3 s batch the next one stays open for up to 0.3 s, so
        # a request sent right after the first reply joins the one that
        # queued during it; max_batch_size=2 then closes the batch.
        batches, running, release = [], threading.Event(), threading.Event()

        def batch_fn(payloads):  # echoes its payloads; the first batch waits for release
            batches.append(list(payloads))
            running.set()
            release.wait(timeout=10)
            return payloads

        with MicroBatcher(batch_fn, max_batch_size=2, max_wait_s=0.5) as batcher:
            first = batcher.submit(0)
            assert running.wait(timeout=10), "the first batch never started"
            time.sleep(0.3)
            queued = batcher.submit(1)
            release.set()
            assert first.result(timeout=10) == 0
            straggler = batcher.submit(2)
            assert queued.result(timeout=10) == 1 and straggler.result(timeout=10) == 2
        assert batches == [[0], [1, 2]]


# ----------------------------------------------------------------------
# Shutdown races (regression tests)
# ----------------------------------------------------------------------
class TestShutdownRaces:
    """Close/drain races, written against the core: every test runs once
    per executor (``TestShutdownRacesOverReplicas`` reruns it over
    replicas)."""

    executor = "engine"

    def test_close_fails_requests_still_queued_behind_the_sentinel(self, make_core, engine):
        # Regression: close() used to join the dispatchers and return,
        # leaving _Pending items queued behind the shutdown sentinel with
        # their futures forever unresolved — predict() with no timeout hung.
        plan, entered, release = _wedge()
        core = make_core(max_batch_size=1, max_wait_s=0.0)
        with inject(plan):
            try:
                first = core.submit([0])
                # Wait until the dispatcher holds the first request so the
                # rest of the stream stays queued.
                assert entered.wait(timeout=10), "dispatcher never reached the wedge"
                queued = [core.submit([node]) for node in (1, 2, 3)]

                closer = threading.Thread(target=core.close, kwargs={"timeout": 0.2})
                closer.start()
                closer.join(timeout=30)
                assert not closer.is_alive()

                # Every queued future resolved — with BatcherClosed, not a hang.
                for future in queued:
                    with pytest.raises(BatcherClosed):
                        future.result(timeout=5)
            finally:
                release.set()
            _resolves(first, engine, [0], closing_ok=self.executor == "replica")

    def test_close_on_a_full_queue_evicts_instead_of_blocking(self, make_core, engine):
        # close() must place its shutdown sentinel even when the bounded
        # queue is full behind a wedged dispatcher: it evicts (and fails)
        # a queued request rather than blocking on the put.
        plan, entered, release = _wedge()
        core = make_core(max_batch_size=1, max_wait_s=0.0, max_queue=2)
        with inject(plan):
            try:
                first = core.submit([0])
                assert entered.wait(timeout=10), "dispatcher never reached the wedge"
                queued = [core.submit([node]) for node in (1, 2)]  # the queue is full

                closer = threading.Thread(target=core.close, kwargs={"timeout": 0.2})
                closer.start()
                closer.join(timeout=30)
                assert not closer.is_alive(), "close() blocked on the full queue"

                for future in queued:
                    with pytest.raises(BatcherClosed):
                        future.result(timeout=5)
            finally:
                release.set()
            _resolves(first, engine, [0], closing_ok=self.executor == "replica")
        with pytest.raises(BatcherClosed):
            core.submit([0])

    def test_submit_close_race_never_leaves_a_hung_future(self, make_core, engine):
        # Regression: submit() checked _closed, released the lock, then
        # enqueued — a request racing close() could land behind the
        # sentinel and hang.  Hammer the race (more threads than cores,
        # a short switch interval): every future returned by submit must
        # resolve (result or BatcherClosed) within a timeout.
        expected = engine.predict_nodes([0])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(20):
                self._race_submit_against_close(make_core, expected)
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def _race_submit_against_close(make_core, expected) -> None:
        core = make_core(executors=2, max_batch_size=4, max_wait_s=0.0)
        futures, lock = [], threading.Lock()
        start = threading.Barrier(5)

        def client():
            try:
                start.wait(timeout=5)
            except threading.BrokenBarrierError:
                return
            while True:
                try:
                    future = core.submit([0])
                except BatcherClosed:
                    return
                with lock:
                    futures.append(future)

        threads = [threading.Thread(target=client) for _ in range(4)]
        for thread in threads:
            thread.start()
        start.wait(timeout=5)
        core.close()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        for future in futures:
            try:
                assert np.array_equal(future.result(timeout=5), expected)
            except BatcherClosed:
                pass  # failed cleanly at shutdown: acceptable, not a hang


class TestShutdownRacesOverReplicas(TestShutdownRaces):
    executor = "replica"


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_closed_batcher_refuses_submissions(self, engine):
        batcher = MicroBatcher(engine.predict_many)
        batcher.close()
        with pytest.raises(BatcherClosed):
            batcher.submit([0])
        batcher.close()  # idempotent

    def test_close_drains_inflight_requests(self, engine):
        batcher = MicroBatcher(engine.predict_many, max_batch_size=4, max_wait_s=0.01)
        futures = [batcher.submit([node]) for node in range(6)]
        batcher.close()
        for node, future in enumerate(futures):
            assert np.array_equal(future.result(timeout=10), engine.predict_nodes([node]))

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_batch_size": 0}, {"max_wait_s": -1.0}, {"max_queue": 0}],
        ids=["batch-size", "wait", "queue"],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ReproError):
            MicroBatcher(lambda payloads: payloads, **kwargs)
