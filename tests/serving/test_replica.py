"""Replica tier: shared table, fan-out parity, healing, reload, admission.

The contract under test is the module docstring of
:mod:`repro.serving.frontend`: N worker processes attached to **one**
shared-memory logits table answer bitwise-identically to a single
in-process engine; a full admission queue sheds with
:class:`Overloaded` instead of queueing without bound; dead or wedged
replicas are re-forked and the in-flight batch retried; and a rolling
reload swaps artifacts with zero downtime.
"""

import json
import os
import signal
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.serving.artifacts import ModelSpec, export_model_artifact
from repro.serving.batching import BatcherClosed, Overloaded
from repro.serving.engine import InductiveQuery, PredictionEngine, ServingError
from repro.serving.frontend import ReplicaFrontend
from repro.serving.metrics import ServingMetrics, merge_counter_snapshots
from repro.serving.replica import SharedLogitsTable
from repro.serving.server import PredictionServer
from repro.testing.faults import FaultPlan, inject

from .conftest import build_gcn

NUM_NODES = 60  # tiny_graph size; strategies must stay in range

node_request = st.lists(st.integers(min_value=0, max_value=NUM_NODES - 1), min_size=1, max_size=6)
request_stream = st.lists(node_request, min_size=1, max_size=16)

relaxed = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def frontend(gcn_artifact_path, tiny_graph):
    """A 2-replica tier over the session artifact, reused across tests."""
    with ReplicaFrontend(
        gcn_artifact_path, tiny_graph, replicas=2, max_wait_s=0.001, reply_timeout_s=15.0
    ) as tier:
        yield tier


def _export_v2(tmp_path, tiny_graph):
    """A second (differently seeded) artifact to swap in."""
    model = build_gcn(tiny_graph, seed=11)
    return export_model_artifact(
        tmp_path / "v2.rddart", model, ModelSpec("gcn", {"hidden": 8}), tiny_graph
    )


# ----------------------------------------------------------------------
# Shared-memory table
# ----------------------------------------------------------------------
class TestSharedLogitsTable:
    def test_attach_sees_the_creators_bytes_readonly(self):
        table = np.arange(24, dtype=np.float64).reshape(6, 4)
        owner = SharedLogitsTable.create(table)
        try:
            attached = SharedLogitsTable.attach(*owner.descriptor)
            assert np.array_equal(attached.table, table)
            assert not attached.table.flags.writeable
            assert not owner.table.flags.writeable
            with pytest.raises(ValueError):
                attached.table[0, 0] = 1.0
            attached.close()
            attached.unlink()  # non-owner: must be a no-op
            assert np.array_equal(owner.table, table)  # segment survived
        finally:
            owner.close()
            owner.unlink()

    def test_descriptor_roundtrips_shape_and_dtype(self):
        table = np.ones((3, 5), dtype=np.float32)
        owner = SharedLogitsTable.create(table)
        try:
            name, shape, dtype = owner.descriptor
            assert name == owner.name
            assert shape == (3, 5) and dtype == "float32"
        finally:
            owner.close()
            owner.unlink()

    def test_unlink_destroys_the_segment(self):
        owner = SharedLogitsTable.create(np.zeros((2, 2)))
        descriptor = owner.descriptor
        owner.close()
        owner.unlink()
        with pytest.raises(FileNotFoundError):
            SharedLogitsTable.attach(*descriptor)
        owner.unlink()  # idempotent


# ----------------------------------------------------------------------
# Fan-out parity
# ----------------------------------------------------------------------
class TestParity:
    @relaxed
    @given(stream=request_stream)
    def test_fanout_is_bitwise_equal_to_single_process(self, frontend, engine, stream):
        futures = [frontend.submit(nodes) for nodes in stream]
        for nodes, future in zip(stream, futures):
            assert np.array_equal(future.result(timeout=30), engine.predict_nodes(nodes))

    def test_inductive_parity(self, frontend, engine, tiny_graph):
        features = np.asarray(tiny_graph.features[7]).ravel()
        for neighbors in ([3, 4], [0, 1, 2], [50]):
            assert np.array_equal(
                frontend.predict(InductiveQuery(features, neighbors), timeout=30),
                engine.predict_inductive(features, neighbors),
            )

    def test_concurrent_clients_get_their_own_results(self, frontend, engine):
        rng = np.random.default_rng(9)
        streams = [
            [rng.integers(0, NUM_NODES, size=4).tolist() for _ in range(15)]
            for _ in range(6)
        ]
        expected = [[engine.predict_nodes(nodes) for nodes in stream] for stream in streams]
        mismatches = []

        def client(index):
            for nodes, reference in zip(streams[index], expected[index]):
                if not np.array_equal(frontend.predict(nodes, timeout=30), reference):
                    mismatches.append(index)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not mismatches

    def test_ping_reports_every_replica(self, frontend):
        infos = frontend.ping()
        assert len(infos) == 2
        assert all(info["alive"] for info in infos)
        assert {info["replica"] for info in infos} == {0, 1}


# ----------------------------------------------------------------------
# Admission control (saturation)
# ----------------------------------------------------------------------
class TestAdmission:
    def test_saturation_sheds_overloaded_and_accepted_requests_complete(
        self, gcn_artifact_path, tiny_graph, engine
    ):
        # Wedge the single dispatcher at the serving:request fault point,
        # fill the tiny admission queue, and assert the valve: excess
        # submits raise Overloaded immediately, every accepted request
        # still answers (bitwise-correctly) once the wedge clears, and
        # the accepted tail is bounded by queue depth — not by how much
        # load was offered.
        entered, release = threading.Event(), threading.Event()

        def block(context):
            entered.set()
            release.wait(timeout=30)

        metrics = ServingMetrics()
        plan = FaultPlan().fail("serving:request", at=0, action=block)
        with ReplicaFrontend(
            gcn_artifact_path, tiny_graph, replicas=1, max_queue=2,
            max_batch_size=1, max_wait_s=0.0, metrics=metrics,
        ) as frontend:
            with inject(plan):
                first = frontend.submit([0])
                assert entered.wait(timeout=10), "dispatcher never reached the wedge"
                accepted = [frontend.submit([i + 1]) for i in range(2)]
                shed = 0
                for i in range(8):
                    try:
                        accepted.append(frontend.submit([i + 10]))
                    except Overloaded as error:
                        shed += 1
                        assert error.retry_after_s > 0
                assert shed > 0, "queue bound never engaged"
                started = time.perf_counter()
                release.set()
                assert np.array_equal(first.result(timeout=30), engine.predict_nodes([0]))
                for future in accepted:
                    future.result(timeout=30)
                drain = time.perf_counter() - started
            assert drain < 10.0, f"accepted backlog took {drain:.1f}s to drain"
        assert metrics.counter("shed_total") == shed
        assert metrics.counter("errors_total") == 0

    def test_closed_frontend_refuses_submissions(self, gcn_artifact_path, tiny_graph):
        frontend = ReplicaFrontend(gcn_artifact_path, tiny_graph, replicas=1)
        frontend.close()
        with pytest.raises(BatcherClosed):
            frontend.submit([0])
        frontend.close()  # idempotent

    def test_streaming_engines_are_rejected(self, gcn_artifact_path, tiny_graph):
        with pytest.raises(ServingError, match="single-process"):
            ReplicaFrontend(
                gcn_artifact_path, tiny_graph, replicas=1,
                engine_kwargs={"streaming": True},
            )

    @pytest.mark.parametrize(
        "kwargs",
        [{"replicas": 0}, {"max_queue": 0}, {"max_batch_size": 0}, {"max_wait_s": -1.0}],
        ids=["replicas", "queue", "batch-size", "wait"],
    )
    def test_invalid_knobs_rejected(self, gcn_artifact_path, tiny_graph, kwargs):
        with pytest.raises(ReproError):
            ReplicaFrontend(gcn_artifact_path, tiny_graph, **kwargs)


# ----------------------------------------------------------------------
# Self-healing
# ----------------------------------------------------------------------
class TestSelfHealing:
    def test_killed_replica_is_revived_and_the_request_retried(
        self, gcn_artifact_path, tiny_graph, engine
    ):
        metrics = ServingMetrics()
        with ReplicaFrontend(
            gcn_artifact_path, tiny_graph, replicas=1, max_wait_s=0.0, metrics=metrics
        ) as frontend:
            victim = frontend._replicas[0].process
            victim.kill()
            victim.join(timeout=10)
            assert not victim.is_alive()
            # The next request finds the corpse, re-forks, and retries —
            # the caller sees only a correct answer.
            assert np.array_equal(
                frontend.predict([1, 2], timeout=60), engine.predict_nodes([1, 2])
            )
            assert frontend._replicas[0].process.pid != victim.pid
        assert metrics.counter("replica_restarts_total") >= 1
        assert metrics.counter("errors_total") == 0

    def test_wedged_replica_times_out_and_is_replaced(
        self, gcn_artifact_path, tiny_graph, engine
    ):
        # SIGSTOP freezes the worker mid-service: alive but silent — the
        # failure mode reply_timeout_s exists for.  The dispatcher must
        # declare it wedged, re-fork, and retry on the fresh process.
        metrics = ServingMetrics()
        with ReplicaFrontend(
            gcn_artifact_path, tiny_graph, replicas=1, max_wait_s=0.0,
            reply_timeout_s=1.0, metrics=metrics,
        ) as frontend:
            wedged_pid = frontend._replicas[0].process.pid
            os.kill(wedged_pid, signal.SIGSTOP)
            try:
                assert np.array_equal(
                    frontend.predict([5], timeout=60), engine.predict_nodes([5])
                )
                assert frontend._replicas[0].process.pid != wedged_pid
            finally:
                try:
                    os.kill(wedged_pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        assert metrics.counter("replica_restarts_total") >= 1


# ----------------------------------------------------------------------
# Rolling reload
# ----------------------------------------------------------------------
class TestRollingReload:
    def test_reload_swaps_artifacts_with_zero_downtime(
        self, gcn_artifact_path, tiny_graph, engine, tmp_path
    ):
        v2_path = _export_v2(tmp_path, tiny_graph)
        engine_v2 = PredictionEngine(v2_path, tiny_graph)
        probe = [0, 13, 31]
        v1_answer = engine.predict_nodes(probe)
        v2_answer = engine_v2.predict_nodes(probe)
        assert not np.array_equal(v1_answer, v2_answer), "v2 must be distinguishable"

        with ReplicaFrontend(
            gcn_artifact_path, tiny_graph, replicas=2, max_wait_s=0.001
        ) as frontend:
            stop = threading.Event()
            bad, served = [], [0]

            def hammer():
                while not stop.is_set():
                    # During the swap either version may answer — but
                    # never an error, and never a torn mixture of the
                    # two tables.
                    try:
                        logits = frontend.predict(probe, timeout=30)
                    except Exception as error:  # noqa: BLE001 - asserted below
                        bad.append(error)
                        return
                    if not (np.array_equal(logits, v1_answer) or np.array_equal(logits, v2_answer)):
                        bad.append(logits)
                    served[0] += 1

            clients = [threading.Thread(target=hammer) for _ in range(3)]
            for client in clients:
                client.start()
            try:
                version = frontend.reload(v2_path)
            finally:
                stop.set()
                for client in clients:
                    client.join(timeout=30)
            assert version == 1 and frontend.artifact_version == 1
            assert served[0] > 0 and not bad
            # Post-swap the whole tier answers from v2, repeatedly.
            for _ in range(8):
                assert np.array_equal(frontend.predict(probe, timeout=30), v2_answer)
            assert all(info["artifact_version"] == 1 for info in frontend.ping())
            assert frontend.metrics.counter("reloads_total") == 1

    def test_failed_reload_keeps_the_old_artifact_serving(
        self, gcn_artifact_path, tiny_graph, engine, tmp_path
    ):
        with ReplicaFrontend(
            gcn_artifact_path, tiny_graph, replicas=1, max_wait_s=0.0
        ) as frontend:
            with pytest.raises(ReproError):
                frontend.reload(tmp_path / "missing.rddart")
            assert frontend.artifact_version == 0
            assert np.array_equal(
                frontend.predict([2, 3], timeout=30), engine.predict_nodes([2, 3])
            )


# ----------------------------------------------------------------------
# HTTP end-to-end (frontend mode)
# ----------------------------------------------------------------------
def _call(url: str, body=None, timeout: float = 15.0):
    """(status, payload, headers) for a GET or JSON POST; 4xx/5xx included."""
    if body is None:
        request = urllib.request.Request(url)
    else:
        request = urllib.request.Request(
            url,
            data=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


class TestHTTPFrontend:
    def test_frontend_server_end_to_end(
        self, gcn_artifact_path, tiny_graph, engine, tmp_path
    ):
        v2_path = _export_v2(tmp_path, tiny_graph)
        engine_v2 = PredictionEngine(v2_path, tiny_graph)
        frontend = ReplicaFrontend(gcn_artifact_path, tiny_graph, replicas=2, max_wait_s=0.001)
        with PredictionServer(frontend=frontend, port=0).start() as server:
            status, health, _ = _call(f"{server.url}/healthz")
            assert status == 200
            assert health["replicas"] == 2 and health["artifact_version"] == 0
            assert health["model"] == "gcn"

            nodes = [0, 17, 59]
            status, payload, _ = _call(f"{server.url}/predict", {"nodes": nodes})
            assert status == 200
            assert payload["labels"] == engine.predict_nodes(nodes).argmax(axis=1).tolist()

            features = np.asarray(tiny_graph.features[4]).ravel()
            status, payload, _ = _call(
                f"{server.url}/predict", {"features": features.tolist(), "neighbors": [4, 9]}
            )
            assert status == 200
            expected = engine.predict_inductive(features, [4, 9])
            assert payload["label"] == int(np.argmax(expected))

            status, payload, _ = _call(
                f"{server.url}/admin/reload", {"artifact": str(v2_path)}
            )
            assert status == 200
            assert payload == {"status": "reloaded", "artifact_version": 1}
            status, payload, _ = _call(f"{server.url}/predict", {"nodes": nodes})
            assert status == 200
            assert payload["labels"] == engine_v2.predict_nodes(nodes).argmax(axis=1).tolist()

            status, snapshot, _ = _call(f"{server.url}/metrics")
            assert snapshot["counters"]["requests_total"] >= 3
            assert snapshot["counters"]["reloads_total"] == 1

    def test_saturated_tier_answers_429_with_retry_after(
        self, gcn_artifact_path, tiny_graph
    ):
        entered, release = threading.Event(), threading.Event()

        def block(context):
            entered.set()
            release.wait(timeout=30)

        plan = FaultPlan().fail("serving:request", at=0, action=block)
        frontend = ReplicaFrontend(
            gcn_artifact_path, tiny_graph, replicas=1, max_queue=1,
            max_batch_size=1, max_wait_s=0.0,
        )
        with PredictionServer(frontend=frontend, port=0).start() as server:
            results = []

            def post():
                results.append(_call(f"{server.url}/predict", {"nodes": [0]}, timeout=30))

            with inject(plan):
                wedged = threading.Thread(target=post)
                wedged.start()
                assert entered.wait(timeout=10)
                queued = threading.Thread(target=post)
                queued.start()
                # The queued request is admitted once requests_total counts it.
                deadline = time.monotonic() + 10
                while frontend.metrics.counter("requests_total") < 2:
                    assert time.monotonic() < deadline, "second request never admitted"
                    time.sleep(0.005)

                status, payload, headers = _call(f"{server.url}/predict", {"nodes": [1]})
                assert status == 429
                assert "full" in payload["error"]
                assert int(headers["Retry-After"]) >= 1

                release.set()
                wedged.join(timeout=30)
                queued.join(timeout=30)
            assert [status for status, _, _ in results] == [200, 200]
            status, snapshot, _ = _call(f"{server.url}/metrics")
            assert snapshot["counters"]["http_429"] >= 1
            assert snapshot["counters"]["shed_total"] >= 1
            assert snapshot["counters"]["http_200"] >= 2


# ----------------------------------------------------------------------
# Metrics plumbing
# ----------------------------------------------------------------------
def test_merge_counter_snapshots_sums_across_processes():
    merged = merge_counter_snapshots(
        [
            {"counters": {"requests_total": 3, "shed_total": 1}},
            {"counters": {"requests_total": 4, "errors_total": 2}},
            {"counters": {}},
        ]
    )
    assert merged == {"requests_total": 7, "shed_total": 1, "errors_total": 2}
