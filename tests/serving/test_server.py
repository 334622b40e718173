"""HTTP front end: routes, status codes, metrics, fault survival.

Each test boots a real :class:`PredictionServer` on an ephemeral port and
talks to it over stdlib ``urllib`` — the same path ``scripts/loadgen.py``
and the CI smoke use.  The overload/timeout/disconnect classes pin the
bugfix contract: saturation answers 429 + ``Retry-After`` instead of
queueing without bound, a wedged worker answers 503 instead of hanging
the handler thread forever, and a client dropping mid-response is
counted — never a traceback, never a dead server.  The error and
overload classes run against both serving modes (engine-backed and
replica-backed), and a parity test replays one request stream through
both under the same fault plan.
"""

import http.client
import json
import socket
import struct
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.serving.engine import PredictionEngine
from repro.serving.frontend import ReplicaFrontend
from repro.serving.server import PredictionServer
from repro.testing.faults import FaultPlan, inject


def _call(url: str, body=None, timeout: float = 10.0):
    """(status, payload) for a GET (body=None) or JSON POST; 4xx/5xx included."""
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
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _post_raw(url: str, body: dict, timeout: float = 15.0):
    """(status, raw response bytes, headers) for a JSON POST."""
    request = urllib.request.Request(
        url, data=json.dumps(body).encode("utf-8"), headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read(), response.headers
    except urllib.error.HTTPError as error:
        return error.code, error.read(), error.headers


def _replica_server(gcn_artifact_path, tiny_graph, request_timeout_s=30.0, **knobs):
    """A started server over a 1-replica tier of the session artifact."""
    frontend = ReplicaFrontend(gcn_artifact_path, tiny_graph, replicas=1, **knobs)
    return PredictionServer(
        frontend=frontend, port=0, request_timeout_s=request_timeout_s
    ).start()


@pytest.fixture
def serve(request, engine, gcn_artifact_path, tiny_graph):
    """Start a server in the test class's ``mode``: the engine behind the
    server's micro-batcher, or a 1-replica tier — with the same core knobs."""

    def start(request_timeout_s: float = 30.0, **knobs) -> PredictionServer:
        if request.cls.mode == "replica":
            return _replica_server(gcn_artifact_path, tiny_graph, request_timeout_s, **knobs)
        return PredictionServer(
            engine, port=0, request_timeout_s=request_timeout_s, **knobs
        ).start()

    return start


@pytest.fixture(scope="module")
def server(engine):
    with PredictionServer(engine, port=0, max_wait_s=0.001).start() as running:
        yield running


def _inductive_body(tiny_graph, neighbors=(4, 9)) -> dict:
    features = np.asarray(tiny_graph.features[4]).ravel()
    return {"features": features.tolist(), "neighbors": list(neighbors)}


class TestRoutes:
    def test_healthz_reports_identity(self, server, engine):
        status, payload = _call(f"{server.url}/healthz")
        assert status == 200
        assert payload == {"status": "ok", "model": "gcn", "nodes": engine.num_nodes}

    def test_predict_nodes_matches_engine(self, server, engine):
        nodes = [0, 17, 59]
        status, payload = _call(f"{server.url}/predict", {"nodes": nodes})
        assert status == 200
        assert payload["nodes"] == nodes
        assert payload["labels"] == engine.predict_nodes(nodes).argmax(axis=1).tolist()

    def test_predict_scalar_node_and_logits(self, server, engine):
        status, payload = _call(
            f"{server.url}/predict", {"nodes": 5, "return_probs": True, "return_logits": True}
        )
        assert status == 200
        assert payload["nodes"] == [5]
        assert np.array_equal(np.asarray(payload["logits"]), engine.predict_nodes([5]))
        assert np.isclose(sum(payload["probs"][0]), 1.0)

    def test_predict_inductive(self, server, engine, tiny_graph):
        features = np.asarray(tiny_graph.features[4]).ravel()
        body = {"features": features.tolist(), "neighbors": [4, 9], "return_probs": True}
        status, payload = _call(f"{server.url}/predict", body)
        assert status == 200
        expected = engine.predict_inductive(features, [4, 9])
        assert payload["label"] == int(np.argmax(expected))
        assert np.isclose(sum(payload["probs"]), 1.0)

    def test_metrics_populate_after_traffic(self, server):
        for _ in range(3):
            assert _call(f"{server.url}/predict", {"nodes": [1, 2]})[0] == 200
        status, snapshot = _call(f"{server.url}/metrics")
        assert status == 200
        assert snapshot["counters"]["requests_total"] >= 3
        assert snapshot["counters"]["http_200"] >= 3
        latency = snapshot["histograms"]["latency_ms"]
        assert latency["count"] >= 3
        assert latency["p50"] > 0.0 and latency["p99"] >= latency["p50"]
        assert snapshot["histograms"]["batch_size"]["count"] >= 1


class TestErrors:
    """Runs against the module's engine-backed server;
    ``TestErrorsOverReplicas`` reruns it against a replica-backed one."""

    def test_unknown_paths_404(self, server):
        assert _call(f"{server.url}/nope")[0] == 404
        assert _call(f"{server.url}/nope", {"x": 1})[0] == 404

    def test_invalid_json_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/predict",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        assert "invalid JSON" in json.loads(excinfo.value.read())["error"]

    @pytest.mark.parametrize(
        "body",
        [
            {"wrong": "keys"},
            {"nodes": [10**6]},
            {"nodes": []},
            {"features": [1.0, 2.0]},
            {"features": [1.0, 2.0], "neighbors": [0]},
            {"nodes": ["x"]},
            {"nodes": [1.7]},
            {"nodes": [True]},
            {"nodes": True},
            {"nodes": "3"},
            {"nodes": {"a": 1}},
            {"features": ["x", 1.0], "neighbors": [0]},
            {"features": [True, 1.0], "neighbors": [0]},
            {"features": "1.0", "neighbors": [0]},
            {"features": [1.0, 2.0], "neighbors": [0.5]},
            [1, 2],
            {"nodes": [2**63]},
            {"features": [10**400], "neighbors": [0]},
        ],
        ids=[
            "no-route", "unknown-id", "empty", "no-neighbors", "bad-features",
            "string-id", "float-id", "bool-id", "bool-scalar", "string-scalar", "object-ids",
            "string-feature", "bool-feature", "string-features", "float-neighbor", "not-object",
            "int64-overflow-id", "float-overflow-feature",
        ],
    )
    def test_client_errors_400_with_json_error(self, server, body):
        status, payload = _call(f"{server.url}/predict", body)
        assert status == 400
        assert isinstance(payload["error"], str) and payload["error"]

    def test_client_errors_counted(self, server):
        before = _call(f"{server.url}/metrics")[1]["counters"].get("http_client_errors_total", 0)
        _call(f"{server.url}/predict", {"nodes": [10**6]})
        _call(f"{server.url}/predict", {"nodes": [1.7]})
        after = _call(f"{server.url}/metrics")[1]["counters"]["http_client_errors_total"]
        assert after == before + 2


class TestErrorsOverReplicas(TestErrors):
    @pytest.fixture(scope="class")
    def server(self, gcn_artifact_path, tiny_graph):
        with _replica_server(gcn_artifact_path, tiny_graph, max_wait_s=0.001) as running:
            yield running


class TestFaultSurvival:
    def test_injected_fault_returns_clean_json_and_server_lives(self, engine):
        # A worker-side fault on one request must surface as a clean 500
        # {"error": ...} for that caller only — the batching loop and the
        # server keep answering.
        with PredictionServer(engine, port=0, max_wait_s=0.0).start() as server:
            with inject(FaultPlan().fail("serving:request", key=0)) as plan:
                status, payload = _call(f"{server.url}/predict", {"nodes": [0]})
                assert status == 500
                assert "injected fault" in payload["error"]
                status, payload = _call(f"{server.url}/predict", {"nodes": [0]})
                assert status == 200
                assert payload["labels"] == engine.predict_nodes([0]).argmax(axis=1).tolist()
            assert plan.fired("serving:request") == 1
            snapshot = _call(f"{server.url}/metrics")[1]
            assert snapshot["counters"]["errors_total"] == 1
            assert snapshot["counters"]["http_500"] == 1
            assert snapshot["counters"]["http_200"] >= 1


def _wedge():
    """(plan, entered, release): a serving:request fault whose action
    parks the worker until ``release`` is set — the deterministic stand-in
    for a slow or wedged backend."""
    entered, release = threading.Event(), threading.Event()

    def block(context):
        entered.set()
        release.wait(timeout=30)

    return FaultPlan().fail("serving:request", at=0, action=block), entered, release


class TestOverload:
    """Runs with the engine behind the server's micro-batcher;
    ``TestOverloadOverReplicas`` reruns every test on a 1-replica tier."""

    mode = "engine"

    def test_full_queue_answers_429_with_retry_after(self, serve, tiny_graph):
        # Regression: a saturated server used to queue without bound —
        # every request eventually answered, minutes late.  Now the
        # bounded admission queue sheds the excess immediately, whatever
        # the request kind: inductive requests once skipped admission.
        plan, entered, release = _wedge()
        with serve(max_batch_size=1, max_wait_s=0.0, max_queue=1) as server:
            statuses = []

            def post(nodes):
                statuses.append(_call(f"{server.url}/predict", {"nodes": nodes})[0])

            with inject(plan):
                wedged = threading.Thread(target=post, args=([0],))
                wedged.start()
                assert entered.wait(timeout=10), "worker never reached the wedge"
                queued = threading.Thread(target=post, args=([1],))
                queued.start()
                # The queued request is admitted once requests_total counts it.
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    counters = _call(f"{server.url}/metrics")[1]["counters"]
                    if counters.get("requests_total", 0) >= 2:
                        break
                    time.sleep(0.005)
                assert counters.get("requests_total", 0) >= 2

                for body in ({"nodes": [2]}, _inductive_body(tiny_graph)):
                    status, raw, headers = _post_raw(f"{server.url}/predict", body)
                    assert status == 429, body
                    assert int(headers["Retry-After"]) >= 1
                    assert "full" in json.loads(raw)["error"]

                release.set()
                wedged.join(timeout=30)
                queued.join(timeout=30)
            # The in-flight and queued requests were not casualties.
            assert statuses == [200, 200]
            counters = _call(f"{server.url}/metrics")[1]["counters"]
            assert counters["http_429"] == 2
            assert counters["shed_total"] == 2

    def test_wedged_worker_answers_503_not_a_hung_request(self, serve, engine):
        # Regression: a request whose worker never answered used to hang
        # its handler thread (and the client) forever.  The deadline now
        # frees both with a clean 503.
        plan, entered, release = _wedge()
        with serve(max_batch_size=1, max_wait_s=0.0, request_timeout_s=0.3) as server:
            try:
                with inject(plan):
                    started = time.monotonic()
                    status, payload = _call(f"{server.url}/predict", {"nodes": [0]})
                    elapsed = time.monotonic() - started
                    assert status == 503
                    assert payload == {"error": "timed out"}
                    assert elapsed < 10.0, f"503 took {elapsed:.1f}s — the deadline did not fire"
            finally:
                release.set()
            assert entered.is_set()
            # The handler thread survived; once the wedge clears the
            # server answers normally again.
            status, payload = _call(f"{server.url}/predict", {"nodes": [3]})
            assert status == 200
            assert payload["labels"] == engine.predict_nodes([3]).argmax(axis=1).tolist()
            counters = _call(f"{server.url}/metrics")[1]["counters"]
            assert counters["http_timeouts_total"] >= 1

    def test_wedged_inductive_request_answers_503(self, serve, engine, tiny_graph):
        # Inductive requests go through the same core as transductive
        # ones, so the same wedge at serving:request must trip their
        # deadline too.
        plan, entered, release = _wedge()
        body = _inductive_body(tiny_graph)
        with serve(max_batch_size=1, max_wait_s=0.0, request_timeout_s=0.3) as server:
            try:
                with inject(plan):
                    status, payload = _call(f"{server.url}/predict", body)
                    assert (status, payload) == (503, {"error": "timed out"})
            finally:
                release.set()
            assert entered.is_set()
            status, payload = _call(f"{server.url}/predict", body)
            assert status == 200
            expected = engine.predict_inductive(body["features"], body["neighbors"])
            assert payload["label"] == int(np.argmax(expected))
            counters = _call(f"{server.url}/metrics")[1]["counters"]
            assert counters["http_timeouts_total"] == 1


class TestOverloadOverReplicas(TestOverload):
    mode = "replica"


class TestClientDisconnect:
    def test_client_dropping_mid_response_is_counted_not_fatal(self, engine):
        # Regression: a loadgen client timing out and resetting its
        # connection used to leave a BrokenPipe/ConnectionReset traceback
        # in the handler thread.  The wedge holds the response until the
        # client is certainly gone, so the write deterministically hits a
        # dead socket.
        plan, entered, release = _wedge()
        with PredictionServer(
            engine, port=0, max_batch_size=1, max_wait_s=0.0
        ).start() as server:
            with inject(plan):
                client = socket.create_connection((server.host, server.port), timeout=10)
                # SO_LINGER(on, 0): close() sends RST, so the server's
                # later write fails instead of landing in a kernel buffer.
                client.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
                body = json.dumps({"nodes": [0]}).encode("utf-8")
                client.sendall(
                    b"POST /predict HTTP/1.1\r\n"
                    b"Host: test\r\n"
                    b"Content-Type: application/json\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode("utf-8")
                    + body
                )
                assert entered.wait(timeout=10), "request never reached the worker"
                client.close()  # RST while the response is still pending
                release.set()

            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                counters = _call(f"{server.url}/metrics")[1]["counters"]
                if counters.get("http_disconnects_total", 0) >= 1:
                    break
                time.sleep(0.02)
            assert counters.get("http_disconnects_total", 0) >= 1
            # The server shrugged it off and keeps serving.
            status, payload = _call(f"{server.url}/predict", {"nodes": [1]})
            assert status == 200
            assert payload["labels"] == engine.predict_nodes([1]).argmax(axis=1).tolist()


class TestKeepAlive:
    def test_one_connection_serves_many_requests(self, server):
        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            sockets = []
            for _ in range(3):
                connection.request(
                    "POST", "/predict", body=json.dumps({"nodes": [0, 1]}),
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                assert response.status == 200
                assert response.getheader("Connection") != "close"
                json.loads(response.read())
                sockets.append(connection.sock)
            # HTTP/1.1 keep-alive: the TCP connection was reused, not
            # re-established per request.
            assert all(sock is sockets[0] for sock in sockets)
        finally:
            connection.close()


class TestAdminReload:
    def test_reload_requires_replica_serving(self, server):
        status, payload = _call(f"{server.url}/admin/reload", {"artifact": "/tmp/x.rddart"})
        assert status == 400
        assert "replica" in payload["error"]


class TestEnsembleServer:
    def test_ensemble_artifact_serves_end_to_end(
        self, ensemble_artifact_path, ensemble, tiny_graph
    ):
        engine = PredictionEngine(ensemble_artifact_path, tiny_graph)
        with PredictionServer(engine, port=0, max_wait_s=0.001).start() as server:
            status, health = _call(f"{server.url}/healthz")
            assert status == 200 and health["model"] == "ensemble[3]"

            nodes = [0, 21, 42]
            status, payload = _call(f"{server.url}/predict", {"nodes": nodes})
            assert status == 200
            assert payload["labels"] == ensemble.embeddings()[nodes].argmax(axis=1).tolist()

            features = np.asarray(tiny_graph.features[2]).ravel()
            status, payload = _call(
                f"{server.url}/predict", {"features": features.tolist(), "neighbors": [2, 3]}
            )
            assert status == 200
            expected = engine.predict_inductive(features, [2, 3])
            assert payload["label"] == int(np.argmax(expected))


class TestModeParity:
    def test_engine_and_replica_servers_answer_bitwise_alike(
        self, engine, gcn_artifact_path, tiny_graph
    ):
        # One request stream — transductive, inductive and malformed —
        # through an engine-backed and a 1-replica server under the same
        # keyed serving:request fault plan: identical status codes and
        # byte-identical JSON bodies.  Requests go one at a time, so both
        # servers assign the same arrival keys.
        rng = np.random.default_rng(17)
        options = {"return_probs": True, "return_logits": True}
        stream = []
        for index in range(24):
            if index % 3 == 1:
                neighbors = rng.choice(engine.num_nodes, 2, replace=False).tolist()
                stream.append({**_inductive_body(tiny_graph, neighbors), **options})
            else:
                stream.append({"nodes": rng.integers(0, engine.num_nodes, size=3).tolist(), **options})
        stream[5:5] = [{"nodes": [10**6]}, {"nodes": [1.7]}, {"features": [1.0], "neighbors": [0]}]
        stream[14:14] = [{"nodes": "3"}, {"features": ["x"], "neighbors": [1]}, {"nodes": []}]

        def replay(server):
            plan = FaultPlan().fail("serving:request", key=4).fail("serving:request", key=11)
            with inject(plan):
                answers = [_post_raw(f"{server.url}/predict", body)[:2] for body in stream]
            assert plan.fired("serving:request") == 2
            return answers

        with PredictionServer(engine, port=0, max_wait_s=0.0).start() as server:
            single = replay(server)
        with _replica_server(gcn_artifact_path, tiny_graph, max_wait_s=0.0) as server:
            replicated = replay(server)

        statuses = [status for status, _ in single]
        assert statuses.count(500) == 2 and statuses.count(400) == 6
        assert statuses.count(200) == len(stream) - 8
        for (status, body), (other_status, other_body) in zip(single, replicated):
            assert (status, body) == (other_status, other_body)
