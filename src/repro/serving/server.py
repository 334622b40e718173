"""Stdlib HTTP front end over the serving core.

A :class:`PredictionServer` puts a JSON API on one serving core
(:class:`BatchingCore`): a :class:`MicroBatcher` over an in-process
:class:`~repro.serving.engine.PredictionEngine`, or a
:class:`~repro.serving.frontend.ReplicaFrontend` over worker processes.
Every ``/predict`` — transductive and inductive, in both modes — is
validated here once and then goes through the core as
``submit(payload).result(timeout)``, so admission control, deadlines,
fault injection and metrics behave the same either way.  The API is
JSON over ``http.server.ThreadingHTTPServer`` with keep-alive
(HTTP/1.1; every response carries ``Content-Length``) and these routes:

``POST /predict``
    ``{"nodes": [0, 5, 9]}`` → transductive logits/labels for known
    nodes, or ``{"features": [...], "neighbors": [3, 4]}`` → an
    inductive prediction for one unseen node.  Node ids are JSON
    integers (one, or a list); features are a list of JSON numbers.
    ``"return_probs": true`` adds softmax probabilities.
``POST /admin/reload``
    ``{"artifact": "/path/to/v2.rddart"}`` → rolling zero-downtime
    artifact swap (replica serving only).
``GET /healthz``
    Liveness + model identity (used by load balancers and CI smoke).
``GET /metrics``
    The metrics snapshot: request/error/batch/shed counters plus
    latency and batch-size percentile summaries.

Failure modes are typed, bounded, and observable:

* client errors (bad JSON, malformed bodies, unknown ids, wrong shapes)
  → 400, counted in ``http_client_errors_total``;
* **overload** — the bounded admission queue is full — → 429 with a
  ``Retry-After`` header (and the ``http_429`` counter), so saturation
  sheds excess load instead of queueing without bound;
* a request exceeding ``request_timeout_s`` (e.g. a wedged worker) →
  503 ``{"error": "timed out"}`` and the handler thread is released —
  no request can hang a thread forever;
* a client that disconnects mid-write is counted
  (``http_disconnects_total``) and the thread stays clean, never a
  traceback;
* other server-side failures — including injected ``serving:request``
  faults — → 500, and never take the serving core down with them.
"""

from __future__ import annotations

import json
import math
import threading
from concurrent.futures import TimeoutError as FutureTimeoutError
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlparse

import numpy as np

from repro.errors import ReproError
from repro.models.base import softmax_rows
from repro.serving.batching import BatchingCore, MicroBatcher, Overloaded
from repro.serving.engine import InductiveQuery, PredictionEngine, ServingError
from repro.serving.frontend import ReplicaFrontend
from repro.serving.metrics import ServingMetrics, prometheus_text

# JSON numbers as ``json.loads`` returns them (``bool`` is its own type).
_NUMBER_TYPES = frozenset({int, float})


def _node_ids(value: object, name: str) -> list:
    """A JSON integer or list of integers as an id list (the list object
    itself, unchanged); :class:`ServingError` otherwise."""
    if type(value) is int:
        return [value]
    if type(value) is list and set(map(type, value)) <= {int}:
        return value
    raise ServingError(f'"{name}" must be a JSON integer or a list of JSON integers')


def _parse_predict(body: object) -> object:
    """The serving payload of a ``/predict`` body: a node-id list or an
    :class:`InductiveQuery`.  Malformed bodies raise :class:`ServingError`
    (HTTP 400); range and shape checks stay with the engine."""
    if not isinstance(body, dict):
        raise ServingError("request body must be a JSON object")
    if "nodes" in body:
        return _node_ids(body["nodes"], "nodes")
    if "features" in body:
        features = body["features"]
        if type(features) is not list or not set(map(type, features)) <= _NUMBER_TYPES:
            raise ServingError('"features" must be a list of JSON numbers')
        if "neighbors" not in body:
            raise ServingError('inductive requests need "neighbors" (known node ids)')
        return InductiveQuery(features, _node_ids(body["neighbors"], "neighbors"))
    raise ServingError('request must contain "nodes" or "features"')


class PredictionServer:
    """An HTTP prediction service around one engine or replica tier.

    Parameters
    ----------
    engine:
        A loaded :class:`PredictionEngine` for single-process serving,
        answered by a :class:`MicroBatcher` the server builds.  Exactly
        one of ``engine`` and ``frontend`` must be given.
    host / port:
        Bind address; ``port=0`` picks a free port (see :attr:`port`).
    frontend:
        A :class:`ReplicaFrontend` for multi-process serving.  The
        server adopts its metrics registry (one ``/metrics`` view) and
        closes it on :meth:`close`.
    max_batch_size / max_wait_s / max_queue:
        The micro-batcher's queue knobs (engine mode; a frontend
        carries its own).
    request_timeout_s:
        Deadline for any single prediction; expiry returns 503 and
        frees the handler thread.
    metrics:
        Metrics sink; defaults to the frontend's registry (frontend
        mode) or a fresh one.
    """

    def __init__(
        self,
        engine: Optional[PredictionEngine] = None,
        host: str = "127.0.0.1",
        port: int = 8080,
        *,
        frontend: Optional[ReplicaFrontend] = None,
        max_batch_size: int = 32,
        max_wait_s: float = 0.002,
        max_queue: int = 1024,
        request_timeout_s: float = 30.0,
        metrics: Optional[ServingMetrics] = None,
    ):
        if (engine is None) == (frontend is None):
            raise ReproError("pass exactly one of engine= and frontend=")
        if request_timeout_s <= 0:
            raise ReproError(f"request_timeout_s must be > 0, got {request_timeout_s}")
        self.engine = engine
        self.frontend = frontend
        self.request_timeout_s = float(request_timeout_s)
        if metrics is None:
            metrics = frontend.metrics if frontend is not None else ServingMetrics()
        self.metrics = metrics
        # The serving core every /predict goes through.
        self.batcher: BatchingCore = frontend if frontend is not None else MicroBatcher(
            engine.answer_batch,
            max_batch_size=max_batch_size,
            max_wait_s=max_wait_s,
            max_queue=max_queue,
            metrics=metrics,
        )
        handler = _make_handler(self)
        self.httpd = _Server((host, port), handler)
        self.httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    def start(self) -> "PredictionServer":
        """Serve in a background thread (tests, embedded use)."""
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="prediction-server", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        try:
            self.httpd.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            self.close()

    def close(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self.batcher.close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "PredictionServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # Request handling (called from handler threads)
    # ------------------------------------------------------------------
    def handle_predict(self, body: object) -> dict:
        payload = _parse_predict(body)
        inductive = isinstance(payload, InductiveQuery)
        if inductive:
            self.metrics.inc("inductive_requests_total")
        logits = self.batcher.submit(payload).result(timeout=self.request_timeout_s)
        if inductive:
            response = {"label": int(np.argmax(logits))}
            if body.get("return_probs"):
                response["probs"] = softmax_rows(logits[None, :])[0].tolist()
        else:
            response = {"nodes": payload, "labels": logits.argmax(axis=1).tolist()}
            if body.get("return_probs"):
                response["probs"] = softmax_rows(logits).tolist()
        if body.get("return_logits"):
            response["logits"] = logits.tolist()
        return response

    def handle_reload(self, body: dict) -> dict:
        """``POST /admin/reload``: zero-downtime artifact swap."""
        if not isinstance(body, dict):
            raise ServingError("request body must be a JSON object")
        if self.frontend is None:
            raise ServingError("rolling reload requires replica serving (--replicas)")
        path = body.get("artifact")
        if not path:
            raise ServingError('reload needs "artifact" (path to the new .rddart)')
        version = self.frontend.reload(path)
        return {"status": "reloaded", "artifact_version": version}

    def health(self) -> dict:
        backend = self.frontend if self.frontend is not None else self.engine
        info = {"status": "ok", "model": backend.model_kind, "nodes": backend.num_nodes}
        if self.frontend is not None:
            info["replicas"] = self.frontend.replicas
            info["artifact_version"] = self.frontend.artifact_version
        return info


class _Server(ThreadingHTTPServer):
    # TCPServer's default listen backlog is 5 — at open-loop arrival
    # rates (hundreds of fresh connections/s) the accept queue overflows
    # and the kernel refuses connections before admission control ever
    # sees them.  Overload policy belongs to the bounded request queue
    # (429), not to the TCP layer.
    request_queue_size = 128


def _make_handler(server: PredictionServer):
    """A handler class bound to one :class:`PredictionServer`."""

    class Handler(BaseHTTPRequestHandler):
        # Keep-alive: one TCP connection serves many requests.  Safe
        # because every response sets Content-Length explicitly.
        protocol_version = "HTTP/1.1"

        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            pass  # request logging would swamp test output; metrics cover it

        # -- client-disconnect containment -----------------------------
        def handle_one_request(self) -> None:
            # Loadgen clients time out and close mid-response; the write
            # (or the keep-alive flush) then raises.  That is the
            # client's failure, not ours: count it, drop the connection,
            # keep the handler thread clean.
            try:
                super().handle_one_request()
            except (BrokenPipeError, ConnectionResetError):
                server.metrics.inc("http_disconnects_total")
                self.close_connection = True

        # -- helpers ---------------------------------------------------
        def _send_blob(
            self, status: int, blob: bytes, content_type: str, headers: Optional[dict]
        ) -> None:
            try:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(blob)))
                for name, value in (headers or {}).items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(blob)
            except (BrokenPipeError, ConnectionResetError):
                server.metrics.inc("http_disconnects_total")
                self.close_connection = True
                return
            server.metrics.inc(f"http_{status}")

        def _send_json(
            self, status: int, payload: dict, headers: Optional[dict] = None
        ) -> None:
            blob = json.dumps(payload).encode("utf-8")
            self._send_blob(status, blob, "application/json", headers)

        def _send_text(
            self, status: int, text: str, content_type: str
        ) -> None:
            self._send_blob(status, text.encode("utf-8"), content_type, None)

        # -- routes ----------------------------------------------------
        def do_GET(self) -> None:
            parsed = urlparse(self.path)
            if parsed.path == "/healthz":
                self._send_json(200, server.health())
            elif parsed.path == "/metrics":
                # JSON snapshot by default (the original contract);
                # ?format=prometheus serves the text exposition format
                # via the shared repro.obs.metrics exporter.
                formats = parse_qs(parsed.query).get("format", [])
                if formats and formats[-1] == "prometheus":
                    self._send_text(
                        200,
                        prometheus_text(server.metrics.snapshot()),
                        "text/plain; version=0.0.4; charset=utf-8",
                    )
                else:
                    self._send_json(200, server.metrics.snapshot())
            else:
                self._send_json(404, {"error": f"unknown path {self.path}"})

        def do_POST(self) -> None:
            if self.path == "/predict":
                route = server.handle_predict
            elif self.path == "/admin/reload":
                route = server.handle_reload
            else:
                self._send_json(404, {"error": f"unknown path {self.path}"})
                return
            try:
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length) or b"")
            except (ValueError, json.JSONDecodeError) as error:
                server.metrics.inc("http_client_errors_total")
                self._send_json(400, {"error": f"invalid JSON body: {error}"})
                return
            try:
                response = route(body)
            except Overloaded as error:
                # Admission control: the queue is full.  Shed fast with
                # a retry hint — graceful-degradation beats collapse.
                self._send_json(
                    429,
                    {"error": str(error)},
                    headers={"Retry-After": str(max(1, math.ceil(error.retry_after_s)))},
                )
            except (TimeoutError, FutureTimeoutError):
                # The deadline passed (wedged worker, overlong queue
                # wait).  Future.result raises concurrent.futures'
                # TimeoutError, which is the builtin only from Python
                # 3.11 on.  The handler thread is released; the stale
                # result, if it ever lands, is discarded with its future.
                server.metrics.inc("http_timeouts_total")
                self._send_json(503, {"error": "timed out"})
            except ServingError as error:
                server.metrics.inc("http_client_errors_total")
                self._send_json(400, {"error": str(error)})
            except ReproError as error:
                # Includes injected faults surfacing through a request's
                # future: the request fails cleanly, the server lives on.
                self._send_json(500, {"error": str(error)})
            except Exception as error:  # pragma: no cover - defensive
                self._send_json(500, {"error": f"{type(error).__name__}: {error}"})
            else:
                self._send_json(200, response)

    return Handler
