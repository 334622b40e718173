"""The HTTP serving workload: real requests to ``python -m repro serve``.

Input preparation (not timed) trains and exports an RDD ensemble
artifact with its member models, so inductive queries work.  The
server runs with CLI defaults: one engine, batching on, max batch 32,
max wait 2 ms.

Load comes from this process over two keep-alive HTTP/1.1 connections,
one generator thread each:

* a fixed-rate open-loop phase (16 req/s in total, 125 ms apart on a
  connection) gives the latency percentiles, timed from each request's
  due instant.  A request sent within ~40 ms of the previous reply on
  its connection stalls for ~40 ms (the keep-alive cliff below).  At
  80 ms apart (25 req/s) one late reply starts a chain: each stalled
  reply leaves the next request less than 40 ms, so it stalls too.  At
  125 ms apart the connection recovers after one stall;
* a closed-loop phase, both connections sending back to back, gives
  the throughput at that concurrency.

The mix is three transductive ``{"nodes": 8 ids}`` requests to one
inductive ``{"features", "neighbors": 3 ids}`` request drawn Zipf-wise
from a pool larger than the engine's inductive cache, so the tail
carries cache misses.  The interleave is fixed (a Bernoulli mix moves
the share of misses, and with it p95, from seed to seed).
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from benchlib import layers, openloop, stats, system
from benchlib.hostspeed import HostSpeed
from benchlib.spans import read_jsonl

PARAMS = dict(
    dataset="cora", scale=1.0, num_base_models=3, max_epochs=200,
    rate=16.0, connections=2, fixed_share=0.9,
    nodes_per_request=8, inductive_every=4, pool=4096, zipf_s=1.1, neighbors=3,
    setup_repeats=3, exact_checks=20,
)
SMOKE = dict(scale=0.1, num_base_models=2, max_epochs=10, pool=64, setup_repeats=1, exact_checks=5)

START_TIMEOUT_S = 60.0
HOST_SAMPLES_PER_SETUP = 10


def params(smoke: bool) -> dict:
    config = dict(PARAMS)
    if smoke:
        config.update(SMOKE)
    return config


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def export_artifact(config: dict, seed: int, path: Path) -> float:
    """Train RDD (T students) and export the teacher with its members.

    Returns the ensemble test accuracy.  The members are captured
    through ``RDDTrainer``'s model factory; after each fit they hold
    their best-checkpoint weights, whose logits the teacher averages.
    """
    from repro.core.ensemble import EnsembleModel
    from repro.core.rdd import RDDTrainer
    from repro.datasets import load_dataset
    from repro.evaluation.common import PAPER_GAMMA_INITIAL, HarnessConfig
    from repro.models.base import softmax_rows
    from repro.models.gcn import GCN
    from repro.serving.artifacts import ModelSpec, export_ensemble_artifact

    graph = load_dataset(config["dataset"], seed=seed, scale=config["scale"])
    harness = HarnessConfig(
        scale=config["scale"], num_base_models=config["num_base_models"],
        max_epochs=config["max_epochs"], patience=config["max_epochs"],
    )
    rdd_config = harness.rdd_config(gamma_initial=PAPER_GAMMA_INITIAL[config["dataset"]])
    members = []

    def factory(graph, rng):
        model = GCN(graph.num_features, graph.num_classes, rng,
                    hidden=rdd_config.hidden, dropout=rdd_config.dropout)
        members.append(model)
        return model

    result = RDDTrainer(rdd_config, model_factory=factory).fit(graph, seed=seed)
    teacher = EnsembleModel()
    for base, weight in zip(result.base_results, result.ensemble_weights):
        teacher.add(softmax_rows(base.predictions), base.predictions, float(weight))
    spec = ModelSpec("gcn", {"hidden": rdd_config.hidden, "dropout": rdd_config.dropout})
    export_ensemble_artifact(
        path, teacher, graph,
        members=[(spec, model.state_dict()) for model in members],
        dataset={"name": config["dataset"], "kwargs": {"seed": seed, "scale": config["scale"]},
                 "dtype": None},
    )
    return result.ensemble_test_accuracy


class RequestMix:
    """Seeded requests: transductive node lists, and inductive queries
    drawn Zipf-wise from a pool of (feature row, neighbors) entries.

    Request bodies are encoded when first drawn; the fixed-rate phase
    draws all of its requests before it starts, so no JSON is encoded
    on the generator's schedule.
    """

    def __init__(self, graph, config: dict, seed: int):
        n = graph.num_nodes
        rng = np.random.default_rng([seed, 1])
        self.features = graph.features
        self.pool = [
            (int(rng.integers(n)), sorted(int(v) for v in rng.choice(n, config["neighbors"], replace=False)))
            for _ in range(config["pool"])
        ]
        ranks = np.arange(1, config["pool"] + 1, dtype=np.float64)
        weights = ranks ** -config["zipf_s"]
        self.zipf = weights / weights.sum()
        self.num_nodes = n
        self.config = config
        self.seed = seed
        self._bodies: Dict[int, bytes] = {}

    def entry(self, key: int) -> dict:
        """The inductive query ``{"features", "neighbors"}`` of pool entry ``key``."""
        node, neighbors = self.pool[key]
        row = self.features[node]
        row = row.toarray()[0] if hasattr(row, "toarray") else np.asarray(row)
        return {"features": row.tolist(), "neighbors": neighbors}

    def body(self, key: int) -> bytes:
        if key not in self._bodies:
            self._bodies[key] = json.dumps(self.entry(key)).encode()
        return self._bodies[key]

    def stream(self, connection: int):
        """Endless (kind, key, body) requests for one connection; every
        ``inductive_every``-th is inductive, so each run has the same mix."""
        rng = np.random.default_rng([self.seed, 2, connection])
        per = self.config["nodes_per_request"]
        every = self.config["inductive_every"]
        for position in itertools.count():
            if position % every == every - 1:
                key = int(rng.choice(len(self.pool), p=self.zipf))
                yield "inductive", key, self.body(key)
            else:
                nodes = rng.integers(0, self.num_nodes, size=per).tolist()
                yield "nodes", nodes, json.dumps({"nodes": nodes}).encode()


# ----------------------------------------------------------------------
# Server process and client
# ----------------------------------------------------------------------
class Client:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, host: str, port: int):
        self.conn = http.client.HTTPConnection(host, port, timeout=30)

    def request(self, method: str, path: str, body: Optional[bytes] = None,
                rid: Optional[str] = None):
        headers = {"Content-Type": "application/json"}
        if rid is not None:
            headers["X-Bench-Id"] = rid
        try:
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()  # reconnects on the next request
            raise

    def close(self) -> None:
        self.conn.close()


class Server:
    """A ``repro serve`` child process on a free port."""

    def __init__(self, command: List[str], root: Path, log_path: Path):
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONUNBUFFERED="1")
        self.log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE, stderr=self.log
        )
        try:
            self.host, self.port = self._await_address()
        except BaseException:
            self.stop()
            raise

    def _await_address(self):
        deadline = time.monotonic() + START_TIMEOUT_S
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.proc.poll() is not None:
                raise RuntimeError("server did not report its address")
            ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise RuntimeError("server exited before reporting its address")
                line += chunk
        match = re.search(rb"on http://([\d.]+):(\d+)", line)
        if match is None:
            raise RuntimeError(f"unexpected server banner {line!r}")
        return match.group(1).decode(), int(match.group(2))

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        return self.proc.returncode


def warm_up(server: Server, mix: RequestMix) -> None:
    """First transductive answer plus one inductive query (which builds
    the member models)."""
    client = Client(server.host, server.port)
    try:
        for body in (json.dumps({"nodes": [0]}).encode(), mix.body(len(mix.pool) - 1)):
            status, data = client.request("POST", "/predict", body)
            if status != 200:
                raise RuntimeError(f"warm-up request failed: {status} {data[:200]!r}")
    finally:
        client.close()


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, smoke: bool, trace: bool,
        root: Path, out_dir: Path) -> dict:
    from repro.datasets import load_dataset
    from repro.serving.artifacts import load_artifact
    from repro.serving.engine import PredictionEngine

    config = params(smoke)
    inputs = out_dir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    # One file per workload, overwritten by every run.
    artifact_path = inputs / f"{workload}{'-smoke' if smoke else ''}.rddart"
    trained_accuracy = export_artifact(config, seed, artifact_path)
    graph = load_dataset(config["dataset"], seed=seed, scale=config["scale"])
    mix = RequestMix(graph, config, seed)
    table_labels = load_artifact(artifact_path).ensemble().embeddings().argmax(axis=1)

    serve_args = ["serve", "--artifact", str(artifact_path), "--port", "0"]
    summary_path = out_dir / f"{workload}-server-summary.json"
    spans_path = out_dir / f"trace-{workload}.jsonl"
    if trace:
        command = [sys.executable, str(root / "bench" / "serve_launcher.py"),
                   "--summary", str(summary_path), "--spans", str(spans_path), "--", *serve_args]
    else:
        command = [sys.executable, "-m", "repro", *serve_args]
    log_path = out_dir / f"{workload}-server.log"

    setups: List[float] = []
    repeats = 1 if trace else config["setup_repeats"]
    host = HostSpeed()
    server = None
    for attempt in range(repeats):
        started = time.perf_counter()
        server = Server(command, root, log_path)
        try:
            warm_up(server, mix)
        except BaseException:
            server.stop()
            raise
        setups.append(time.perf_counter() - started)
        for _ in range(HOST_SAMPLES_PER_SETUP):
            host.sample()
        if attempt < repeats - 1:
            server.stop()

    responses: Dict[int, tuple] = {}
    kinds: Dict[int, tuple] = {}
    try:
        fixed_s = seconds * config["fixed_share"]
        clients = [Client(server.host, server.port) for _ in range(config["connections"])]
        streams = [mix.stream(c) for c in range(config["connections"])]

        def make_send(conn: int, prefix: str, drawn: Optional[dict] = None):
            client, stream = clients[conn], streams[conn]

            def send(outcome: openloop.Outcome) -> None:
                kind, key, body = drawn[outcome.index] if drawn else next(stream)
                kinds[outcome.index] = (kind, key)
                status, data = client.request("POST", "/predict", body, rid=f"{prefix}{outcome.index}")
                outcome.done = time.perf_counter()
                outcome.ok = status == 200
                responses[outcome.index] = (status, data)
            return send

        phase_start = time.perf_counter() + 0.05
        dues = openloop.fixed_schedule(config["rate"], fixed_s, phase_start)
        fixed_end = phase_start + fixed_s
        per_conn = [
            [(i, due) for i, due in enumerate(dues) if i % config["connections"] == c]
            for c in range(config["connections"])
        ]
        drawn = {i: next(streams[i % config["connections"]]) for i in range(len(dues))}
        fixed = openloop.run_threads(
            [lambda c=c: openloop.run_open_loop(per_conn[c], make_send(c, "f", drawn), fixed_end)
             for c in range(config["connections"])],
            timeout=fixed_s + 120,
        )
        fixed_summary = openloop.summarize(fixed, fixed_end)

        closed_s = seconds - fixed_s
        closed_start = time.perf_counter()
        closed_deadline = closed_start + closed_s
        offset = len(dues)
        closed = openloop.run_threads(
            [lambda c=c: openloop.run_closed_loop(
                make_send(c, "c"), closed_deadline, first_index=offset + c * 10**7)
             for c in range(config["connections"])],
            timeout=closed_s + 120,
        )
        throughput = openloop.closed_throughput(closed, closed_start)

        status, metrics_body = clients[0].request("GET", "/metrics")
        server_counters = json.loads(metrics_body)["counters"] if status == 200 else {}
        peak_rss = system.peak_rss_mb(server.proc.pid)

        # Exact inductive answers for the first pool entries, after the window.
        exact = {}
        for key in range(config["exact_checks"]):
            body = dict(mix.entry(key), return_logits=True)
            status, data = clients[0].request("POST", "/predict", json.dumps(body).encode())
            exact[key] = (status, data)
        for client in clients:
            client.close()
    finally:
        server.stop()

    # --- correctness ------------------------------------------------
    engine = PredictionEngine(load_artifact(artifact_path), graph)
    wrong_labels = 0
    served_inductive: Dict[int, set] = {}
    outcomes = fixed + closed
    for outcome in outcomes:
        if not outcome.ok:
            continue
        kind, key = kinds[outcome.index]
        payload = json.loads(responses[outcome.index][1])
        if kind == "nodes":
            wrong_labels += int(payload["labels"] != table_labels[key].tolist())
        else:
            served_inductive.setdefault(key, set()).add(payload["label"])
    inductive_mismatch = 0
    for key, labels in served_inductive.items():
        expected = int(np.argmax(engine.predict_inductive(**_engine_args(mix.entry(key)))))
        inductive_mismatch += int(labels != {expected})
    exact_mismatch = 0
    for key, (status, data) in exact.items():
        expected = engine.predict_inductive(**_engine_args(mix.entry(key)))
        served = np.asarray(json.loads(data)["logits"]) if status == 200 else None
        exact_mismatch += int(served is None or not np.array_equal(served, expected))

    closed_failed = sum(not o.ok for o in closed)
    valid, lateness = openloop.lateness_valid(fixed_summary.lateness_ms)
    checks = [
        {"name": "transductive labels equal the ensemble table argmax",
         "ok": wrong_labels == 0, "detail": f"{wrong_labels} wrong responses"},
        {"name": "served inductive labels equal an in-process engine",
         "ok": inductive_mismatch == 0,
         "detail": f"{inductive_mismatch} of {len(served_inductive)} pool entries differ"},
        {"name": "inductive logits equal an in-process engine, bit for bit",
         "ok": exact_mismatch == 0 and len(exact) == config["exact_checks"],
         "detail": f"{exact_mismatch} of {len(exact)} pool entries differ"},
        {"name": "every request succeeded",
         "ok": fixed_summary.failed == 0 and closed_failed == 0,
         "detail": f"fixed: {fixed_summary.failed} failed ({fixed_summary.unsent} unsent, "
                   f"backlog {fixed_summary.backlog_ms:.1f} ms); closed: {closed_failed} failed"},
    ]
    validity = [{"name": "generator kept its schedule",
                 "ok": valid, "detail": lateness}]

    latencies = fixed_summary.latencies_ms
    latency, latency_spread = stats.latency_metrics(latencies)
    measured = {
        "setup_s": stats.median(setups),
        "peak_rss_mb": peak_rss,
        "throughput": throughput,
        **latency,
    }
    # Only set-up is host-normalized (by kernel samples taken in this
    # process right after each server start): latency at a fixed rate
    # and the closed-loop rate are set mostly by waits (the batcher's
    # window, TCP timers).
    end_to_end = host.normalize(measured, times=("setup_s",))
    result = {
        "params": dict(config, fixed_s=fixed_s, closed_s=closed_s),
        "end_to_end": end_to_end,
        "checks": checks,
        "validity": validity,
        "attempted": fixed_summary.attempted + len(closed),
        "failed": fixed_summary.failed + closed_failed,
        "spread": {
            "setup_s": stats.spread(setups),
            **latency_spread,
        },
        "spread_unit": "setup per server start; latency per chunk of >= 200 requests",
        "detail": {
            "measured": measured,
            "host": host.summary(),
            "trained_test_accuracy": trained_accuracy,
            "fixed": fixed_summary.as_dict(),
            "closed": {"sent": len(closed), "completed": sum(o.ok for o in closed),
                       "throughput": throughput,
                       "p50_ms": stats.p50([o.latency * 1e3 for o in closed if o.ok])},
            "distinct_inductive_entries": len(served_inductive),
            "server_counters": server_counters,
            "latency_histogram_ms": stats.spread(latencies),
        },
    }
    if trace:
        summary = json.loads(summary_path.read_text())
        spans = read_jsonl(spans_path)
        send_ms = {f"{'f' if o.index < offset else 'c'}{o.index}": (o.done - o.sent) * 1e3
                   for o in outcomes if o.ok}
        result["per_layer"] = layers.serving_metrics(
            spans, summary["engine_counters"], summary["server_counters"],
            fixed_summary.lateness_ms, client_send_ms=send_ms,
        )
        result["trace_file"] = spans_path.name
    return result


def _engine_args(entry: dict) -> dict:
    return {"features": entry["features"], "neighbor_ids": entry["neighbors"]}
