#!/usr/bin/env python
"""CI smoke test: export a tiny artifact, serve it, hit the endpoints.

Covers the full train→export→serve→query path in a few seconds:

1. train a tiny GCN on a scaled-down Cora stand-in,
2. export a serving artifact,
3. start a :class:`PredictionServer` on a free port — single-process by
   default, or a replica tier with ``--replicas N``,
4. assert 200s (and sane payloads) from ``/healthz``, ``/predict``
   (transductive + inductive), and ``/metrics``.

The single-process run then exports an RDD teacher through
``repro export --ensemble 2``, serves it, and asserts that an inductive
``/predict`` answers 200 with the label an in-process engine gives.

With ``--replicas`` the smoke additionally exports a *second* artifact
and performs one rolling swap via ``POST /admin/reload`` **while a
background client hammers /predict** — asserting zero downtime: every
in-flight request during the swap answers 200, and predictions after
the swap match the new artifact.

Exit status 0 on success; any assertion or HTTP failure is fatal.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import threading
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import numpy as np  # noqa: E402

from repro.cli import main as cli_main  # noqa: E402
from repro.datasets import cora_like  # noqa: E402
from repro.models.gcn import GCN  # noqa: E402
from repro.serving import (  # noqa: E402
    ModelSpec,
    PredictionEngine,
    PredictionServer,
    ReplicaFrontend,
    export_model_artifact,
)
from repro.training.trainer import Trainer  # noqa: E402


def _get(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.loads(response.read())


def _post(url: str, body: dict):
    request = urllib.request.Request(
        url, data=json.dumps(body).encode(), headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def _dense_row(graph, node: int) -> np.ndarray:
    features = graph.features
    return np.asarray(features[node].todense()).ravel() if hasattr(features, "todense") else features[node]


def _smoke_endpoints(server: PredictionServer, engine: PredictionEngine, graph) -> None:
    status, health = _get(f"{server.url}/healthz")
    assert status == 200 and health["status"] == "ok", health
    print(f"healthz ok: {health}")

    status, predict = _post(f"{server.url}/predict", {"nodes": [0, 1, 2]})
    assert status == 200 and len(predict["labels"]) == 3, predict
    expected = engine.predict_nodes([0, 1, 2]).argmax(axis=1).tolist()
    assert predict["labels"] == expected, (predict["labels"], expected)
    print(f"predict ok: {predict}")

    features = _dense_row(graph, 0)
    status, inductive = _post(
        f"{server.url}/predict",
        {"features": features.tolist(), "neighbors": [1, 2]},
    )
    assert status == 200 and "label" in inductive, inductive
    print(f"inductive ok: {inductive}")

    status, metrics = _get(f"{server.url}/metrics")
    assert status == 200, metrics
    assert metrics["counters"].get("requests_total", 0) >= 2, metrics
    assert metrics["histograms"].get("latency_ms", {}).get("count", 0) >= 1, metrics
    print(f"metrics ok: {metrics['counters']}")


def _smoke_ensemble(tmp: Path, graph) -> None:
    """Serve a teacher exported by ``repro export --ensemble 2``: an
    inductive /predict must answer 200 with the in-process engine's label."""
    path = Path(tmp) / "smoke-ensemble.rddart"
    code = cli_main([
        "export", "--dataset", "cora", "--scale", "0.1", "--seed", "0", "--ensemble", "2",
        "--max-epochs", "20", "--patience", "10", "--out", str(path),
    ])
    assert code == 0, code
    features, neighbors = _dense_row(graph, 0), [1, 2]
    with PredictionServer(PredictionEngine(path, graph), port=0).start() as server:
        status, inductive = _post(
            f"{server.url}/predict", {"features": features.tolist(), "neighbors": neighbors}
        )
    expected = int(PredictionEngine(path, graph).predict_inductive(features, neighbors).argmax())
    assert status == 200 and inductive["label"] == expected, (inductive, expected)
    print(f"ensemble inductive ok: {inductive}")


def _rolling_swap_under_load(server: PredictionServer, second_path: Path, graph) -> None:
    """One /admin/reload while a background client hammers /predict.

    Every response during the swap must be 200 — the rolling reload
    swaps replicas one at a time, so the tier never stops serving.
    """
    stop = threading.Event()
    statuses: list = []
    errors: list = []

    def hammer() -> None:
        rng = np.random.default_rng(42)
        while not stop.is_set():
            nodes = rng.integers(0, graph.num_nodes, size=4).tolist()
            try:
                status, _ = _post(f"{server.url}/predict", {"nodes": nodes})
                statuses.append(status)
            except Exception as error:  # noqa: BLE001 - recorded and asserted below
                errors.append(error)
                return

    clients = [threading.Thread(target=hammer) for _ in range(4)]
    for client in clients:
        client.start()
    try:
        status, reloaded = _post(f"{server.url}/admin/reload", {"artifact": str(second_path)})
        assert status == 200 and reloaded["artifact_version"] == 1, reloaded
    finally:
        stop.set()
        for client in clients:
            client.join(timeout=30)
    assert not errors, f"request failed during rolling swap: {errors[0]}"
    assert statuses and all(s == 200 for s in statuses), (
        f"non-200 during rolling swap: {sorted(set(statuses))} over {len(statuses)} requests"
    )
    print(f"rolling swap ok: {len(statuses)} requests served during reload, all 200")

    # Post-swap predictions must come from the *new* artifact.
    engine_v2 = PredictionEngine(second_path, graph)
    status, predict = _post(f"{server.url}/predict", {"nodes": [0, 1, 2]})
    expected = engine_v2.predict_nodes([0, 1, 2]).argmax(axis=1).tolist()
    assert status == 200 and predict["labels"] == expected, (predict, expected)
    status, health = _get(f"{server.url}/healthz")
    assert health["artifact_version"] == 1, health
    print(f"post-swap predictions match v2: {predict['labels']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--replicas", type=int, default=0, metavar="N",
        help="smoke the replica tier with N worker processes "
             "(includes a rolling artifact swap under load; 0 = single process)",
    )
    args = parser.parse_args(argv)

    graph = cora_like(seed=0, scale=0.1)
    model = GCN(graph.num_features, graph.num_classes, np.random.default_rng(0))
    Trainer(max_epochs=20, patience=10).fit(model, graph)

    with tempfile.TemporaryDirectory() as tmp:
        dataset = {"name": "cora", "kwargs": {"seed": 0, "scale": 0.1}, "dtype": None}
        path = export_model_artifact(
            Path(tmp) / "smoke.rddart", model, ModelSpec("gcn"), graph, dataset=dataset
        )
        engine = PredictionEngine(path, graph)
        if args.replicas > 0:
            # A second (differently-initialized, briefly trained) artifact
            # to swap in under load.
            model_v2 = GCN(graph.num_features, graph.num_classes, np.random.default_rng(1))
            Trainer(max_epochs=5, patience=5).fit(model_v2, graph)
            second_path = export_model_artifact(
                Path(tmp) / "smoke-v2.rddart", model_v2, ModelSpec("gcn"), graph,
                dataset=dataset,
            )
            frontend = ReplicaFrontend(path, graph, replicas=args.replicas)
            with PredictionServer(frontend=frontend, port=0).start() as server:
                _smoke_endpoints(server, engine, graph)
                status, health = _get(f"{server.url}/healthz")
                assert health["replicas"] == args.replicas, health
                _rolling_swap_under_load(server, second_path, graph)
        else:
            with PredictionServer(engine, port=0).start() as server:
                _smoke_endpoints(server, engine, graph)
            _smoke_ensemble(Path(tmp), graph)
    print("serve smoke: PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
