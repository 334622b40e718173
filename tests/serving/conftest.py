"""Shared serving fixtures: small artifacts over the tiny two-block graph.

Weights are untrained — serving correctness (round-trips, batching
parity, HTTP plumbing) is independent of accuracy, and eval-mode
forwards are deterministic either way.
"""

import time

import numpy as np
import pytest

from repro.core.ensemble import EnsembleModel
from repro.models.base import softmax_rows
from repro.models.gcn import GCN
from repro.serving.artifacts import (
    ModelSpec,
    export_ensemble_artifact,
    export_model_artifact,
)
from repro.serving.engine import PredictionEngine

GCN_OPTIONS = {"hidden": 8}
MEMBER_WEIGHTS = (0.5, 0.3, 0.2)


def wait_for_counters(metrics, timeout_s: float = 10.0, **minimums) -> None:
    """Block until each named counter in ``metrics`` reaches its minimum.

    The HTTP handler counts ``http_<status>`` only after the response has
    been flushed, so a client can hold its response (and open a new
    connection for ``/metrics``) before the handler thread counts it.
    Waiting in process on the registry closes that window.
    """
    deadline = time.monotonic() + timeout_s
    while any(metrics.counter(name) < minimum for name, minimum in minimums.items()):
        assert time.monotonic() < deadline, (
            f"counters never reached {minimums}: {metrics.snapshot()['counters']}"
        )
        time.sleep(0.005)


def build_gcn(graph, seed: int = 3):
    model = GCN(
        graph.num_features, graph.num_classes, np.random.default_rng(seed), **GCN_OPTIONS
    )
    model.eval()
    return model


@pytest.fixture(scope="session")
def gcn_spec():
    return ModelSpec("gcn", dict(GCN_OPTIONS))


@pytest.fixture(scope="session")
def gcn_model(tiny_graph):
    return build_gcn(tiny_graph)


@pytest.fixture(scope="session")
def gcn_artifact_path(tmp_path_factory, tiny_graph, gcn_model, gcn_spec):
    path = tmp_path_factory.mktemp("artifacts") / "gcn.rddart"
    return export_model_artifact(path, gcn_model, gcn_spec, tiny_graph)


@pytest.fixture(scope="session")
def engine(gcn_artifact_path, tiny_graph):
    return PredictionEngine(gcn_artifact_path, tiny_graph)


@pytest.fixture(scope="session")
def ensemble_members(tiny_graph):
    """(model, spec, logits) triples standing in for trained base models."""
    members = []
    for seed in (10, 11, 12):
        model = build_gcn(tiny_graph, seed=seed)
        members.append((model, ModelSpec("gcn", dict(GCN_OPTIONS)), model.predict_logits(tiny_graph)))
    return members


@pytest.fixture(scope="session")
def ensemble(ensemble_members):
    teacher = EnsembleModel()
    for (_, _, logits), weight in zip(ensemble_members, MEMBER_WEIGHTS):
        teacher.add(softmax_rows(logits), logits, weight)
    return teacher


@pytest.fixture(scope="session")
def ensemble_artifact_path(tmp_path_factory, tiny_graph, ensemble, ensemble_members):
    path = tmp_path_factory.mktemp("artifacts") / "ensemble.rddart"
    members = [(spec, model.state_dict()) for model, spec, _ in ensemble_members]
    return export_ensemble_artifact(path, ensemble, tiny_graph, members=members)
