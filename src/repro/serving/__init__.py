"""Inference serving: model artifacts, prediction engine, batching, HTTP.

The subsystem that takes a trained RDD student or teacher from training
to traffic::

    from repro.serving import (
        ModelSpec, export_model_artifact, load_artifact,
        PredictionEngine, MicroBatcher, PredictionServer,
    )

    export_model_artifact("model.rddart", model, ModelSpec("gcn"), graph)
    engine = PredictionEngine("model.rddart", graph)
    PredictionServer(engine, port=8080).serve_forever()

or, from the command line, ``repro export`` + ``repro serve``.  Both
serving modes run on one admission-and-batching core
(:class:`~repro.serving.batching.BatchingCore`: bounded queue, collect
window, fault point, close, metrics) with two executors — the
in-process :class:`MicroBatcher` over an engine, and the
:class:`ReplicaFrontend`, whose executors are IPC round trips to N
replica workers sharing one shared-memory logits table
(``repro serve --replicas N``)::

    frontend = ReplicaFrontend("model.rddart", graph, replicas=4)
    PredictionServer(frontend=frontend, port=8080).serve_forever()

Either way every ``/predict`` — a node-id list or an
:class:`InductiveQuery` — is admission-controlled and batched, and
recorded in one :class:`~repro.obs.metrics.MetricRegistry`.
"""

from repro.serving.artifacts import (
    ArtifactError,
    ModelArtifact,
    ModelSpec,
    export_ensemble_artifact,
    export_model_artifact,
    graph_fingerprint,
    load_artifact,
    model_kinds,
)
from repro.serving.batching import BatcherClosed, MicroBatcher, Overloaded
from repro.serving.cache import TieredCache
from repro.serving.engine import InductiveQuery, PredictionEngine, ServingError
from repro.serving.frontend import ReplicaFrontend
from repro.serving.refresh import BackgroundRefresher, RowRefresher
from repro.serving.replica import ReplicaError, SharedLogitsTable
from repro.serving.server import PredictionServer

__all__ = [
    "ArtifactError",
    "BackgroundRefresher",
    "BatcherClosed",
    "InductiveQuery",
    "RowRefresher",
    "MicroBatcher",
    "ModelArtifact",
    "ModelSpec",
    "Overloaded",
    "PredictionEngine",
    "PredictionServer",
    "ReplicaError",
    "ReplicaFrontend",
    "ServingError",
    "SharedLogitsTable",
    "TieredCache",
    "export_ensemble_artifact",
    "export_model_artifact",
    "graph_fingerprint",
    "load_artifact",
    "model_kinds",
]
