"""Versioned model artifacts: the train→serve handoff format.

Training produces a model; serving needs everything required to answer
queries without re-deriving it: the weights, the recipe to rebuild the
module, the identity of the graph the weights were trained against, and
the propagation constants the forward pass depends on.  An **artifact**
bundles all of that in one file:

* the constructor spec (:class:`ModelSpec`) naming a model kind
  (:func:`model_kinds`) plus its hyperparameter options, so the exact module can be
  rebuilt on load;
* the ``Module.state_dict()`` (or, for RDD teachers, the full
  ``EnsembleModel.state()`` with per-member α-weights, plus each
  member's spec and weights for inductive queries);
* a structural fingerprint of the training graph, so an engine refuses
  to serve the weights against the wrong data;
* the cached GCN-normalized adjacency ``Â``, so the serving process
  skips the normalization pass entirely;
* the compute dtype, preserved bitwise — a ``float32`` artifact loads
  back as ``float32`` parameters.

On disk an artifact *is* a checkpoint: it reuses
:func:`repro.training.checkpoint.write_checkpoint`'s magic/format/
SHA-256 framing and temp+fsync+rename atomicity, with its own payload
schema versioned by :data:`ARTIFACT_VERSION`.  Like checkpoints, the
payload is pickled — load artifacts only from trusted paths.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.core.ensemble import EnsembleModel
from repro.errors import ReproError
from repro.graph.graph import Graph, graph_fingerprint
from repro.nn.module import Module
from repro.tensor.tensor import default_dtype
from repro.training.checkpoint import read_checkpoint, write_checkpoint

PathLike = Union[str, Path]

ARTIFACT_KIND = "rdd-model-artifact"
ARTIFACT_VERSION = 1


class ArtifactError(ReproError):
    """An artifact file is malformed, or its contents don't fit the request."""


# ----------------------------------------------------------------------
# Model kinds: spec name -> constructor
# ----------------------------------------------------------------------
def _builtin_kinds() -> Dict[str, Callable]:
    # Imported lazily so the artifact module doesn't pull the whole model
    # zoo at import time.
    from repro.models.gcn import GCN
    from repro.models.mlp import MLP
    from repro.models.sgc import SGC

    return {"gcn": GCN, "mlp": MLP, "sgc": SGC}


def model_kinds() -> List[str]:
    """Names accepted as :attr:`ModelSpec.kind`."""
    return sorted(_builtin_kinds())


def _resolve_kind(name: str) -> Callable:
    try:
        return _builtin_kinds()[name.lower()]
    except KeyError:
        raise ArtifactError(
            f"unknown model kind {name!r}; registered: {', '.join(model_kinds())}"
        ) from None


@dataclasses.dataclass(frozen=True)
class ModelSpec:
    """How to rebuild a served module: a model kind + constructor options.

    ``options`` are the keyword arguments beyond the data-derived ones —
    the constructor is always called as
    ``factory(num_features, num_classes, rng, **options)``.
    """

    kind: str
    options: dict = dataclasses.field(default_factory=dict)

    def build(self, graph: Graph, dtype=None) -> Module:
        """Construct the module (fresh weights) for ``graph``.

        The weight values are placeholders — callers load a state dict on
        top — but the construction dtype matters: parameters are created
        at ``dtype`` so a stored state dict loads back bitwise.
        """
        factory = _resolve_kind(self.kind)
        with default_dtype(dtype):
            return factory(
                graph.num_features, graph.num_classes, np.random.default_rng(0), **self.options
            )


# ----------------------------------------------------------------------
# Sparse-matrix (de)hydration
# ----------------------------------------------------------------------
def _csr_state(matrix: sp.csr_matrix) -> dict:
    matrix = sp.csr_matrix(matrix)
    return {
        "data": matrix.data,
        "indices": matrix.indices,
        "indptr": matrix.indptr,
        "shape": tuple(matrix.shape),
    }


def _csr_from_state(state: dict) -> sp.csr_matrix:
    return sp.csr_matrix(
        (state["data"], state["indices"], state["indptr"]), shape=state["shape"]
    )


def _state_dtype(arrays: Sequence[np.ndarray]) -> str:
    dtypes = {np.asarray(a).dtype for a in arrays}
    floats = {d for d in dtypes if d.kind == "f"}
    if len(floats) > 1:
        raise ArtifactError(f"mixed float dtypes in artifact state: {sorted(map(str, floats))}")
    return str(next(iter(floats))) if floats else "float64"


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------
def export_model_artifact(
    path: PathLike,
    model: Module,
    spec: ModelSpec,
    graph: Graph,
    dataset: Optional[dict] = None,
    metadata: Optional[dict] = None,
) -> Path:
    """Write a single-module serving artifact for ``model`` trained on ``graph``.

    ``dataset``, when given, records how to rebuild the serving graph
    (e.g. ``{"name": "cora", "kwargs": {"seed": 0, "scale": 1.0}}``) so
    ``repro serve`` can run from the artifact alone.
    """
    _resolve_kind(spec.kind)  # fail at export time, not at load time
    state = model.state_dict()
    payload = {
        "kind": ARTIFACT_KIND,
        "artifact_version": ARTIFACT_VERSION,
        "spec": {"kind": spec.kind, "options": dict(spec.options)},
        "state_dict": state,
        "dtype": _state_dtype(list(state.values())),
        "graph": graph_fingerprint(graph),
        "normalized_adjacency": _csr_state(graph.normalized_adjacency()),
        "dataset": dataset,
        "metadata": metadata or {},
        "ensemble": None,
        "members": None,
    }
    path = Path(path)
    write_checkpoint(path, payload)
    return path


def export_ensemble_artifact(
    path: PathLike,
    ensemble: EnsembleModel,
    graph: Graph,
    members: Sequence[Tuple[ModelSpec, Dict[str, np.ndarray]]],
    dataset: Optional[dict] = None,
    metadata: Optional[dict] = None,
) -> Path:
    """Write an RDD-teacher serving artifact.

    The :meth:`EnsembleModel.state` tables (per-member probs/logits and
    α-weights) fully determine transductive predictions.  ``members`` —
    ``(spec, state_dict)`` pairs, one per base model in order — serve
    inductive queries, which re-run the member forward passes on a query
    subgraph.
    """
    state = ensemble.state()
    if len(members) != len(state["weights"]):
        raise ArtifactError(
            f"{len(members)} member specs for an ensemble of {len(state['weights'])}"
        )
    payload = {
        "kind": ARTIFACT_KIND,
        "artifact_version": ARTIFACT_VERSION,
        "spec": None,
        "state_dict": None,
        "dtype": _state_dtype(list(state["probs"]) + list(state["logits"])),
        "graph": graph_fingerprint(graph),
        "normalized_adjacency": _csr_state(graph.normalized_adjacency()),
        "dataset": dataset,
        "metadata": metadata or {},
        "ensemble": state,
        "members": [
            {"spec": {"kind": spec.kind, "options": dict(spec.options)}, "state_dict": sd}
            for spec, sd in members
        ],
    }
    for spec, _ in members:
        _resolve_kind(spec.kind)
    path = Path(path)
    write_checkpoint(path, payload)
    return path


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------
class ModelArtifact:
    """A loaded serving artifact; see :func:`load_artifact`."""

    def __init__(self, payload: dict, path: Optional[Path] = None):
        self.path = path
        self.spec = (
            None
            if payload["spec"] is None
            else ModelSpec(payload["spec"]["kind"], dict(payload["spec"]["options"]))
        )
        self.state_dict: Optional[Dict[str, np.ndarray]] = payload["state_dict"]
        self.ensemble_state: Optional[dict] = payload["ensemble"]
        self.members: Optional[List[dict]] = payload["members"]
        self.dtype = np.dtype(payload["dtype"])
        self.graph_fingerprint: dict = payload["graph"]
        self._normalized_state: dict = payload["normalized_adjacency"]
        self.dataset: Optional[dict] = payload["dataset"]
        self.metadata: dict = payload["metadata"]

    # -- identity ------------------------------------------------------
    @property
    def is_ensemble(self) -> bool:
        return self.ensemble_state is not None

    @property
    def model_kind(self) -> str:
        if self.is_ensemble:
            return f"ensemble[{len(self.ensemble_state['weights'])}]"
        return self.spec.kind

    def check_graph(self, graph: Graph) -> None:
        """Raise :class:`ArtifactError` unless ``graph`` structurally
        matches the graph this artifact was exported from."""
        expected = self.graph_fingerprint
        actual = graph_fingerprint(graph)
        mismatched = sorted(
            key for key in expected if key != "name" and expected[key] != actual[key]
        )
        if mismatched:
            detail = ", ".join(
                f"{key}: artifact={expected[key]!r} graph={actual[key]!r}" for key in mismatched
            )
            raise ArtifactError(
                f"graph does not match the artifact's training graph ({detail})"
            )

    # -- hydration -----------------------------------------------------
    def normalized_adjacency(self, dtype=None) -> sp.csr_matrix:
        """The exported ``Â`` cache, optionally cast to ``dtype``."""
        matrix = _csr_from_state(self._normalized_state)
        if dtype is not None and matrix.dtype != np.dtype(dtype):
            matrix = matrix.astype(dtype)
        return matrix

    def build_model(self, graph: Graph) -> Module:
        """Rebuild the single served module, in eval mode, weights loaded
        bitwise (the module is constructed at the artifact's dtype)."""
        if self.is_ensemble:
            raise ArtifactError("this is an ensemble artifact; use ensemble()/member_models()")
        model = self.spec.build(graph, dtype=self.dtype)
        model.load_state_dict(self.state_dict)
        model.eval()
        return model

    def ensemble(self) -> EnsembleModel:
        """Rebuild the RDD teacher (transductive prediction tables)."""
        if not self.is_ensemble:
            raise ArtifactError("this is a single-model artifact; use build_model()")
        return EnsembleModel.from_state(self.ensemble_state)

    def member_models(self, graph: Graph) -> List[Module]:
        """Rebuild every ensemble member module (for inductive queries)."""
        if not self.is_ensemble:
            raise ArtifactError("this is a single-model artifact; use build_model()")
        models = []
        for member in self.members:
            spec = ModelSpec(member["spec"]["kind"], dict(member["spec"]["options"]))
            model = spec.build(graph, dtype=self.dtype)
            model.load_state_dict(member["state_dict"])
            model.eval()
            models.append(model)
        return models


def load_artifact(path: PathLike) -> ModelArtifact:
    """Read and validate a serving artifact written by the exporters.

    Checksum/framing violations surface as
    :class:`repro.training.checkpoint.CheckpointError`; a valid checkpoint
    that is not a serving artifact (or is from a newer artifact schema)
    raises :class:`ArtifactError`.
    """
    path = Path(path)
    payload = read_checkpoint(path)
    if not isinstance(payload, dict) or payload.get("kind") != ARTIFACT_KIND:
        raise ArtifactError(f"{path} is a checkpoint but not a model artifact")
    if payload.get("artifact_version") != ARTIFACT_VERSION:
        raise ArtifactError(
            f"{path} has artifact version {payload.get('artifact_version')!r}, "
            f"expected {ARTIFACT_VERSION}"
        )
    return ModelArtifact(payload, path=path)
