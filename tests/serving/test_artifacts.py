"""Artifact format: export → load round-trips, dtype preservation, rejection.

The satellite contract under test: ``Module.state_dict()`` and
``EnsembleModel.state()`` round-trip through the artifact format
bitwise — including ``float32`` artifacts loading back as ``float32``
parameters — and the loader refuses wrong graphs, corrupted files, and
foreign checkpoints.
"""

import numpy as np
import pytest

from repro.core.ensemble import EnsembleModel
from repro.serving.artifacts import (
    ARTIFACT_KIND,
    ArtifactError,
    ModelSpec,
    export_ensemble_artifact,
    export_model_artifact,
    graph_fingerprint,
    load_artifact,
    model_kinds,
)
from repro.tensor.tensor import default_dtype
from repro.testing.faults import flip_byte, truncate_file
from repro.training.checkpoint import CheckpointError, write_checkpoint

from tests.serving.conftest import GCN_OPTIONS, MEMBER_WEIGHTS, build_gcn


class TestSingleModelRoundTrip:
    def test_state_dict_round_trips_bitwise(self, gcn_artifact_path, gcn_model):
        artifact = load_artifact(gcn_artifact_path)
        original = gcn_model.state_dict()
        assert set(artifact.state_dict) == set(original)
        for name, value in original.items():
            stored = artifact.state_dict[name]
            assert stored.dtype == value.dtype
            assert np.array_equal(stored, value)

    def test_rebuilt_model_predicts_bitwise(self, gcn_artifact_path, gcn_model, tiny_graph):
        artifact = load_artifact(gcn_artifact_path)
        rebuilt = artifact.build_model(tiny_graph)
        assert np.array_equal(
            rebuilt.predict_logits(tiny_graph), gcn_model.predict_logits(tiny_graph)
        )

    def test_spec_and_identity_round_trip(self, gcn_artifact_path, tiny_graph):
        artifact = load_artifact(gcn_artifact_path)
        assert artifact.spec == ModelSpec("gcn", dict(GCN_OPTIONS))
        assert not artifact.is_ensemble
        assert artifact.model_kind == "gcn"
        assert artifact.graph_fingerprint == graph_fingerprint(tiny_graph)

    def test_normalized_adjacency_cache_matches_graph(self, gcn_artifact_path, tiny_graph):
        artifact = load_artifact(gcn_artifact_path)
        shipped = artifact.normalized_adjacency()
        computed = tiny_graph.normalized_adjacency()
        assert (shipped != computed).nnz == 0

    def test_float32_artifact_loads_back_float32_bitwise(self, tiny_graph, tmp_path):
        with default_dtype(np.float32):
            model = build_gcn(tiny_graph)
        state = model.state_dict()
        assert all(v.dtype == np.float32 for v in state.values())

        path = export_model_artifact(
            tmp_path / "f32.rddart", model, ModelSpec("gcn", dict(GCN_OPTIONS)), tiny_graph
        )
        artifact = load_artifact(path)
        assert artifact.dtype == np.float32
        for name, value in state.items():
            assert artifact.state_dict[name].dtype == np.float32
            assert np.array_equal(artifact.state_dict[name], value)

        rebuilt = artifact.build_model(tiny_graph)
        for name, value in rebuilt.state_dict().items():
            assert value.dtype == np.float32
            assert np.array_equal(value, state[name])
        logits = rebuilt.predict_logits(tiny_graph.astype(np.float32))
        assert logits.dtype == np.float32

    def test_dataset_and_metadata_round_trip(self, tiny_graph, gcn_model, gcn_spec, tmp_path):
        dataset = {"name": "cora", "kwargs": {"seed": 0, "scale": 0.1}}
        path = export_model_artifact(
            tmp_path / "meta.rddart",
            gcn_model,
            gcn_spec,
            tiny_graph,
            dataset=dataset,
            metadata={"val_accuracy": 0.5},
        )
        artifact = load_artifact(path)
        assert artifact.dataset == dataset
        assert artifact.metadata == {"val_accuracy": 0.5}


class TestEnsembleRoundTrip:
    def test_ensemble_state_round_trips_bitwise(self, ensemble_artifact_path, ensemble):
        artifact = load_artifact(ensemble_artifact_path)
        assert artifact.is_ensemble
        assert artifact.model_kind == f"ensemble[{len(MEMBER_WEIGHTS)}]"
        rebuilt = artifact.ensemble()
        assert isinstance(rebuilt, EnsembleModel)
        assert np.array_equal(rebuilt.weights, ensemble.weights)
        assert np.array_equal(rebuilt.embeddings(), ensemble.embeddings())
        assert np.array_equal(rebuilt.probs(), ensemble.probs())

    def test_member_models_rebuild_bitwise(
        self, ensemble_artifact_path, ensemble_members, tiny_graph
    ):
        artifact = load_artifact(ensemble_artifact_path)
        rebuilt = artifact.member_models(tiny_graph)
        assert len(rebuilt) == len(ensemble_members)
        for model, (_, _, logits) in zip(rebuilt, ensemble_members):
            assert np.array_equal(model.predict_logits(tiny_graph), logits)

    def test_member_count_mismatch_rejected_at_export(
        self, tiny_graph, ensemble, ensemble_members, tmp_path
    ):
        members = [(spec, model.state_dict()) for model, spec, _ in ensemble_members[:1]]
        with pytest.raises(ArtifactError, match="member specs"):
            export_ensemble_artifact(tmp_path / "x.rddart", ensemble, tiny_graph, members=members)

    def test_kind_accessors_enforce_artifact_flavor(
        self, gcn_artifact_path, ensemble_artifact_path, tiny_graph
    ):
        single = load_artifact(gcn_artifact_path)
        teacher = load_artifact(ensemble_artifact_path)
        with pytest.raises(ArtifactError, match="ensemble artifact"):
            teacher.build_model(tiny_graph)
        with pytest.raises(ArtifactError, match="single-model artifact"):
            single.ensemble()
        with pytest.raises(ArtifactError, match="single-model artifact"):
            single.member_models(tiny_graph)


class TestRejection:
    def test_wrong_graph_rejected(self, gcn_artifact_path, small_citation):
        artifact = load_artifact(gcn_artifact_path)
        with pytest.raises(ArtifactError, match="does not match"):
            artifact.check_graph(small_citation)

    def test_graph_name_is_not_identity(self, gcn_artifact_path, tiny_graph):
        from repro.graph.graph import Graph

        renamed = Graph(
            tiny_graph.adjacency,
            tiny_graph.features,
            tiny_graph.labels,
            tiny_graph.train_index,
            tiny_graph.val_index,
            tiny_graph.test_index,
            name="renamed",
        )
        load_artifact(gcn_artifact_path).check_graph(renamed)  # must not raise

    def test_unknown_kind_rejected_at_export(self, tiny_graph, gcn_model, tmp_path):
        with pytest.raises(ArtifactError, match="unknown model kind"):
            export_model_artifact(
                tmp_path / "x.rddart", gcn_model, ModelSpec("no-such-model"), tiny_graph
            )

    def test_flipped_byte_rejected(self, gcn_artifact_path, tmp_path):
        path = tmp_path / "rot.rddart"
        path.write_bytes(gcn_artifact_path.read_bytes())
        flip_byte(path)
        with pytest.raises(CheckpointError):
            load_artifact(path)

    def test_truncated_file_rejected(self, gcn_artifact_path, tmp_path):
        path = tmp_path / "cut.rddart"
        path.write_bytes(gcn_artifact_path.read_bytes())
        truncate_file(path)
        with pytest.raises(CheckpointError):
            load_artifact(path)

    def test_foreign_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "foreign.ckpt"
        write_checkpoint(path, {"kind": "not-an-artifact"})
        with pytest.raises(ArtifactError, match="not a model artifact"):
            load_artifact(path)

    def test_future_artifact_version_rejected(self, gcn_artifact_path, tmp_path):
        from repro.training.checkpoint import read_checkpoint

        payload = read_checkpoint(gcn_artifact_path)
        assert payload["kind"] == ARTIFACT_KIND
        payload["artifact_version"] = 99
        path = tmp_path / "future.rddart"
        write_checkpoint(path, payload)
        with pytest.raises(ArtifactError, match="artifact version"):
            load_artifact(path)


class TestRegistry:
    def test_builtin_kinds_present(self):
        assert {"gcn", "mlp", "sgc"} <= set(model_kinds())
