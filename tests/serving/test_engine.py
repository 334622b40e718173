"""Prediction engine: transductive tables, inductive queries, validation.

The engine's contract is determinism — the same query against the same
artifact returns bitwise-identical logits, cached or not — plus strict
request validation (ServingError) and wrong-graph refusal (ArtifactError).
"""

import numpy as np
import pytest

from repro.models.base import softmax_rows
from repro.serving.artifacts import ArtifactError, load_artifact
from repro.serving.engine import InductiveQuery, PredictionEngine, ServingError


class TestTransductive:
    def test_predictions_match_direct_forward(self, engine, gcn_model, tiny_graph):
        nodes = [0, 7, 31, 59]
        expected = gcn_model.predict_logits(tiny_graph)[nodes]
        assert np.array_equal(engine.predict_nodes(nodes), expected)

    def test_cache_on_and_off_are_bitwise_equal(self, gcn_artifact_path, tiny_graph):
        cached = PredictionEngine(gcn_artifact_path, tiny_graph, cache_logits=True)
        uncached = PredictionEngine(gcn_artifact_path, tiny_graph, cache_logits=False)
        nodes = np.arange(tiny_graph.num_nodes)
        first = cached.predict_nodes(nodes)
        assert cached._table is not None
        assert uncached._table is None
        assert np.array_equal(first, uncached.predict_nodes(nodes))
        assert np.array_equal(first, cached.predict_nodes(nodes))  # served from cache

    def test_predict_many_matches_per_request_calls(self, engine):
        requests = [[0, 1], [5], [59, 30, 2]]
        batched = engine.predict_many(requests)
        assert len(batched) == len(requests)
        for request, result in zip(requests, batched):
            assert np.array_equal(result, engine.predict_nodes(request))

    def test_predict_proba_rows_normalize(self, engine):
        probs = engine.predict_proba_nodes([0, 1, 2])
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert np.array_equal(probs, softmax_rows(engine.predict_nodes([0, 1, 2])))

    def test_introspection(self, engine, tiny_graph):
        assert engine.model_kind == "gcn"
        assert engine.num_nodes == tiny_graph.num_nodes
        assert engine.num_classes == tiny_graph.num_classes

    @pytest.mark.parametrize(
        "nodes",
        [[], [-1], [10**6], [[0, 1]], [2**63]],
        ids=["empty", "negative", "too-big", "2d", "int64-overflow"],
    )
    def test_bad_node_requests_rejected(self, engine, nodes):
        with pytest.raises(ServingError):
            engine.predict_nodes(nodes)

    def test_one_bad_request_fails_before_the_batch_runs(self, engine):
        with pytest.raises(ServingError):
            engine.predict_many([[0, 1], [10**6]])


class TestAnswerBatch:
    def test_mixed_batch_answers_in_order(self, engine, tiny_graph):
        features = np.asarray(tiny_graph.features[4]).ravel().tolist()
        payloads = [[0, 1], InductiveQuery(features, [4, 9]), [59], InductiveQuery(features, [2])]
        results = engine.answer_batch(payloads)
        assert len(results) == 4
        assert np.array_equal(results[0], engine.predict_nodes([0, 1]))
        assert np.array_equal(results[1], engine.predict_inductive(features, [4, 9]))
        assert np.array_equal(results[2], engine.predict_nodes([59]))
        assert np.array_equal(results[3], engine.predict_inductive(features, [2]))

    def test_node_lists_share_one_predict_many_call_unchanged(
        self, gcn_artifact_path, tiny_graph, monkeypatch
    ):
        # Per-batch tracing keys on the submitted list objects, so the
        # one predict_many call must receive them as they were submitted.
        engine = PredictionEngine(gcn_artifact_path, tiny_graph)
        calls = []
        original = engine.predict_many

        def spy(requests):
            calls.append(list(requests))
            return original(requests)

        monkeypatch.setattr(engine, "predict_many", spy)
        first, second = [3, 4], [5]
        features = np.asarray(tiny_graph.features[4]).ravel().tolist()
        engine.answer_batch([first, InductiveQuery(features, [1]), second])
        assert len(calls) == 1
        assert calls[0][0] is first and calls[0][1] is second
        engine.answer_batch([InductiveQuery(features, [1])])
        assert len(calls) == 1  # no node lists: no table call


class TestEnsembleServing:
    def test_predictions_are_weighted_member_average(
        self, ensemble_artifact_path, ensemble, tiny_graph
    ):
        engine = PredictionEngine(ensemble_artifact_path, tiny_graph)
        assert engine.model_kind == "ensemble[3]"
        nodes = [0, 13, 44]
        assert np.array_equal(engine.predict_nodes(nodes), ensemble.embeddings()[nodes])

    def test_inductive_uses_member_models(self, ensemble_artifact_path, tiny_graph):
        engine = PredictionEngine(ensemble_artifact_path, tiny_graph)
        features = np.asarray(tiny_graph.features[0]).ravel()
        logits = engine.predict_inductive(features, [0, 1, 5])
        assert logits.shape == (tiny_graph.num_classes,)
        assert np.all(np.isfinite(logits))

    def test_tables_only_ensemble_refuses_inductive(self, tiny_graph, ensemble, tmp_path):
        from repro.serving.artifacts import export_ensemble_artifact

        path = export_ensemble_artifact(tmp_path / "tables.rddart", ensemble, tiny_graph)
        engine = PredictionEngine(path, tiny_graph)
        features = np.asarray(tiny_graph.features[0]).ravel()
        with pytest.raises(ArtifactError, match="transductive prediction tables"):
            engine.predict_inductive(features, [0, 1])


class TestInductive:
    def test_repeat_query_is_bitwise_identical(self, engine, tiny_graph):
        features = np.asarray(tiny_graph.features[3]).ravel()
        first = engine.predict_inductive(features, [3, 8, 20])
        again = engine.predict_inductive(features, [3, 8, 20])
        assert np.array_equal(first, again)

    def test_determinism_survives_cache_disable(self, gcn_artifact_path, tiny_graph, engine):
        uncached = PredictionEngine(gcn_artifact_path, tiny_graph, inductive_cache_size=0)
        features = np.asarray(tiny_graph.features[3]).ravel()
        expected = engine.predict_inductive(features, [3, 8, 20])
        assert np.array_equal(uncached.predict_inductive(features, [3, 8, 20]), expected)
        assert np.array_equal(uncached.predict_inductive(features, [3, 8, 20]), expected)
        assert len(uncached._inductive_cache) == 0

    def test_neighbor_order_and_duplicates_do_not_matter(self, engine, tiny_graph):
        features = np.asarray(tiny_graph.features[9]).ravel()
        assert np.array_equal(
            engine.predict_inductive(features, [20, 8, 3, 8]),
            engine.predict_inductive(features, [3, 8, 20]),
        )

    def test_different_neighbors_change_the_prediction_context(self, engine, tiny_graph):
        # Two-block graph: attaching to block 0 vs block 1 must not share
        # a cache entry (keys differ); results are computed independently.
        features = np.ones(tiny_graph.num_features, dtype=float)
        a = engine.predict_inductive(features, [0, 1, 2])
        b = engine.predict_inductive(features, [57, 58, 59])
        assert a.shape == b.shape == (tiny_graph.num_classes,)
        assert len(engine._inductive_cache) >= 2

    def test_single_isolated_neighbor_is_served(self, engine, tiny_graph):
        features = np.asarray(tiny_graph.features[0]).ravel()
        logits = engine.predict_inductive(features, [0])
        assert logits.shape == (tiny_graph.num_classes,)

    def test_lru_stays_bounded(self, gcn_artifact_path, tiny_graph):
        engine = PredictionEngine(gcn_artifact_path, tiny_graph, inductive_cache_size=4)
        features = np.asarray(tiny_graph.features[0]).ravel()
        for node in range(10):
            engine.predict_inductive(features, [node])
        assert len(engine._inductive_cache) == 4

    def test_wrong_feature_shape_rejected(self, engine, tiny_graph):
        with pytest.raises(ServingError, match="features"):
            engine.predict_inductive(np.ones(tiny_graph.num_features + 1), [0, 1])

    def test_bad_neighbors_rejected(self, engine, tiny_graph):
        features = np.ones(tiny_graph.num_features, dtype=float)
        with pytest.raises(ServingError):
            engine.predict_inductive(features, [10**6])
        with pytest.raises(ServingError):
            engine.predict_inductive(features, [2**63])  # beyond int64


class TestConstruction:
    def test_wrong_graph_refused(self, gcn_artifact_path, small_citation):
        with pytest.raises(ArtifactError, match="does not match"):
            PredictionEngine(gcn_artifact_path, small_citation)

    def test_verify_graph_opt_out(self, gcn_artifact_path, tiny_graph):
        engine = PredictionEngine(gcn_artifact_path, tiny_graph, verify_graph=False)
        assert engine.predict_nodes([0]).shape == (1, tiny_graph.num_classes)

    def test_accepts_loaded_artifact_or_path(self, gcn_artifact_path, tiny_graph):
        from_path = PredictionEngine(gcn_artifact_path, tiny_graph)
        from_artifact = PredictionEngine(load_artifact(gcn_artifact_path), tiny_graph)
        nodes = [0, 30, 59]
        assert np.array_equal(from_path.predict_nodes(nodes), from_artifact.predict_nodes(nodes))

    def test_hops_inferred_from_spec(self, engine, gcn_artifact_path, tiny_graph):
        assert engine._num_hops == 2  # GCN default num_layers
        override = PredictionEngine(gcn_artifact_path, tiny_graph, num_hops=1)
        assert override._num_hops == 1
