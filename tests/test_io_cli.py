"""Tests for model/report persistence and the CLI."""

import json

import numpy as np
import pytest

from repro.cli import EXPERIMENTS, build_parser, main
from repro.evaluation.common import ExperimentReport
from repro.io import load_report, save_report
from repro.models import GCN
from repro.serving import ModelSpec, export_model_artifact, load_artifact
from repro.training import make_rng


class TestCheckpoints:
    """Model weights persist as serving artifacts."""

    def test_roundtrip(self, tiny_graph, tmp_path):
        model = GCN(tiny_graph.num_features, tiny_graph.num_classes, make_rng(0), hidden=8)
        path = tmp_path / "ckpt" / "model.rddart"
        export_model_artifact(path, model, ModelSpec("gcn", {"hidden": 8}), tiny_graph)

        clone = load_artifact(path).build_model(tiny_graph)
        np.testing.assert_array_equal(
            model.predict_logits(tiny_graph), clone.predict_logits(tiny_graph)
        )

    def test_wrong_architecture_rejected(self, tiny_graph, tmp_path):
        model = GCN(tiny_graph.num_features, tiny_graph.num_classes, make_rng(0), hidden=8)
        path = tmp_path / "model.rddart"
        export_model_artifact(path, model, ModelSpec("gcn", {"hidden": 8}), tiny_graph)
        other = GCN(tiny_graph.num_features, tiny_graph.num_classes, make_rng(0), hidden=16)
        with pytest.raises(ValueError):
            other.load_state_dict(load_artifact(path).state_dict)


class TestReports:
    def test_roundtrip_with_nan(self, tmp_path):
        report = ExperimentReport(
            experiment="demo",
            rows=[{"method": "x", "value": 0.5, "paper": float("nan")}],
            notes="hello",
        )
        path = tmp_path / "r.json"
        save_report(report, path)
        loaded = load_report(path)
        assert loaded.experiment == "demo"
        assert loaded.notes == "hello"
        assert loaded.rows[0]["value"] == 0.5
        assert np.isnan(loaded.rows[0]["paper"])

    def test_numpy_scalars_serialized(self, tmp_path):
        report = ExperimentReport(
            experiment="np", rows=[{"a": np.int64(3), "b": np.float64(0.25)}]
        )
        path = tmp_path / "np.json"
        save_report(report, path)
        payload = json.loads(path.read_text())
        assert payload["rows"][0] == {"a": 3, "b": 0.25}


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_datasets_command(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "cora" in out and "nell" in out

    def test_parser_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "table99"])

    def test_run_writes_report(self, tmp_path, capsys):
        out_path = tmp_path / "fig1.json"
        code = main([
            "run", "fig1",
            "--scale", "0.1", "--seeds", "0", "--base-models", "2",
            "--max-epochs", "15", "--hidden", "8",
            "--out", str(out_path),
        ])
        assert code == 0
        assert out_path.exists()
        loaded = load_report(out_path)
        assert loaded.rows
        assert "Figure 1" in capsys.readouterr().out

    def test_library_error_is_one_line_and_exit_2(self, capsys):
        code = main([
            "run", "table6", "--scale", "0.05", "--seeds", "0",
            "--hidden", "0", "--max-epochs", "3",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: hidden widths must be >= 1")
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1

    def test_serve_without_dataset_spec_is_a_usage_error(self, tiny_graph, tmp_path, capsys):
        model = GCN(tiny_graph.num_features, tiny_graph.num_classes, make_rng(0), hidden=8)
        path = export_model_artifact(
            tmp_path / "model.rddart", model, ModelSpec("gcn", {"hidden": 8}), tiny_graph
        )
        assert main(["serve", "--artifact", str(path), "--port", "0"]) == 2
        assert capsys.readouterr().err.startswith("error: the artifact embeds no dataset spec")

    def test_exported_ensemble_answers_inductive_queries(self, tmp_path, capsys):
        """``repro export --ensemble`` stores its students: an inductive
        query answers with the α-weighted sum of the members' forwards."""
        import scipy.sparse as sp

        from repro.datasets import load_dataset
        from repro.serving import PredictionEngine

        path = tmp_path / "ensemble.rddart"
        assert main([
            "export", "--dataset", "cora", "--scale", "0.05", "--ensemble", "2",
            "--max-epochs", "10", "--patience", "10", "--out", str(path),
        ]) == 0
        artifact = load_artifact(path)
        graph = load_dataset("cora", scale=0.05, seed=0)
        members = artifact.member_models(graph)
        # The members are the trained students: their forwards reproduce
        # the per-student logits the teacher table was built from.
        for model, logits in zip(members, artifact.ensemble_state["logits"]):
            assert np.array_equal(model.predict_logits(graph), logits)

        features = graph.features[0]
        features = np.asarray(features.toarray() if sp.issparse(features) else features).ravel()
        neighbors = [1, 2, 3]
        answer = PredictionEngine(artifact, graph).predict_inductive(features, neighbors)
        rows = []
        for t, model in enumerate(members):
            member_path = export_model_artifact(
                tmp_path / f"member{t}.rddart", model, ModelSpec("gcn", {"hidden": 16}), graph
            )
            rows.append(PredictionEngine(member_path, graph).predict_inductive(features, neighbors))
        expected = np.einsum("t,tk->k", artifact.ensemble().weights, np.stack(rows))
        np.testing.assert_allclose(answer, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("mode", ["eager", "lazy"])
    def test_deltas_replays_a_log_with_parity(self, mode, tmp_path, capsys):
        """``repro deltas`` replays a removal, a re-add and a node append
        and ends bitwise equal to a fresh engine on the updated graph."""
        import scipy.sparse as sp

        from repro.datasets import load_dataset
        from repro.graph import DeltaLog, GraphDelta

        graph = load_dataset("cora", scale=0.05, seed=0)
        model = GCN(graph.num_features, graph.num_classes, make_rng(0), hidden=8)
        path = export_model_artifact(
            tmp_path / "model.rddart", model, ModelSpec("gcn", {"hidden": 8}), graph
        )
        upper = sp.triu(graph.adjacency, k=1).tocoo()
        edge = [int(upper.row[0]), int(upper.col[0])]
        log = DeltaLog([
            GraphDelta(removed_edges=[edge]),
            GraphDelta(added_edges=[edge]),
            GraphDelta(
                added_edges=[[edge[0], graph.num_nodes]],
                new_features=np.ones((1, graph.num_features)),
            ),
        ]).save(tmp_path / "deltas.jsonl")
        code = main([
            "deltas", "--artifact", str(path), "--log", str(log),
            "--dataset", "cora", "--scale", "0.05", "--seed", "0", "--mode", mode,
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "parity OK" in out
        stale = [int(line.split(" rows stale")[0].rsplit(" ", 1)[1])
                 for line in out.splitlines() if "rows stale" in line]
        assert len(stale) == 3 and all(count > 0 for count in stale)

