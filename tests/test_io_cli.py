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
