"""Tests for the experiment harnesses (tiny budgets — structure, not accuracy)."""

import dataclasses
import math

import numpy as np
import pytest

from repro.baselines.planetoid import _PlanetoidNet
from repro.evaluation import (
    ExperimentReport,
    HarnessConfig,
    ext_inductive,
    ext_noise,
    fig1,
    fig3,
    fig6,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
    table8,
    table9,
)
from repro.training.trainer import Trainer

TINY = HarnessConfig(scale=0.1, seeds=(0,), num_base_models=2, max_epochs=20, patience=10, hidden=8)

# Every training harness over the reduced grids of TestHarnessesProduceRows
# (fig6 with its deep panel on, so the zoo models train too).
TRAINING_HARNESSES = {
    "fig1": lambda config: fig1.run(config, label_rates=(2.0, 5.2)),
    "fig3": fig3.run,
    "fig6": lambda config: fig6.run(config, sweep=(3, 5)),
    "inductive": lambda config: ext_inductive.run(config, unseen_fraction=0.4),
    "noise": lambda config: ext_noise.run(config, noise_levels=(0.0, 0.5)),
    "table3": lambda config: table3.run(config, datasets=("cora",)),
    "table4": lambda config: table4.run(config, datasets=("cora",)),
    "table5": lambda config: table5.run(config, datasets=("cora",), depths=(2,)),
    "table6": table6.run,
    "table7": lambda config: table7.run(
        config, p_values=(40.0,), gamma_values=(0.0, 1.0), beta_values=(1.0,)
    ),
    "table8": lambda config: table8.run(config, datasets=("cora",)),
    "table9": lambda config: table9.run(config, target_margin=0.01),
}


class TestReportFormatting:
    def test_empty_report(self):
        report = ExperimentReport(experiment="empty")
        assert "no rows" in report.format()

    def test_format_alignment_and_floats(self):
        report = ExperimentReport(
            experiment="demo",
            rows=[{"name": "a", "value": 0.123456}, {"name": "bb", "value": 1.0}],
            notes="note line",
        )
        text = report.format()
        assert "demo" in text
        assert "0.123" in text
        assert "note line" in text

    def test_harness_config_helpers(self):
        config = HarnessConfig(num_base_models=4, max_epochs=33)
        rdd = config.rdd_config(p=55.0)
        assert rdd.num_base_models == 4
        assert rdd.max_epochs == 33
        assert rdd.p == 55.0
        trainer = config.trainer()
        assert trainer.max_epochs == 33


class TestHarnessesProduceRows:
    def test_fig1(self):
        report = fig1.run(TINY, label_rates=(2.0, 5.2))
        assert len(report.rows) == 2
        assert all(0.0 <= r["gcn_accuracy"] <= 1.0 for r in report.rows)

    def test_table3(self):
        report = table3.run(TINY, datasets=("cora",))
        methods = {r["method"] for r in report.rows}
        assert methods == {"Single GCN", "RDD(Single)", "Bagging", "BANs", "RDD(Ensemble)"}
        assert all(not math.isnan(r["paper_accuracy_pct"]) for r in report.rows)

    def test_table4(self):
        report = table4.run(TINY, datasets=("cora",))
        methods = {r["method"] for r in report.rows}
        assert "LP" in methods and "RDD(Single)" in methods
        assert not any("not rerun" in r["method"] for r in report.rows)
        assert all(math.isfinite(r["test_accuracy"]) for r in report.rows)

    def test_table5(self):
        report = table5.run(TINY, datasets=("cora",), depths=(2,))
        methods = {r["method"] for r in report.rows}
        assert methods == {"GCN", "JK-Net", "ResGCN", "DenseGCN", "RDD(Single)"}

    def test_table6(self):
        report = table6.run(TINY)
        rows = {r["method"]: r for r in report.rows}
        for row in rows.values():
            assert row["gain"] == pytest.approx(row["ensemble"] - row["average_base"])

    def test_fig6(self):
        report = fig6.run(TINY, sweep=(3, 5), include_deep=False)
        assert len(report.rows) >= 1
        assert "RDD(Ensemble)" in report.rows[0]

    def test_fig6_clips_sweep_to_available_labels(self):
        report = fig6.run(TINY, sweep=(3, 10_000), include_deep=False)
        assert all(r["labels_per_class"] < 10_000 for r in report.rows)

    def test_table7(self):
        report = table7.run(TINY, p_values=(40.0,), gamma_values=(0.0, 1.0), beta_values=(1.0,))
        assert len(report.rows) == 2
        assert {r["gamma"] for r in report.rows} == {0.0, 1.0}

    def test_table8(self):
        report = table8.run(TINY, datasets=("cora",))
        variants = {r["variant"] for r in report.rows}
        assert variants == {"No L2", "No Lreg", "WNR", "WER", "WKR", "WEW", "RDD"}
        rdd_row = next(r for r in report.rows if r["variant"] == "RDD")
        assert rdd_row["delta_vs_rdd"] == 0.0

    def test_table9(self):
        report = table9.run(TINY, target_margin=0.01)
        methods = {r["method"] for r in report.rows}
        assert methods == {"Bagging", "BANs", "RDD(Ensemble)"}
        for row in report.rows:
            assert row["avg_time_per_model_s"] > 0
            assert 1 <= row["models_to_target"] <= TINY.num_base_models
        rdd_row = next(r for r in report.rows if r["method"] == "RDD(Ensemble)")
        assert 0.0 < rdd_row["reliability_overhead"] < 1.0

    def test_table2(self):
        report = table2.run(TINY, datasets=("cora",))
        row = report.rows[0]
        assert row["classes"] == 7
        assert row["paper_nodes"] == 2708

    def test_fig3(self):
        report = fig3.run(TINY)
        selections = {r["selection"] for r in report.rows}
        assert len(selections) == 2
        for row in report.rows:
            assert 0.0 <= row["distilled_label_purity"] <= 1.0

    def test_ext_noise(self):
        report = ext_noise.run(TINY, noise_levels=(0.0, 0.5))
        assert len(report.rows) == 2
        assert {"Single GCN", "BANs", "RDD(Ensemble)"} <= set(report.rows[0])

    def test_ext_inductive(self):
        report = ext_inductive.run(TINY, unseen_fraction=0.4)
        methods = {r["method"] for r in report.rows}
        assert "GCN inductive" in methods and "RDD(Ensemble) inductive" in methods


class TestDtypeScope:
    @pytest.mark.parametrize("name", sorted(TRAINING_HARNESSES))
    def test_every_fit_computes_in_float32(self, name, monkeypatch):
        # Record the dtype of every fit's predictions (every trainer runs
        # Trainer._run) and of Planetoid's logits, which train outside it.
        seen = set()
        run_epochs, logits_for = Trainer._run, _PlanetoidNet.logits_for

        def recording_run(self, *args, **kwargs):
            result = run_epochs(self, *args, **kwargs)
            seen.add(("fit", result.predictions.dtype))
            return result

        def recording_logits(self, *args):
            logits = logits_for(self, *args)
            seen.add(("planetoid", logits.data.dtype))
            return logits

        monkeypatch.setattr(Trainer, "_run", recording_run)
        monkeypatch.setattr(_PlanetoidNet, "logits_for", recording_logits)
        TRAINING_HARNESSES[name](dataclasses.replace(TINY, dtype="float32"))
        assert ("fit", np.dtype(np.float32)) in seen
        assert {dtype for _, dtype in seen} == {np.dtype(np.float32)}
        if name == "table4":
            assert ("planetoid", np.dtype(np.float32)) in seen
