"""Sweep harness, defense-margin report, CLI, and config wiring."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.errors import ConfigError
from repro.evaluation.common import ExperimentReport, HarnessConfig
from repro.io import load_report, save_report
from repro.robustness.report import defense_margins, render_summary
from repro.robustness.sweep import METHODS, run_sweep

TINY = dict(scale=0.1, seeds=(0,), num_base_models=2, max_epochs=6, patience=4)


@pytest.fixture(scope="module")
def tiny_report() -> ExperimentReport:
    return run_sweep(
        HarnessConfig(**TINY),
        attacks=("random_flip",),
        budgets=(0.2,),
        methods=("gcn", "rdd"),
    )


class TestRunSweep:
    def test_row_grid(self, tiny_report):
        # (clean + 1 attack setting) × 2 methods.
        assert len(tiny_report.rows) == 4
        assert [r["attack"] for r in tiny_report.rows] == ["none", "none", "random_flip", "random_flip"]
        for row in tiny_report.rows:
            assert 0.0 <= row["accuracy"] <= 1.0
            assert 0.0 <= row["homophily"] <= 1.0

    def test_rdd_rows_carry_reliability_counts(self, tiny_report):
        for row in tiny_report.rows:
            if row["method"] == "rdd":
                assert row["reliable_nodes"] != ""
                assert row["reliable_edges"] != ""
            if row["method"] == "gcn":
                assert row["reliable_nodes"] == ""

    def test_attack_reduces_homophily(self, tiny_report):
        clean = next(r for r in tiny_report.rows if r["attack"] == "none")
        poisoned = next(r for r in tiny_report.rows if r["attack"] != "none")
        assert poisoned["homophily"] < clean["homophily"]

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError, match="unknown methods"):
            run_sweep(HarnessConfig(**TINY), methods=("gcn", "nope"))

    def test_zero_budget_rejected(self):
        with pytest.raises(ConfigError, match="budgets"):
            run_sweep(HarnessConfig(**TINY), budgets=(0.0, 0.1))

    def test_method_registry_complete(self):
        assert set(METHODS) == {"gcn", "bagging", "kd", "rdd", "soft_median", "trimmed_mean"}

    def test_report_json_round_trip(self, tiny_report, tmp_path):
        path = tmp_path / "robustness.json"
        save_report(tiny_report, path)
        loaded = load_report(path)
        assert loaded.rows == tiny_report.rows


class TestDefenseMargins:
    ROWS = [
        {"attack": "none", "budget": 0.0, "method": "gcn", "accuracy": 0.80},
        {"attack": "none", "budget": 0.0, "method": "rdd", "accuracy": 0.82},
        {"attack": "dice", "budget": 0.2, "method": "gcn", "accuracy": 0.50},
        {"attack": "dice", "budget": 0.2, "method": "kd", "accuracy": 0.55},
        {"attack": "dice", "budget": 0.2, "method": "rdd", "accuracy": 0.65},
    ]

    def test_margins_computed_per_setting(self):
        margins = defense_margins(self.ROWS)
        by_attack = {m["attack"]: m for m in margins}
        assert by_attack["dice"]["margin_vs_gcn"] == pytest.approx(0.15)
        assert by_attack["dice"]["margin_vs_kd"] == pytest.approx(0.10)
        assert by_attack["none"]["margin_vs_gcn"] == pytest.approx(0.02)
        assert "margin_vs_kd" not in by_attack["none"]

    def test_missing_method_yields_nothing(self):
        assert defense_margins(self.ROWS, method="bagging") == []

    def test_render_summary_mentions_wins(self):
        text = render_summary(self.ROWS)
        assert "defense margins" in text
        assert "beats a reference under attack: 1/1" in text

    def test_accepts_experiment_report(self, tiny_report):
        margins = defense_margins(tiny_report)
        assert len(margins) == 2  # clean + attacked


class TestDefenseFloors:
    """Under DICE at a 25% edge budget, RDD beats plain GCN by at least
    0.02 and does not trail reliability-free distillation (KD).  Every
    ingredient is seeded, so the margins are exact on one machine."""

    def test_rdd_margins_under_dice(self):
        config = HarnessConfig(
            scale=0.1, seeds=(0, 1), num_base_models=3, max_epochs=40, patience=15
        )
        report = run_sweep(
            config, attacks=("dice",), budgets=(0.25,), methods=("gcn", "kd", "rdd")
        )
        (attacked,) = [m for m in defense_margins(report) if m["attack"] != "none"]
        assert attacked["margin_vs_gcn"] >= 0.02
        assert attacked["margin_vs_kd"] >= 0.0


class TestHarnessConfigWiring:
    def test_aggregation_default_keeps_fingerprint(self):
        base = HarnessConfig().fingerprint()
        assert "aggregation" not in base
        assert HarnessConfig(aggregation="gcn").fingerprint() == base

    def test_aggregation_changes_fingerprint(self):
        fp = HarnessConfig(aggregation="soft_median").fingerprint()
        assert fp["aggregation"] == "soft_median"

    def test_rdd_config_carries_aggregation(self):
        config = HarnessConfig(aggregation="trimmed_mean").rdd_config()
        assert config.aggregation == "trimmed_mean"


class TestAttackCLI:
    def test_parser_accepts_attack_args(self):
        args = build_parser().parse_args(
            ["attack", "--attack", "dice", "--budget", "0.2", "--batches", "2"]
        )
        assert args.command == "attack"
        assert args.attack == "dice"
        assert not args.sweep

    def test_single_log_mode_writes_jsonl(self, tmp_path, capsys):
        out = tmp_path / "attack.jsonl"
        code = main(
            [
                "attack", "--dataset", "cora", "--scale", "0.05",
                "--attack", "random_flip", "--budget", "0.2",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if l.strip()]
        assert lines and all(json.loads(l) for l in lines)
        assert "homophily" in capsys.readouterr().out

    def test_sweep_mode_writes_report(self, tmp_path, capsys):
        report_path = tmp_path / "robustness.json"
        code = main(
            [
                "attack", "--sweep", "--dataset", "cora", "--scale", "0.05",
                "--seeds", "0", "--base-models", "2", "--max-epochs", "4",
                "--attacks", "random_flip", "--budgets", "0.2",
                "--methods", "gcn", "rdd",
                "--report-out", str(report_path),
            ]
        )
        assert code == 0
        assert load_report(report_path).rows
        assert "defense margins" in capsys.readouterr().out
