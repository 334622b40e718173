"""Observability of the sampled training path.

Sampled epochs must emit one ``sampler:batch`` span per optimizer step
(carrying batch composition attrs, including the per-batch reliable-seed
count for RDD students), without perturbing the recorded trajectory —
obs on/off results stay bitwise identical.  An RDD fit writes a fixed
number of records per student, epoch and optimizer step, which bounds
what tracing adds to an epoch.
"""

import json
from collections import Counter

import numpy as np
import pytest

import repro.obs as obs
from repro.core.config import RDDConfig
from repro.core.rdd import RDDTrainer
from repro.models.gcn import GCN
from repro.obs import EVENT_LOG_NAME
from repro.training.sampled import SampledTrainer
from repro.training.trainer import Trainer


def read_log(run_dir):
    with open(run_dir / EVENT_LOG_NAME, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def make_gcn(graph, seed=3):
    return GCN(
        graph.num_features, graph.num_classes, np.random.default_rng(seed), hidden=16
    )


SAMPLED_CONFIG = dict(
    num_base_models=2, max_epochs=4, patience=50, hidden=16,
    sampler="neighbor", fanouts=(3, 3), batch_size=8,
)


class TestSampledTrainerSpans:
    def test_batch_spans_carry_composition(self, tiny_graph, tmp_path):
        obs.enable(tmp_path)
        SampledTrainer(
            fanouts=(3, 3), batch_size=8, max_epochs=2, patience=50
        ).fit(make_gcn(tiny_graph), tiny_graph)
        spans = [e for e in read_log(tmp_path) if e.get("name") == "sampler:batch"]
        # 12 train seeds / batch 8 = 2 batches per epoch, 2 epochs.
        assert len(spans) == 4
        for span in spans:
            assert span["kind"] == "span" and span["status"] == "ok"
            assert span["parent"] == "epoch"
            assert 0 < span["num_seeds"] <= 8
            assert span["num_input_nodes"] >= span["num_seeds"]
            assert span["loss"] > 0.0
        assert sorted({s["epoch"] for s in spans}) == [0, 1]

    def test_fit_span_reports_sampler_settings(self, tiny_graph, tmp_path):
        obs.enable(tmp_path)
        SampledTrainer(
            fanouts=(3, 3), batch_size=8, max_epochs=1, patience=50
        ).fit(make_gcn(tiny_graph), tiny_graph)
        fit = [e for e in read_log(tmp_path) if e.get("name") == "trainer:fit"][0]
        assert fit["sampler"] == "neighbor"
        assert fit["fanouts"] == [3, 3] and fit["batch_size"] == 8


class TestSampledRDDSpans:
    def test_distilled_students_report_reliable_seed_counts(self, tiny_graph, tmp_path):
        obs.enable(tmp_path)
        RDDTrainer(RDDConfig(**SAMPLED_CONFIG)).fit(tiny_graph, seed=0)
        events = read_log(tmp_path)
        spans = [e for e in events if e.get("name") == "sampler:batch"]
        assert spans, "sampled RDD fit emitted no sampler:batch spans"
        distilled = [s for s in spans if "reliable_seeds" in s]
        assert distilled, "distilled-student batches must report reliable seeds"
        for span in distilled:
            assert 0 <= span["reliable_seeds"] <= span["num_seeds"]
        # The first (plain supervised) student has no reliability sets,
        # so some spans legitimately lack the attribute.
        assert len(distilled) < len(spans)

    def test_rdd_epoch_events_once_per_distilled_epoch(self, tiny_graph, tmp_path):
        obs.enable(tmp_path)
        RDDTrainer(RDDConfig(**SAMPLED_CONFIG)).fit(tiny_graph, seed=0)
        epochs = [e for e in read_log(tmp_path) if e.get("name") == "rdd_epoch"]
        assert len(epochs) == SAMPLED_CONFIG["max_epochs"]
        assert [e["epoch"] for e in epochs] == list(range(SAMPLED_CONFIG["max_epochs"]))
        for event in epochs:
            assert event["student"] == 2
            assert "num_reliable" in event and "gamma" in event

    def test_trajectory_bitwise_identical_obs_on_off(self, tiny_graph, tmp_path):
        enabled_dir = tmp_path / "on"
        obs.enable(enabled_dir)
        with_obs = RDDTrainer(RDDConfig(**SAMPLED_CONFIG)).fit(tiny_graph, seed=0)
        obs.disable()
        without_obs = RDDTrainer(RDDConfig(**SAMPLED_CONFIG)).fit(tiny_graph, seed=0)
        assert with_obs.ensemble_test_accuracy == without_obs.ensemble_test_accuracy
        assert with_obs.base_test_accuracies == without_obs.base_test_accuracies
        for a, b in zip(with_obs.base_results, without_obs.base_results):
            np.testing.assert_array_equal(a.predictions, b.predictions)


class TestEpochSpanParity:
    def test_full_and_sampled_fits_emit_the_same_epoch_fields(self, tiny_graph, tmp_path):
        # Both trainers run one epoch loop, so an obs reader or a history
        # consumer sees the same fields whichever mode trained the model.
        trainers = {
            "full": Trainer(max_epochs=2, patience=50, record_history=True),
            "sampled": SampledTrainer(
                fanouts=(3, 3), batch_size=8, max_epochs=2, patience=50, record_history=True
            ),
        }
        fields, history_keys = {}, {}
        for mode, trainer in trainers.items():
            obs.enable(tmp_path / mode)
            result = trainer.fit(make_gcn(tiny_graph), tiny_graph)
            obs.disable()
            spans = [e for e in read_log(tmp_path / mode) if e.get("name") == "epoch"]
            assert len(spans) == 2
            fields[mode] = {frozenset(span) for span in spans}
            history_keys[mode] = {frozenset(row) for row in result.history}
        assert fields["full"] == fields["sampled"]
        (span_fields,) = fields["full"]
        assert {"loss", "val_accuracy", "steps"} <= span_fields
        assert history_keys["full"] == history_keys["sampled"]


class TestEventVolume:
    @pytest.mark.parametrize(
        "extra, total",
        [({}, 25), (dict(sampler="neighbor", fanouts=(5, 5), batch_size=64), 38)],
        ids=["full", "sampled"],
    )
    def test_records_per_student_epoch_and_step(self, small_citation, tmp_path, extra, total):
        students, epochs = 2, 6
        obs.enable(tmp_path)
        # patience == max_epochs: every student runs the fixed epoch count.
        config = RDDConfig(num_base_models=students, max_epochs=epochs, patience=epochs, **extra)
        RDDTrainer(config).fit(small_citation, seed=0)
        events = read_log(tmp_path)
        expected = {
            ("run", "start"): 1,
            ("span", "trainer:fit"): students,
            ("span", "rdd:student"): students,
            ("point", "rdd_student_result"): students,
            ("span", "epoch"): students * epochs,
            ("point", "rdd_epoch"): (students - 1) * epochs,
        }
        if extra:
            steps = sum(e["steps"] for e in events if e["name"] == "epoch")
            expected[("span", "sampler:batch")] = steps
        assert Counter((e["kind"], e["name"]) for e in events) == expected
        assert len(events) == total
