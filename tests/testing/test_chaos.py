"""Chaos tests: crash the runtime mid-run, resume, demand bit-identity.

The contract under test is the strongest one the crash-safe runtime
makes: after a worker crash, an interrupted checkpoint write, or even a
corrupted checkpoint file, resuming a multi-seed harness produces a
result **bit-identical** to an uninterrupted run — every accuracy,
prediction array, and ensemble weight, compared with
:func:`results_bitwise_equal` (no tolerances).  The harness seed loop
(:func:`run_over_seeds`) is the only resume point, and its cells are
keyed by graph content: a checkpointed harness prints the same rows as
an unchecked one even when its graphs share every count.
"""

import pytest

from repro.evaluation import HarnessConfig, ext_noise, fig1
from repro.evaluation.common import load_graphs, run_over_seeds, run_rdd
from repro.robustness.sweep import run_sweep
from repro.testing.faults import CheckpointFault, FaultPlan, WorkerCrash, inject, truncate_file
from repro.training.records import results_bitwise_equal

BUDGET = dict(scale=0.05, seeds=(0, 1, 2), num_base_models=2, max_epochs=4, patience=4, hidden=8)


@pytest.fixture(scope="module")
def graphs():
    return load_graphs(HarnessConfig(**BUDGET), "cora")


@pytest.fixture(scope="module")
def clean_harness(graphs):
    """The uninterrupted multi-seed RDD harness run (the reference)."""
    return run_over_seeds(run_rdd, graphs, HarnessConfig(**BUDGET))


class TestHarnessResume:
    def test_crash_mid_harness_then_resume_is_bit_identical(self, graphs, clean_harness, tmp_path):
        # Acceptance criterion: kill the multi-seed harness mid-run,
        # resume from checkpoint, final results bit-identical.
        config = HarnessConfig(checkpoint_dir=str(tmp_path), **BUDGET)
        with inject(FaultPlan().fail("harness:seed", key=2)):
            with pytest.raises(WorkerCrash):
                run_over_seeds(run_rdd, graphs, config)

        resumed = run_over_seeds(run_rdd, graphs, config)
        assert len(resumed) == len(clean_harness)
        for clean, after in zip(clean_harness, resumed):
            assert results_bitwise_equal(clean, after)
            assert after.ensemble_weights is not None

    def test_corrupted_checkpoint_falls_back_and_stays_bit_identical(
        self, graphs, clean_harness, tmp_path
    ):
        # Crash AND truncate the newest checkpoint generation: the
        # resume falls back to the previous generation (re-running one
        # extra seed) and the final results are still bit-identical.
        config = HarnessConfig(checkpoint_dir=str(tmp_path), **BUDGET)
        store = config.checkpoint_store()
        with inject(FaultPlan().fail("harness:seed", key=2)):
            with pytest.raises(WorkerCrash):
                run_over_seeds(run_rdd, graphs, config)

        (name,) = {p.name.rsplit("-", 1)[0] for p in tmp_path.iterdir()}
        truncate_file(store.generations(name)[-1], keep_fraction=0.5)

        with pytest.warns(UserWarning, match="skipping invalid generation"):
            resumed = run_over_seeds(run_rdd, graphs, config)
        for clean, after in zip(clean_harness, resumed):
            assert results_bitwise_equal(clean, after)

    def test_crash_during_checkpoint_write_loses_at_most_one_cell(
        self, graphs, clean_harness, tmp_path
    ):
        # The crash hits the checkpoint *save* of seed 1's result: seed 0
        # is durable, seed 1's work is lost — and recomputed identically.
        config = HarnessConfig(checkpoint_dir=str(tmp_path), **BUDGET)
        with inject(FaultPlan().fail("checkpoint:save", at=1, exc=CheckpointFault)):
            with pytest.raises(CheckpointFault):
                run_over_seeds(run_rdd, graphs, config)

        resumed = run_over_seeds(run_rdd, graphs, config)
        for clean, after in zip(clean_harness, resumed):
            assert results_bitwise_equal(clean, after)

    def test_no_resume_recomputes_everything_identically(self, graphs, clean_harness, tmp_path):
        config = HarnessConfig(checkpoint_dir=str(tmp_path), **BUDGET)
        with inject(FaultPlan().fail("harness:seed", key=1)):
            with pytest.raises(WorkerCrash):
                run_over_seeds(run_rdd, graphs, config)

        fresh = run_over_seeds(run_rdd, graphs, HarnessConfig(
            checkpoint_dir=str(tmp_path), resume=False, **BUDGET
        ))
        for clean, after in zip(clean_harness, fresh):
            assert results_bitwise_equal(clean, after)

    def test_retry_survives_transient_crash_in_one_run(self, graphs, clean_harness):
        # No checkpoint at all: a transient fault on seed 1 clears on
        # retry and the run completes bit-identically.
        config = HarnessConfig(task_retries=1, retry_backoff=0.0, **BUDGET)
        with inject(FaultPlan().fail("harness:seed", key=1, at=0)) as plan:
            with pytest.warns(UserWarning, match="retrying"):
                results = run_over_seeds(run_rdd, graphs, config)
        assert plan.fired() == 1
        for clean, after in zip(clean_harness, results):
            assert results_bitwise_equal(clean, after)

    def test_completed_checkpoint_short_circuits_retraining(self, graphs, tmp_path):
        config = HarnessConfig(checkpoint_dir=str(tmp_path), **BUDGET)
        first = run_over_seeds(run_rdd, graphs, config)

        # A second run finds every seed cell already completed: nothing
        # trains (the trainer:epoch fault would fire if anything did).
        with inject(FaultPlan().fail("trainer:epoch", at=None)):
            again = run_over_seeds(run_rdd, graphs, config)
        for a, b in zip(first, again):
            assert results_bitwise_equal(a, b)


# A budget at which the graphs of each sweep below share every count
# (nodes, edges, features, classes) but train to different rows, so a
# cell key that covered only the counts would hand one graph's
# checkpointed results to another.
KEY_BUDGET = dict(scale=0.1, seeds=(0,), num_base_models=2, max_epochs=20, patience=10)


def _rows_with_and_without_checkpoints(run, tmp_path):
    plain = run(HarnessConfig(**KEY_BUDGET))
    checkpointed = run(HarnessConfig(checkpoint_dir=str(tmp_path), **KEY_BUDGET))
    return plain.rows, checkpointed.rows


class TestCellKeyCoversGraphContent:
    def test_noise_levels_keep_their_own_rows(self, tmp_path):
        plain, checkpointed = _rows_with_and_without_checkpoints(
            lambda config: ext_noise.run(config, noise_levels=(0.0, 0.2, 0.4)), tmp_path
        )
        assert checkpointed == plain
        # The noise really moves the rows, so a shared cell would show.
        accuracies = {tuple(v for k, v in row.items() if k != "feature_noise") for row in plain}
        assert len(accuracies) == 3

    def test_attacked_graph_keeps_its_own_row(self, tmp_path):
        def sweep(config):
            return run_sweep(config, attacks=("dice",), budgets=(0.25,), methods=("gcn",))

        plain, checkpointed = _rows_with_and_without_checkpoints(sweep, tmp_path)
        assert checkpointed == plain
        assert plain[0]["accuracy"] != plain[1]["accuracy"]

    def test_label_rates_keep_their_own_rows(self, tmp_path):
        plain, checkpointed = _rows_with_and_without_checkpoints(
            lambda config: fig1.run(config, label_rates=(2.0, 5.2)), tmp_path
        )
        assert checkpointed == plain
