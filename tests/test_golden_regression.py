"""Golden regression test: a frozen seeded RDD trajectory must not drift.

``tests/fixtures/golden_rdd_sbm.json`` (written by
``scripts/make_golden_fixtures.py``) records the full observable
trajectory of a small seeded RDD run on the tiny DC-SBM citation
stand-in: per-epoch losses and validation accuracies for every student,
base/ensemble accuracies, α-weights, and reliable-set sizes.
``golden_rdd_sbm_sampled.json`` freezes the same run through
neighbor-sampled mini-batches; the ``TestSampled*`` classes replay it
with the same checks.

Replaying the identical configuration must reproduce that trajectory to
float round-trip precision.  If this test fails you either changed
numerics intentionally — rerun the fixture script and review the diff —
or introduced silent drift somewhere in the trainer/loss/reliability/
ensemble stack, which is exactly what this test exists to catch.
"""

import json
import pathlib
import sys

import numpy as np
import pytest

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# JSON stores float64 exactly (repr round-trip), so the tolerance covers
# genuine numerical change only, not serialization noise.
RTOL = 1e-7


def _replay(sampled):
    # The generator script is the single source of truth for the run
    # configuration: import it so test and fixture can never disagree.
    sys.path.insert(0, str(pathlib.Path(__file__).parents[1] / "scripts"))
    try:
        import make_golden_fixtures
    finally:
        sys.path.pop(0)
    return make_golden_fixtures.snapshot(*make_golden_fixtures.run_golden(sampled))


@pytest.fixture(scope="module")
def golden():
    return json.loads((FIXTURES / "golden_rdd_sbm.json").read_text())


@pytest.fixture(scope="module")
def replay():
    return _replay(sampled=False)


@pytest.fixture(scope="module")
def golden_sampled():
    return json.loads((FIXTURES / "golden_rdd_sbm_sampled.json").read_text())


@pytest.fixture(scope="module")
def replay_sampled():
    return _replay(sampled=True)


class TestDatasetIdentity:
    def test_graph_shape_is_frozen(self, golden, replay):
        assert replay["dataset"] == golden["dataset"]


class TestAccuracyTrajectory:
    def test_ensemble_accuracies(self, golden, replay):
        np.testing.assert_allclose(
            replay["ensemble_test_accuracy"], golden["ensemble_test_accuracy"], rtol=RTOL
        )
        np.testing.assert_allclose(
            replay["ensemble_val_accuracy"], golden["ensemble_val_accuracy"], rtol=RTOL
        )

    def test_base_accuracies_and_curve(self, golden, replay):
        np.testing.assert_allclose(
            replay["base_test_accuracies"], golden["base_test_accuracies"], rtol=RTOL
        )
        np.testing.assert_allclose(replay["ensemble_curve"], golden["ensemble_curve"], rtol=RTOL)

    def test_ensemble_weights(self, golden, replay):
        np.testing.assert_allclose(
            replay["ensemble_weights"], golden["ensemble_weights"], rtol=RTOL
        )


class TestPerEpochTrajectory:
    def test_student_count(self, golden, replay):
        assert len(replay["students"]) == len(golden["students"]) == 3

    def test_epoch_counts_exact(self, golden, replay):
        for mine, theirs in zip(replay["students"], golden["students"]):
            assert mine["epochs_run"] == theirs["epochs_run"]
            assert mine["best_epoch"] == theirs["best_epoch"]

    def test_loss_trajectories(self, golden, replay):
        for student, (mine, theirs) in enumerate(zip(replay["students"], golden["students"])):
            assert len(mine["history"]) == len(theirs["history"]), f"student {student}"
            for epoch, (a, b) in enumerate(zip(mine["history"], theirs["history"])):
                assert a["epoch"] == b["epoch"]
                np.testing.assert_allclose(
                    a["loss"], b["loss"], rtol=RTOL,
                    err_msg=f"loss drift: student {student}, epoch {epoch}",
                )
                np.testing.assert_allclose(
                    a["val_accuracy"], b["val_accuracy"], rtol=RTOL,
                    err_msg=f"val drift: student {student}, epoch {epoch}",
                )

    def test_student_accuracies(self, golden, replay):
        for mine, theirs in zip(replay["students"], golden["students"]):
            for key in ("train_accuracy", "val_accuracy", "test_accuracy"):
                np.testing.assert_allclose(mine[key], theirs[key], rtol=RTOL)


class TestReliabilityTrajectory:
    def test_reliable_set_sizes_exact(self, golden, replay):
        # Set sizes are integers: any drift here means the reliability
        # thresholds (Algorithms 1-2) changed behavior, not just bits.
        assert replay["reliability_history"] == golden["reliability_history"]


class SampledRun:
    """Mixin: run a class's checks on the neighbor-sampled fixture."""

    @pytest.fixture
    def golden(self, golden_sampled):
        return golden_sampled

    @pytest.fixture
    def replay(self, replay_sampled):
        return replay_sampled


class TestSampledDatasetIdentity(SampledRun, TestDatasetIdentity):
    pass


class TestSampledAccuracyTrajectory(SampledRun, TestAccuracyTrajectory):
    pass


class TestSampledPerEpochTrajectory(SampledRun, TestPerEpochTrajectory):
    pass


class TestSampledReliabilityTrajectory(SampledRun, TestReliabilityTrajectory):
    pass
