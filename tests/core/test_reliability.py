"""Tests for node and edge reliability (Algorithms 1 and 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ReliabilitySets,
    edge_reliability,
    entropy_threshold_mask,
    node_reliability,
    teacher_context,
)
from repro.core.scores import uncertainty_score
from repro.errors import ConfigError, ShapeError


def probs_from_confidence(confidences, predictions, k=3):
    """Rows with given argmax class and max-probability."""
    n = len(confidences)
    probs = np.full((n, k), 0.0)
    for i, (c, p) in enumerate(zip(predictions, confidences)):
        probs[i] = (1.0 - p) / (k - 1)
        probs[i, c] = p
    return probs


class TestEntropyThresholdMask:
    def test_lowest_selection(self):
        entropies = np.array([0.1, 0.9, 0.5, 0.3])
        mask = entropy_threshold_mask(entropies, 50.0, lowest=True)
        np.testing.assert_array_equal(mask, [True, False, False, True])

    def test_highest_selection(self):
        entropies = np.array([0.1, 0.9, 0.5, 0.3])
        mask = entropy_threshold_mask(entropies, 25.0, lowest=False)
        np.testing.assert_array_equal(mask, [False, True, False, False])

    def test_zero_percent_selects_nothing(self):
        mask = entropy_threshold_mask(np.ones(5), 0.0, lowest=True)
        assert not mask.any()

    def test_hundred_percent_selects_all(self):
        mask = entropy_threshold_mask(np.ones(5), 100.0, lowest=True)
        assert mask.all()

    def test_invalid_percent_raises(self):
        with pytest.raises(ConfigError):
            entropy_threshold_mask(np.ones(3), 150.0, lowest=True)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 100),
        n=st.integers(1, 50),
        percent=st.floats(0.0, 100.0),
    )
    def test_property_count_matches_percent(self, seed, n, percent):
        entropies = np.random.default_rng(seed).random(n)
        mask = entropy_threshold_mask(entropies, percent, lowest=True)
        assert mask.sum() == int(round(n * percent / 100.0))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 100), p_small=st.floats(0, 50), p_extra=st.floats(0, 50))
    def test_property_monotone_in_percent(self, seed, p_small, p_extra):
        # The selected set must grow monotonically with the percentile.
        entropies = np.random.default_rng(seed).random(40)
        small = entropy_threshold_mask(entropies, p_small, lowest=True)
        large = entropy_threshold_mask(entropies, min(p_small + p_extra, 100.0), lowest=True)
        assert np.all(large[small])  # small ⊆ large


class TestNodeReliabilityLabeled:
    def test_correct_teacher_prediction_is_reliable(self):
        labels = np.array([0, 1, 2])
        teacher = probs_from_confidence([0.9, 0.9, 0.9], [0, 1, 0])  # node 2 wrong
        student = teacher.copy()
        sets = node_reliability(student, teacher_context(teacher, labels, np.arange(3), p=100.0))
        assert sets.reliable_mask[0]
        assert sets.reliable_mask[1]
        assert not sets.reliable_mask[2]

    def test_labeled_nodes_ignore_student_agreement(self):
        labels = np.array([0])
        teacher = probs_from_confidence([0.9], [0])
        student = probs_from_confidence([0.9], [1])  # disagrees
        sets = node_reliability(student, teacher_context(teacher, labels, np.array([0]), p=100.0))
        assert sets.reliable_mask[0]


class TestNodeReliabilityUnlabeled:
    def test_low_entropy_and_agreement_required(self):
        labels = np.zeros(4, dtype=np.int64)
        train = np.array([], dtype=np.int64)
        # Nodes: 0 confident+agree, 1 confident+disagree, 2 unsure+agree, 3 unsure+disagree.
        teacher = probs_from_confidence([0.95, 0.95, 0.40, 0.40], [0, 0, 1, 1])
        student = probs_from_confidence([0.9, 0.9, 0.9, 0.9], [0, 2, 1, 2])
        sets = node_reliability(student, teacher_context(teacher, labels, train, p=50.0))
        assert sets.reliable_mask[0]
        assert not sets.reliable_mask[1]  # disagreement kills it
        assert not sets.reliable_mask[2]  # entropy too high (not in lowest 50%)
        assert not sets.reliable_mask[3]

    def test_p_controls_reliable_count(self):
        rng = np.random.default_rng(0)
        n = 100
        labels = np.zeros(n, dtype=np.int64)
        probs = rng.dirichlet(np.ones(3), size=n)
        unlabeled = np.array([], dtype=np.int64)
        sets_small = node_reliability(probs, teacher_context(probs, labels, unlabeled, p=20.0))
        sets_large = node_reliability(probs, teacher_context(probs, labels, unlabeled, p=80.0))
        assert sets_small.num_reliable < sets_large.num_reliable
        # Monotonicity: the reliable set grows with p.
        assert np.all(sets_large.reliable_mask[sets_small.reliable_mask])

    def test_distill_set_is_subset_of_reliable(self):
        rng = np.random.default_rng(1)
        n = 60
        labels = rng.integers(0, 3, n)
        teacher = rng.dirichlet(np.ones(3), size=n)
        student = rng.dirichlet(np.ones(3), size=n)
        sets = node_reliability(student, teacher_context(teacher, labels, np.arange(10), p=40.0))
        assert np.all(sets.reliable_mask[sets.distill_mask])

    def test_distill_set_targets_uncertain_students(self):
        labels = np.zeros(4, dtype=np.int64)
        train = np.array([], dtype=np.int64)
        # Teacher entropy strictly increasing: lowest-50% = nodes 0, 1.
        teacher = probs_from_confidence([0.99, 0.98, 0.97, 0.96], [0, 0, 0, 0])
        # Student agrees everywhere; unsure on nodes 1 and 3.
        student = probs_from_confidence([0.99, 0.40, 0.99, 0.40], [0, 0, 0, 0])
        sets = node_reliability(student, teacher_context(teacher, labels, train, p=50.0))
        np.testing.assert_array_equal(sets.reliable_mask, [True, True, False, False])
        # V_b = reliable ∩ (student-entropy top 50% = nodes 1, 3) = {1}.
        np.testing.assert_array_equal(sets.distill_mask, [False, True, False, False])

    def test_wnr_ablation_marks_everything_reliable(self):
        rng = np.random.default_rng(2)
        teacher = rng.dirichlet(np.ones(3), size=20)
        student = rng.dirichlet(np.ones(3), size=20)
        context = teacher_context(teacher, np.zeros(20, dtype=np.int64),
                                  np.array([], dtype=np.int64), p=40.0, use_reliability=False)
        sets = node_reliability(student, context)
        assert sets.reliable_mask.all()
        # V_b still selects the student's most-uncertain 40%.
        assert sets.num_distill == 8

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            context = teacher_context(np.ones((3, 2)) / 2, np.zeros(3, dtype=np.int64), np.array([0]))
            node_reliability(np.ones((4, 2)) / 2, context)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 200), p=st.floats(0, 100))
    def test_property_invariants(self, seed, p):
        rng = np.random.default_rng(seed)
        n, k = 40, 4
        teacher = rng.dirichlet(np.ones(k), size=n)
        student = rng.dirichlet(np.ones(k), size=n)
        labels = rng.integers(0, k, n)
        train = rng.choice(n, size=8, replace=False)
        sets = node_reliability(student, teacher_context(teacher, labels, train, p=p))
        # V_b ⊆ V_r always.
        assert np.all(sets.reliable_mask[sets.distill_mask])
        # Masks have the right shape and dtype.
        assert sets.reliable_mask.shape == (n,)
        assert sets.reliable_mask.dtype == bool
        assert sets.num_distill <= int(round(n * p / 100.0))


def alg1_distill_mask(teacher, student, labels, train, p, score):
    """``V_b`` of Algorithm 1 computed directly, with ``p`` and ``score``
    cutting both the teacher side and the student side."""
    n = teacher.shape[0]
    teacher_pred = teacher.argmax(axis=1)
    labeled = np.zeros(n, dtype=bool)
    labeled[train] = True
    reliable = np.zeros(n, dtype=bool)
    reliable[train] = teacher_pred[train] == labels[train]
    low_teacher = entropy_threshold_mask(uncertainty_score(teacher, score), p, lowest=True)
    reliable |= ~labeled & low_teacher & (teacher_pred == student.argmax(axis=1))
    return reliable & entropy_threshold_mask(uncertainty_score(student, score), p, lowest=False)


class TestContextSettingsCutBothSides:
    """The ``p`` and score of the context also cut the student side (V_b)."""

    @pytest.mark.parametrize(
        "p, score", [(80.0, "entropy"), (40.0, "margin"), (80.0, "confidence")]
    )
    def test_distill_mask_uses_the_context_p_and_score(self, p, score):
        rng = np.random.default_rng(7)
        n, k = 200, 5
        teacher = rng.dirichlet(np.ones(k), size=n)
        student = rng.dirichlet(np.ones(k), size=n)
        labels = rng.integers(0, k, n)
        train = rng.choice(n, size=20, replace=False)
        sets = node_reliability(student, teacher_context(teacher, labels, train, p=p, score=score))
        expected = sets.reliable_mask & entropy_threshold_mask(
            uncertainty_score(student, score), p, lowest=False
        )
        np.testing.assert_array_equal(sets.distill_mask, expected)
        np.testing.assert_array_equal(
            sets.distill_mask, alg1_distill_mask(teacher, student, labels, train, p, score)
        )
        # The default cut (p=40 by entropy) selects a different V_b here,
        # so the comparison above can tell the two apart.
        default = sets.reliable_mask & entropy_threshold_mask(
            uncertainty_score(student, "entropy"), 40.0, lowest=False
        )
        assert not np.array_equal(expected, default)


class TestEdgeReliability:
    def test_requires_both_endpoints_reliable(self):
        src = np.array([0, 1, 2])
        dst = np.array([1, 2, 3])
        reliable = np.array([True, True, False, True])
        pred = np.zeros(4, dtype=np.int64)
        r_src, r_dst = edge_reliability(src, dst, reliable, pred)
        np.testing.assert_array_equal(r_src, [0])
        np.testing.assert_array_equal(r_dst, [1])

    def test_requires_same_predicted_class(self):
        src = np.array([0, 1])
        dst = np.array([1, 2])
        reliable = np.ones(3, dtype=bool)
        pred = np.array([0, 0, 1])
        r_src, r_dst = edge_reliability(src, dst, reliable, pred)
        np.testing.assert_array_equal(r_src, [0])

    def test_wer_ablation_keeps_same_class_edges_only(self):
        src = np.array([0, 1])
        dst = np.array([1, 2])
        reliable = np.zeros(3, dtype=bool)  # nobody reliable
        pred = np.array([0, 0, 1])
        r_src, _ = edge_reliability(src, dst, reliable, pred, use_reliability=False)
        np.testing.assert_array_equal(r_src, [0])

    def test_empty_edges(self):
        empty = np.array([], dtype=np.int64)
        r_src, r_dst = edge_reliability(empty, empty, np.ones(3, dtype=bool), np.zeros(3, dtype=np.int64))
        assert len(r_src) == 0

    def test_mismatched_arrays_raise(self):
        with pytest.raises(ShapeError):
            edge_reliability(np.array([0]), np.array([1, 2]), np.ones(3, dtype=bool),
                             np.zeros(3, dtype=np.int64))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 100))
    def test_property_reliable_edges_subset_of_input(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 20, 40
        src = rng.integers(0, n, m)
        dst = rng.integers(0, n, m)
        reliable = rng.random(n) < 0.5
        pred = rng.integers(0, 3, n)
        r_src, r_dst = edge_reliability(src, dst, reliable, pred)
        original = set(zip(src.tolist(), dst.tolist()))
        assert set(zip(r_src.tolist(), r_dst.tolist())) <= original
        # Every surviving edge satisfies both conditions.
        assert np.all(reliable[r_src] & reliable[r_dst])
        assert np.all(pred[r_src] == pred[r_dst])


class TestEntropyThresholdMaskPartitionParity:
    """The argpartition-based selection must pick the exact node set the
    old full stable argsort picked, tie behaviour included: boundary
    ties resolve to the smallest indices for lowest-p selection and the
    largest indices for highest-p selection."""

    @staticmethod
    def argsort_reference(entropies, percent, lowest):
        n = len(entropies)
        count = int(round(n * percent / 100.0))
        mask = np.zeros(n, dtype=bool)
        if count == 0:
            return mask
        order = np.argsort(entropies, kind="stable")
        chosen = order[:count] if lowest else order[-count:]
        mask[chosen] = True
        return mask

    def test_lowest_tie_takes_smallest_indices(self):
        entropies = np.array([0.5, 0.2, 0.5, 0.2, 0.5])
        mask = entropy_threshold_mask(entropies, 60.0, lowest=True)
        # Two 0.2s enter outright; the tie at 0.5 resolves to index 0.
        np.testing.assert_array_equal(mask, [True, True, False, True, False])

    def test_highest_tie_takes_largest_indices(self):
        entropies = np.array([0.5, 0.2, 0.5, 0.2, 0.5])
        mask = entropy_threshold_mask(entropies, 60.0, lowest=False)
        # All three 0.5s qualify for the top 3: indices 0, 2, 4.
        np.testing.assert_array_equal(mask, [True, False, True, False, True])
        mask = entropy_threshold_mask(entropies, 40.0, lowest=False)
        # Top 2 of three tied 0.5s: the stable argsort kept the largest
        # indices, 2 and 4.
        np.testing.assert_array_equal(mask, [False, False, True, False, True])

    def test_all_tied(self):
        entropies = np.full(6, 0.3)
        np.testing.assert_array_equal(
            entropy_threshold_mask(entropies, 50.0, lowest=True),
            [True, True, True, False, False, False],
        )
        np.testing.assert_array_equal(
            entropy_threshold_mask(entropies, 50.0, lowest=False),
            [False, False, False, True, True, True],
        )

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        percent=st.sampled_from([0.0, 7.0, 25.0, 40.0, 50.0, 93.0, 100.0]),
        lowest=st.booleans(),
    )
    def test_property_matches_stable_argsort(self, seed, percent, lowest):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        # Draw from a tiny value set so boundary ties are the common
        # case rather than the exception.
        entropies = rng.choice([0.1, 0.2, 0.2, 0.3, 0.3, 0.3], size=n)
        fast = entropy_threshold_mask(entropies, percent, lowest)
        reference = self.argsort_reference(entropies, percent, lowest)
        np.testing.assert_array_equal(fast, reference)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_property_matches_on_distinct_values(self, seed):
        rng = np.random.default_rng(seed)
        entropies = rng.permutation(np.linspace(0.0, 1.0, 37))
        for percent in (13.0, 40.0, 87.0):
            for lowest in (True, False):
                np.testing.assert_array_equal(
                    entropy_threshold_mask(entropies, percent, lowest),
                    self.argsort_reference(entropies, percent, lowest),
                )


class TestDegenerateInputs:
    """The hardening contract: degenerate inputs stay well-defined."""

    def test_empty_entropies_yield_empty_mask(self):
        for lowest in (True, False):
            mask = entropy_threshold_mask(np.array([]), 50.0, lowest=lowest)
            assert mask.shape == (0,) and mask.dtype == bool

    def test_single_node_rounds_to_none_or_all(self):
        one = np.array([0.5])
        assert not entropy_threshold_mask(one, 40.0, lowest=True).any()
        assert entropy_threshold_mask(one, 60.0, lowest=True).all()

    def test_non_1d_entropies_rejected(self):
        with pytest.raises(ShapeError):
            entropy_threshold_mask(np.ones((3, 2)), 50.0, lowest=True)

    def test_nan_entropies_rejected_when_ranking(self):
        entropies = np.array([0.1, np.nan, 0.3, 0.4])
        with pytest.raises(ShapeError):
            entropy_threshold_mask(entropies, 50.0, lowest=True)
        # The 0%/100% short-circuits never rank, so they stay defined.
        assert not entropy_threshold_mask(entropies, 0.0, lowest=True).any()
        assert entropy_threshold_mask(entropies, 100.0, lowest=True).all()

    def test_nan_percent_rejected(self):
        with pytest.raises(ConfigError):
            entropy_threshold_mask(np.ones(3), float("nan"), lowest=True)

    def test_edge_reliability_empty_edge_set(self):
        src, dst = edge_reliability(
            np.array([], dtype=np.int64),
            np.array([], dtype=np.int64),
            np.ones(4, dtype=bool),
            np.zeros(4, dtype=np.int64),
        )
        assert src.size == 0 and dst.size == 0
        assert src.dtype == np.int64 and dst.dtype == np.int64

    def test_edge_reliability_out_of_range_endpoints_rejected(self):
        mask, pred = np.ones(4, dtype=bool), np.zeros(4, dtype=np.int64)
        with pytest.raises(ShapeError, match="endpoints"):
            edge_reliability([0, 3], [1, 4], mask, pred)
        with pytest.raises(ShapeError, match="endpoints"):
            edge_reliability([-1], [1], mask, pred)

    def test_edge_reliability_mask_length_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="mask"):
            edge_reliability([0], [1], np.ones(3, dtype=bool), np.zeros(4, dtype=np.int64))

    def test_edge_reliability_2d_predictions_rejected(self):
        with pytest.raises(ShapeError, match="1-D"):
            edge_reliability([0], [1], np.ones(4, dtype=bool), np.zeros((4, 2)))
