"""Hypothesis property tests spanning the RDD core pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    EnsembleModel,
    edge_reliability,
    ensemble_weight,
    node_reliability,
    teacher_context,
    uniform_softmax_ensemble,
)
from repro.core.losses import RDDLossState, rdd_student_loss
from repro.tensor import Tensor


def random_probs(rng, n, k):
    return rng.dirichlet(np.ones(k), size=n)


class TestEnsembleProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 200), models=st.integers(1, 5))
    def test_weighted_ensemble_rows_are_distributions(self, seed, models):
        rng = np.random.default_rng(seed)
        ensemble = EnsembleModel()
        pagerank = rng.dirichlet(np.ones(12))
        for _ in range(models):
            probs = random_probs(rng, 12, 4)
            ensemble.add(probs, np.log(probs + 1e-12), ensemble_weight(probs, pagerank))
        out = ensemble.probs()
        assert (out >= -1e-12).all()
        np.testing.assert_allclose(out.sum(axis=1), np.ones(12), atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 200))
    def test_single_model_ensemble_is_identity(self, seed):
        rng = np.random.default_rng(seed)
        probs = random_probs(rng, 8, 3)
        ensemble = EnsembleModel()
        ensemble.add(probs, probs, 5.0)
        np.testing.assert_allclose(ensemble.probs(), probs)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 200), models=st.integers(2, 5))
    def test_uniform_ensemble_bounded_by_extremes(self, seed, models):
        rng = np.random.default_rng(seed)
        prob_list = [random_probs(rng, 6, 3) for _ in range(models)]
        mean = uniform_softmax_ensemble(prob_list)
        stacked = np.stack(prob_list)
        assert (mean <= stacked.max(axis=0) + 1e-12).all()
        assert (mean >= stacked.min(axis=0) - 1e-12).all()


class TestReliabilityPipelineProperties:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 200), p=st.floats(0.0, 100.0))
    def test_full_pipeline_edge_set_consistent(self, seed, p):
        rng = np.random.default_rng(seed)
        n, k = 30, 3
        teacher = random_probs(rng, n, k)
        student = random_probs(rng, n, k)
        labels = rng.integers(0, k, n)
        train = rng.choice(n, size=6, replace=False)
        sets = node_reliability(student, teacher_context(teacher, labels, train, p=p))

        m = 50
        src = rng.integers(0, n, m)
        dst = rng.integers(0, n, m)
        r_src, r_dst = edge_reliability(src, dst, sets.reliable_mask, student.argmax(axis=1))
        # Every reliable edge touches only reliable nodes with agreeing
        # student predictions — the Alg. 2 contract, for any p and seed.
        assert np.all(sets.reliable_mask[r_src])
        assert np.all(sets.reliable_mask[r_dst])
        assert np.all(student.argmax(axis=1)[r_src] == student.argmax(axis=1)[r_dst])

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 100), gamma=st.floats(0.0, 3.0), beta=st.floats(0.0, 3.0))
    def test_loss_finite_and_nonnegative_terms(self, seed, gamma, beta, tiny_graph):
        rng = np.random.default_rng(seed)
        n, k = tiny_graph.num_nodes, tiny_graph.num_classes
        teacher_probs = random_probs(rng, n, k)
        state = RDDLossState(
            teacher_embeddings=np.log(teacher_probs + 1e-12),
            teacher_probs=teacher_probs,
            distill_index=rng.choice(n, size=8, replace=False),
            edge_src=rng.integers(0, n, 10),
            edge_dst=rng.integers(0, n, 10),
            gamma=gamma,
            beta=beta,
        )
        logits = Tensor(rng.normal(size=(n, k)), requires_grad=True)
        loss = rdd_student_loss(tiny_graph, logits, state)
        assert np.isfinite(loss.item())
        assert loss.item() >= 0.0
        loss.backward()
        assert np.isfinite(logits.grad).all()

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 100))
    def test_loss_monotone_in_gamma(self, seed, tiny_graph):
        # With everything else fixed, a larger γ cannot reduce the loss
        # (the distillation term is nonnegative).
        rng = np.random.default_rng(seed)
        n, k = tiny_graph.num_nodes, tiny_graph.num_classes
        teacher_probs = random_probs(rng, n, k)
        logits_data = rng.normal(size=(n, k))

        def loss_at(gamma):
            state = RDDLossState(
                teacher_embeddings=np.log(teacher_probs + 1e-12),
                teacher_probs=teacher_probs,
                distill_index=np.arange(10),
                gamma=gamma,
                beta=0.0,
            )
            return rdd_student_loss(tiny_graph, Tensor(logits_data), state).item()

        assert loss_at(2.0) >= loss_at(0.5) - 1e-12
