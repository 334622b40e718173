"""Tests for the composite RDD student loss (Eq. 10).

``TestSampledLossOracle`` holds the batch-restricted loss to the
``np.isin``/``np.searchsorted`` formulation it replaced, kept here as
the reference: loss and gradients must match it bitwise.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.losses import (
    DISTILL_MODES,
    RDDLossState,
    _distill_term,
    rdd_student_loss,
    sampled_rdd_student_loss,
)
from repro.tensor import Tensor, ops
from repro.tensor.functional import (
    edge_regularization,
    masked_cross_entropy,
    masked_cross_entropy_logits,
)


def make_state(graph, **overrides):
    n, k = graph.num_nodes, graph.num_classes
    rng = np.random.default_rng(0)
    teacher_probs = rng.dirichlet(np.ones(k), size=n)
    defaults = dict(
        teacher_embeddings=np.log(teacher_probs + 1e-9),
        teacher_probs=teacher_probs,
        distill_index=np.arange(5),
        edge_src=np.array([0, 1]),
        edge_dst=np.array([2, 3]),
        gamma=1.0,
        beta=1.0,
    )
    defaults.update(overrides)
    return RDDLossState(**defaults)


def logits_for(graph, seed=1):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=(graph.num_nodes, graph.num_classes)), requires_grad=True)


class TestComposition:
    def test_reduces_to_supervised_when_terms_off(self, tiny_graph):
        logits = logits_for(tiny_graph)
        state = make_state(tiny_graph, gamma=0.0, beta=0.0)
        loss = rdd_student_loss(tiny_graph, logits, state)
        expected = masked_cross_entropy(
            ops.log_softmax(Tensor(logits.data), axis=1), tiny_graph.labels, tiny_graph.train_index
        )
        assert loss.item() == pytest.approx(expected.item())

    def test_gamma_adds_distillation_term(self, tiny_graph):
        logits = logits_for(tiny_graph)
        base = rdd_student_loss(tiny_graph, logits, make_state(tiny_graph, gamma=0.0, beta=0.0))
        with_l2 = rdd_student_loss(tiny_graph, logits_for(tiny_graph), make_state(tiny_graph, beta=0.0))
        assert with_l2.item() > base.item()

    def test_beta_adds_edge_term(self, tiny_graph):
        base = rdd_student_loss(tiny_graph, logits_for(tiny_graph), make_state(tiny_graph, gamma=0.0, beta=0.0))
        with_reg = rdd_student_loss(tiny_graph, logits_for(tiny_graph), make_state(tiny_graph, gamma=0.0, beta=5.0))
        assert with_reg.item() > base.item()

    def test_empty_distill_index_skips_l2(self, tiny_graph):
        logits = logits_for(tiny_graph)
        state = make_state(tiny_graph, distill_index=np.empty(0, dtype=np.int64), beta=0.0)
        base = make_state(tiny_graph, gamma=0.0, beta=0.0)
        assert rdd_student_loss(tiny_graph, logits, state).item() == pytest.approx(
            rdd_student_loss(tiny_graph, logits_for(tiny_graph), base).item()
        )

    def test_empty_edges_skip_reg(self, tiny_graph):
        empty = np.empty(0, dtype=np.int64)
        state = make_state(tiny_graph, gamma=0.0, edge_src=empty, edge_dst=empty)
        base = make_state(tiny_graph, gamma=0.0, beta=0.0)
        assert rdd_student_loss(tiny_graph, logits_for(tiny_graph), state).item() == pytest.approx(
            rdd_student_loss(tiny_graph, logits_for(tiny_graph), base).item()
        )

    def test_loss_is_differentiable(self, tiny_graph):
        logits = logits_for(tiny_graph)
        loss = rdd_student_loss(tiny_graph, logits, make_state(tiny_graph))
        loss.backward()
        assert logits.grad is not None
        assert np.isfinite(logits.grad).all()


class TestDistillModes:
    @pytest.mark.parametrize("mode", DISTILL_MODES)
    def test_all_modes_produce_finite_positive_terms(self, tiny_graph, mode):
        logits = logits_for(tiny_graph)
        state = make_state(tiny_graph, distill_mode=mode, beta=0.0)
        loss = rdd_student_loss(tiny_graph, logits, state)
        assert np.isfinite(loss.item())

    @pytest.mark.parametrize("mode", DISTILL_MODES)
    def test_all_modes_backprop(self, tiny_graph, mode):
        logits = logits_for(tiny_graph)
        state = make_state(tiny_graph, distill_mode=mode)
        rdd_student_loss(tiny_graph, logits, state).backward()
        assert np.isfinite(logits.grad).all()

    def test_unknown_mode_raises(self, tiny_graph):
        state = make_state(tiny_graph, distill_mode="cosine")
        with pytest.raises(ValueError):
            rdd_student_loss(tiny_graph, logits_for(tiny_graph), state)

    def test_prob_mse_zero_when_student_matches_teacher(self, tiny_graph):
        n, k = tiny_graph.num_nodes, tiny_graph.num_classes
        teacher_probs = np.full((n, k), 1.0 / k)
        logits = Tensor(np.zeros((n, k)), requires_grad=True)  # softmax → uniform
        state = make_state(
            tiny_graph, teacher_probs=teacher_probs, beta=0.0, distill_mode="prob_mse"
        )
        base = make_state(tiny_graph, gamma=0.0, beta=0.0)
        assert rdd_student_loss(tiny_graph, logits, state).item() == pytest.approx(
            rdd_student_loss(tiny_graph, Tensor(np.zeros((n, k))), base).item()
        )


def reference_sampled_loss(graph, logits, state, seeds):
    """The batch-restricted loss by sorted-array membership (the reference)."""
    k = logits.shape[1]
    loss = l1 = l2 = lreg = None
    local_train = np.flatnonzero(np.isin(seeds, graph.train_index))
    if local_train.size:
        l1 = masked_cross_entropy_logits(logits, graph.labels[seeds], local_train)
        loss = l1
    if state.gamma > 0.0 and len(state.distill_index):
        global_index = state.distill_index[np.isin(state.distill_index, seeds)]
        if global_index.size:
            l2 = _distill_term(logits, state, k, local_index=np.searchsorted(seeds, global_index),
                               teacher_index=global_index)
            term = ops.mul(l2, state.gamma)
            loss = term if loss is None else ops.add(loss, term)
    if state.beta > 0.0 and len(state.edge_src):
        both = np.isin(state.edge_src, seeds) & np.isin(state.edge_dst, seeds)
        if both.any():
            lreg = edge_regularization(logits, np.searchsorted(seeds, state.edge_src[both]),
                                       np.searchsorted(seeds, state.edge_dst[both]))
            term = ops.mul(lreg, state.beta / k)
            loss = term if loss is None else ops.add(loss, term)
    state.components = {
        "L1": 0.0 if l1 is None else l1.item(),
        "L2": 0.0 if l2 is None else l2.item(),
        "Lreg": 0.0 if lreg is None else lreg.item(),
        "total": 0.0 if loss is None else loss.item(),
    }
    return loss


def batch_loss_and_grads(loss_fn, graph, state, seeds, weight, bias):
    """Loss, components and parameter gradients of a linear student."""
    w = Tensor(weight.copy(), requires_grad=True)
    b = Tensor(bias.copy(), requires_grad=True)
    logits = ops.add(ops.matmul(Tensor(graph.features[seeds]), w), b)
    loss = loss_fn(graph, logits, state, seeds)
    if loss is None:
        return None, dict(state.components), None, None
    loss.backward()
    return loss.item(), dict(state.components), w.grad.copy(), b.grad.copy()


class TestSampledLossOracle:
    @pytest.mark.parametrize("mode", DISTILL_MODES)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_property_matches_reference_bitwise(self, tiny_graph, mode, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
        n, k = tiny_graph.num_nodes, tiny_graph.num_classes
        graph = tiny_graph
        if data.draw(st.booleans(), label="shuffled_train"):
            graph = tiny_graph.with_split(rng.permutation(tiny_graph.train_index))
        seeds = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        src, dst = tiny_graph.edge_list()
        edges = rng.permutation(len(src))[: int(rng.integers(0, len(src) + 1))]
        teacher_probs = rng.dirichlet(np.ones(k), size=n)
        state = RDDLossState(
            teacher_embeddings=rng.normal(size=(n, k)),
            teacher_probs=teacher_probs,
            distill_index=rng.permutation(n)[: int(rng.integers(0, n + 1))],
            edge_src=src[edges],
            edge_dst=dst[edges],
            gamma=data.draw(st.sampled_from([0.0, 0.3, 2.0]), label="gamma"),
            beta=data.draw(st.sampled_from([0.0, 0.5, 3.0]), label="beta"),
            distill_mode=mode,
            record_components=True,
        )
        weight = rng.normal(size=(graph.num_features, k))
        bias = rng.normal(size=k)
        got = batch_loss_and_grads(sampled_rdd_student_loss, graph, state, seeds, weight, bias)
        want = batch_loss_and_grads(reference_sampled_loss, graph, state, seeds, weight, bias)
        assert got[1] == want[1]
        for mine, theirs in zip((got[0], got[2], got[3]), (want[0], want[2], want[3])):
            assert (mine is None) == (theirs is None)
            if mine is not None:
                assert np.asarray(mine).tobytes() == np.asarray(theirs).tobytes()
