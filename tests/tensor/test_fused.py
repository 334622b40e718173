"""Tests for the gradient-buffer arena and the fused-kernel dispatch.

The arena promises two things: (1) steady-state training steps reuse
gradient buffers instead of allocating, and (2) its backward pass —
over repeated steps and across a changed graph structure — is bitwise
identical to plain ``Tensor.backward``.  Both are load-bearing: (1) is
the perf win, (2) is what lets every trainer step through it.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.tensor import GradArena, Tensor, fused, ops
from repro.tensor.functional import masked_cross_entropy_logits
from tests.elementary_tape import elementary_tape

RNG = np.random.default_rng(11)


def param(shape):
    return Tensor(RNG.normal(size=shape), requires_grad=True)


def small_loss(w1, w2, x, labels, index):
    h = ops.relu(ops.matmul(x, w1))
    logits = ops.matmul(h, w2)
    return masked_cross_entropy_logits(logits, labels, index)


class TestGradArenaBackward:
    def _setup(self):
        w1, w2 = param((5, 4)), param((4, 3))
        x = Tensor(RNG.normal(size=(8, 5)))
        labels = RNG.integers(0, 3, size=8)
        index = np.array([0, 2, 4, 6])
        return w1, w2, x, labels, index

    def test_matches_plain_backward_bitwise(self):
        w1, w2, x, labels, index = self._setup()
        arena = GradArena()
        with arena.record():
            loss = small_loss(w1, w2, x, labels, index)
        arena.backward(loss)
        arena_grads = [np.array(w1.grad), np.array(w2.grad)]

        w1.zero_grad(), w2.zero_grad()
        small_loss(w1, w2, x, labels, index).backward()
        assert np.array_equal(arena_grads[0], w1.grad)
        assert np.array_equal(arena_grads[1], w2.grad)

    def test_cached_schedule_is_reused_and_stays_correct(self):
        # Repeated steps over recycled buffers stay exact.
        w1, w2, x, labels, index = self._setup()
        arena = GradArena()
        for _ in range(3):
            with arena.record():
                loss = small_loss(w1, w2, x, labels, index)
            w1.zero_grad(), w2.zero_grad()
            arena.backward(loss)

        arena_grads = [np.array(w1.grad), np.array(w2.grad)]
        w1.zero_grad(), w2.zero_grad()
        small_loss(w1, w2, x, labels, index).backward()
        assert np.array_equal(arena_grads[0], w1.grad)
        assert np.array_equal(arena_grads[1], w2.grad)

    def test_schedule_invalidated_on_structure_change(self):
        w1, w2, x, labels, index = self._setup()
        arena = GradArena()
        with arena.record():
            loss = small_loss(w1, w2, x, labels, index)
        arena.backward(loss)

        # Different graph: an extra L2 term changes the op structure.
        with arena.record():
            loss = ops.add(
                small_loss(w1, w2, x, labels, index), ops.sum(ops.mul(w2, w2))
            )
        w1.zero_grad(), w2.zero_grad()
        arena.backward(loss)

        arena_grads = [np.array(w1.grad), np.array(w2.grad)]
        w1.zero_grad(), w2.zero_grad()
        ops.add(small_loss(w1, w2, x, labels, index), ops.sum(ops.mul(w2, w2))).backward()
        assert np.array_equal(arena_grads[0], w1.grad)
        assert np.array_equal(arena_grads[1], w2.grad)

    def test_buffers_recycled_across_steps(self):
        w1, w2, x, labels, index = self._setup()
        arena = GradArena()
        with arena.record():
            loss = small_loss(w1, w2, x, labels, index)
        arena.backward(loss)
        first_buffers = {id(w1.grad), id(w2.grad)}

        with arena.record():  # reclaims last step's buffers
            loss = small_loss(w1, w2, x, labels, index)
        w1.zero_grad(), w2.zero_grad()
        arena.backward(loss)
        second_buffers = {id(w1.grad), id(w2.grad)}
        # Same shapes, same dtypes: the pool hands the arrays back.
        assert first_buffers == second_buffers

    def test_fallback_for_loss_built_outside_record(self):
        w1, w2, x, labels, index = self._setup()
        arena = GradArena()
        loss = small_loss(w1, w2, x, labels, index)  # never recorded
        w1.zero_grad(), w2.zero_grad()
        arena.backward(loss)  # no record() scope: still exact
        arena_grads = [np.array(w1.grad), np.array(w2.grad)]

        w1.zero_grad(), w2.zero_grad()
        small_loss(w1, w2, x, labels, index).backward()
        assert np.array_equal(arena_grads[0], w1.grad)
        assert np.array_equal(arena_grads[1], w2.grad)

    def test_non_scalar_output_raises(self):
        w = param((3, 3))
        arena = GradArena()
        with arena.record():
            out = ops.matmul(w, w)
        with pytest.raises(Exception):
            arena.backward(out)

    def test_no_grad_output_raises(self):
        arena = GradArena()
        with pytest.raises(RuntimeError):
            arena.backward(Tensor(1.0))


class TestZeroGradSemantics:
    def test_set_to_none_default(self):
        w = param((3,))
        ops.sum(ops.mul(w, w)).backward()
        assert w.grad is not None
        w.zero_grad()
        assert w.grad is None

    def test_in_place_zero_fill(self):
        w = param((3,))
        ops.sum(ops.mul(w, w)).backward()
        buffer = w.grad
        w.zero_grad(set_to_none=False)
        assert w.grad is buffer
        assert np.all(buffer == 0.0)

    def test_zero_fill_without_grad_is_noop(self):
        w = param((3,))
        w.zero_grad(set_to_none=False)
        assert w.grad is None


class TestFusedLayerDispatch:
    def test_linear_layer_uses_fused_node(self):
        from repro.nn.layers import Linear

        layer = Linear(4, 3, np.random.default_rng(0))
        x = Tensor(RNG.normal(size=(5, 4)))
        fused_out = layer(x)
        with elementary_tape():
            legacy_out = layer(x)
        # Fused: one tape node holding all parents; legacy: an add node
        # over the matmul node.
        assert len(fused_out._parents) == 3
        assert len(legacy_out._parents) == 2
        assert np.array_equal(fused_out.data, legacy_out.data)

    def test_gcn_layer_uses_fused_node(self):
        from repro.nn.layers import GraphConvolution

        layer = GraphConvolution(4, 3, np.random.default_rng(0))
        adj = sp.random(5, 5, density=0.4, random_state=0, format="csr")
        x = Tensor(RNG.normal(size=(5, 4)))
        fused_out = layer(adj, x)
        with elementary_tape():
            legacy_out = layer(adj, x)
        assert len(fused_out._parents) == 3
        assert np.array_equal(fused_out.data, legacy_out.data)

    def test_empty_index_short_circuits(self):
        logits = param((4, 3))
        out = fused.softmax_cross_entropy(logits, np.zeros(4, dtype=np.int64), np.array([], dtype=np.int64))
        assert out.item() == 0.0


class TestFusedDropoutArena:
    def test_scratch_is_leased_and_recycled(self):
        x = Tensor(RNG.normal(size=(20, 30)))
        arena = GradArena()
        with arena.record():
            fused.dropout(x, 0.5, np.random.default_rng(1))
        # draws + mask + output, all leased from the arena pool.
        assert len(arena._in_use) == 3
        first = {id(buffer) for buffer in arena._in_use}
        with arena.record():  # reclaims, then the same shapes re-lease
            fused.dropout(x, 0.5, np.random.default_rng(1))
        assert {id(buffer) for buffer in arena._in_use} == first

    def test_identity_paths_lease_nothing(self):
        x = Tensor(RNG.normal(size=(4, 4)))
        arena = GradArena()
        with arena.record():
            assert fused.dropout(x, 0.0, np.random.default_rng(1)) is x
            assert fused.dropout(x, 0.5, np.random.default_rng(1), training=False) is x
        assert arena._in_use == []

    def test_invalid_rate_raises(self):
        x = Tensor(RNG.normal(size=(4, 4)))
        arena = GradArena()
        with arena.record():
            with pytest.raises(ValueError):
                fused.dropout(x, 1.0, np.random.default_rng(1))
