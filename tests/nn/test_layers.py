"""Tests for the neural layers: Linear, GraphConvolution, GraphAttention, Dropout."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graph.normalize import gcn_normalize
from repro.nn import Dropout, GraphAttention, GraphConvolution, Linear
from repro.nn.layers import _segment_softmax
from repro.tensor import Tensor, check_gradients, ops


class TestLinear:
    def test_output_shape(self, rng):
        layer = Linear(4, 3, rng)
        assert layer(np.ones((5, 4))).shape == (5, 3)

    def test_accepts_sparse_features(self, rng):
        layer = Linear(6, 2, rng)
        features = sp.random(4, 6, density=0.5, random_state=0, format="csr")
        dense_out = layer(features.toarray()).data
        sparse_out = layer(features).data
        np.testing.assert_allclose(dense_out, sparse_out)

    def test_gradcheck(self, rng):
        layer = Linear(3, 2, rng)
        x = Tensor(rng.normal(size=(4, 3)))
        check_gradients(lambda: ops.sum(ops.mul(layer(x), layer(x))), layer.parameters())


class TestGraphConvolution:
    def test_identity_adjacency_reduces_to_linear(self, rng):
        layer = GraphConvolution(3, 2, rng)
        adj = sp.identity(4, format="csr")
        x = rng.normal(size=(4, 3))
        expected = x @ layer.weight.data + layer.bias.data
        np.testing.assert_allclose(layer(adj, x).data, expected)

    def test_propagates_neighbor_information(self, rng):
        # Node 0's output must depend on node 1's features via the edge.
        adj = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        norm = gcn_normalize(adj)
        layer = GraphConvolution(2, 2, rng)
        x1 = np.array([[1.0, 0.0], [0.0, 0.0]])
        x2 = np.array([[1.0, 0.0], [5.0, 5.0]])
        out1 = layer(norm, x1).data
        out2 = layer(norm, x2).data
        assert not np.allclose(out1[0], out2[0])

    def test_gradcheck_through_propagation(self, rng):
        adj = gcn_normalize(sp.csr_matrix(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)))
        layer = GraphConvolution(2, 2, rng)
        x = Tensor(rng.normal(size=(3, 2)))
        check_gradients(lambda: ops.sum(ops.mul(layer(adj, x), layer(adj, x))), layer.parameters())


class TestGraphAttention:
    def _ring(self, n=5):
        src = np.arange(n)
        dst = (src + 1) % n
        edge_src = np.concatenate([src, dst, np.arange(n)])
        edge_dst = np.concatenate([dst, src, np.arange(n)])
        return edge_src, edge_dst

    def test_output_shape(self, rng):
        layer = GraphAttention(4, 3, rng)
        edge_src, edge_dst = self._ring()
        out = layer(edge_src, edge_dst, rng.normal(size=(5, 4)))
        assert out.shape == (5, 3)

    def test_attention_weights_normalize_per_destination(self, rng):
        edge_src, edge_dst = self._ring()
        logits = Tensor(rng.normal(size=(len(edge_src), 1)), requires_grad=True)
        weights = _segment_softmax(logits, edge_dst, 5)
        sums = np.zeros(5)
        np.add.at(sums, edge_dst, weights.data.ravel())
        np.testing.assert_allclose(sums, np.ones(5))

    def test_segment_softmax_handles_extreme_logits(self, rng):
        seg = np.array([0, 0, 1])
        logits = Tensor(np.array([[1000.0], [1000.0], [-1000.0]]))
        weights = _segment_softmax(logits, seg, 2)
        np.testing.assert_allclose(weights.data.ravel(), [0.5, 0.5, 1.0])

    def test_gradcheck(self, rng):
        layer = GraphAttention(2, 2, rng)
        edge_src, edge_dst = self._ring(4)
        x = Tensor(rng.normal(size=(4, 2)))
        check_gradients(
            lambda: ops.sum(ops.mul(layer(edge_src, edge_dst, x), 2.0)),
            layer.parameters(),
            atol=1e-4,
        )


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        layer = Dropout(0.5, rng)
        layer.eval()
        x = Tensor(np.ones((3, 3)))
        assert layer(x) is x

    def test_train_mode_zeroes_and_rescales(self):
        layer = Dropout(0.4, np.random.default_rng(0))
        out = layer(Tensor(np.ones((300, 300))))
        kept = out.data[out.data > 0]
        assert np.allclose(kept, 1.0 / 0.6)
        assert out.data.mean() == pytest.approx(1.0, abs=0.02)

    def test_sparse_passthrough_in_eval(self, rng):
        layer = Dropout(0.5, rng)
        layer.eval()
        features = sp.identity(4, format="csr")
        assert layer(features) is features

    def test_sparse_dropout_preserves_expectation(self):
        layer = Dropout(0.5, np.random.default_rng(1))
        features = sp.csr_matrix(np.ones((100, 100)))
        out = layer(features)
        assert sp.issparse(out)
        assert out.sum() / (100 * 100) == pytest.approx(1.0, abs=0.05)

    def test_invalid_rate_raises(self, rng):
        with pytest.raises(ValueError):
            Dropout(1.0, rng)

    IDENTITY_INPUTS = {
        "ndarray": lambda: np.ones((4, 3), dtype=np.float32),
        "tensor": lambda: Tensor(np.ones((4, 3))),
        "csr": lambda: sp.identity(4, format="csr"),
    }

    @pytest.mark.parametrize("kind", sorted(IDENTITY_INPUTS))
    @pytest.mark.parametrize("mode", ["eval", "rate_zero"])
    def test_identity_returns_input_and_draws_nothing(self, kind, mode):
        # Whenever dropout is the identity it returns its input object
        # itself: no Tensor wrap (which would cast float32 features to
        # the process default dtype) and no rng draw.
        rng = np.random.default_rng(7)
        if mode == "eval":
            layer = Dropout(0.5, rng)
            layer.eval()
        else:
            layer = Dropout(0.0, rng)  # training mode
        x = self.IDENTITY_INPUTS[kind]()
        state = rng.bit_generator.state
        assert layer(x) is x
        assert rng.bit_generator.state == state
