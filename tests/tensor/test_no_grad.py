"""Tests for the ``no_grad`` inference mode.

The contract: logits computed under ``no_grad`` are bitwise identical to
the taped forward, no tape is retained, grad mode is restored on exit,
and gradcheck (the autodiff ground truth) still passes outside the
context.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.datasets.citation import cora_like
from repro.graph.graph import Graph
from repro.models.gcn import GCN
from repro.tensor import Tensor, check_gradients, ops
from repro.tensor.sparse import (
    cached_transpose,
    sparse_dense_matmul,
    sparse_feature_matmul,
    spmm,
)
from repro.tensor.tensor import default_dtype, enable_grad, is_grad_enabled, no_grad

RNG = np.random.default_rng(11)


def _param(shape):
    return Tensor(RNG.normal(size=shape), requires_grad=True)


class TestGradMode:
    def test_default_enabled(self):
        assert is_grad_enabled()

    def test_no_grad_disables_and_restores(self):
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_nesting(self):
        with no_grad():
            with enable_grad():
                assert is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert is_grad_enabled()

    def test_grad_mode_is_thread_local(self):
        # A worker thread holding no_grad open must not flip grad mode on
        # the main thread, and vice versa.
        import threading

        entered = threading.Event()
        release = threading.Event()
        seen = {}

        def worker():
            with no_grad():
                seen["inside"] = is_grad_enabled()
                entered.set()
                release.wait(timeout=10)
            seen["after"] = is_grad_enabled()

        t = threading.Thread(target=worker)
        t.start()
        assert entered.wait(timeout=10)
        assert is_grad_enabled()  # main thread unaffected
        with no_grad():
            pass
        release.set()
        t.join(timeout=10)
        assert seen == {"inside": False, "after": True}
        assert is_grad_enabled()

    def test_interleaved_threads_cannot_leak_disabled_state(self):
        # Regression: with a process-wide flag, exits interleaved across
        # threads (A enter, B enter, A exit, B exit) restored a stale
        # snapshot and left grad mode off for the whole process.
        import threading

        barrier_in = threading.Barrier(2, timeout=10)
        barrier_out = threading.Barrier(2, timeout=10)

        def worker():
            ctx = no_grad()
            ctx.__enter__()
            barrier_in.wait()
            barrier_out.wait()
            ctx.__exit__(None, None, None)

        t = threading.Thread(target=worker)
        t.start()
        ctx = no_grad()
        ctx.__enter__()
        barrier_in.wait()
        ctx.__exit__(None, None, None)
        barrier_out.wait()
        t.join(timeout=10)
        assert is_grad_enabled()


class TestNoTapeRetained:
    def test_elementwise_op_builds_no_tape(self):
        a = _param((3, 4))
        with no_grad():
            out = ops.mul(ops.add(a, a), 2.0)
        assert out._backward is None
        assert out._parents == ()
        assert not out.requires_grad

    def test_matmul_builds_no_tape(self):
        a, b = _param((3, 4)), _param((4, 2))
        with no_grad():
            out = ops.matmul(a, b)
        assert out._backward is None and out._parents == ()

    def test_spmm_builds_no_tape(self):
        matrix = sp.random(6, 6, density=0.4, random_state=3, format="csr")
        dense = _param((6, 2))
        with no_grad():
            out = spmm(matrix, dense)
        assert out._backward is None and out._parents == ()

    def test_sparse_feature_matmul_builds_no_tape(self):
        features = sp.random(5, 8, density=0.4, random_state=4, format="csr")
        weight = _param((8, 3))
        with no_grad():
            out = sparse_feature_matmul(features, weight)
        assert out._backward is None and out._parents == ()

    def test_backward_raises_on_no_grad_output(self):
        a = _param((2, 2))
        with no_grad():
            out = ops.sum(ops.mul(a, a))
        with pytest.raises(RuntimeError):
            out.backward()


class TestInferenceParity:
    def test_model_logits_identical(self):
        graph = cora_like(seed=0, scale=0.05)
        model = GCN(graph.num_features, graph.num_classes, np.random.default_rng(0))
        model.eval()
        with enable_grad():
            taped = model(graph).data
        untaped = model.predict_logits(graph)
        assert np.array_equal(taped, untaped)

    def test_layered_and_fused_inference_identical(self):
        # The generic layer-by-layer no_grad path must match the model's
        # eval forward bitwise.
        graph = cora_like(seed=1, scale=0.05)
        model = GCN(graph.num_features, graph.num_classes, np.random.default_rng(1))
        model.eval()
        adjacency = graph.normalized_adjacency()
        with no_grad():
            h = model.layers[0](adjacency, graph.features)
            h = model.layers[1](adjacency, ops.relu(h))
            layered = h.data
        assert np.array_equal(layered, model.predict_logits(graph))

    def test_training_mode_under_no_grad_keeps_dropout(self):
        # no_grad does not imply eval: a training-mode forward must still
        # apply dropout (i.e. differ from the eval forward).
        graph = cora_like(seed=0, scale=0.05)
        model = GCN(graph.num_features, graph.num_classes, np.random.default_rng(0))
        eval_logits = model.predict_logits(graph)
        model.train()
        with no_grad():
            train_logits = model(graph).data
        assert not np.array_equal(eval_logits, train_logits)


def _raw_inference_reference(model: GCN, graph: Graph) -> np.ndarray:
    """The raw-ndarray eval forward GCN used to carry as a second copy
    (``GCN._inference``), kept verbatim as the reference for the one
    forward that replaced it."""
    adjacency = graph.normalized_adjacency()
    h = graph.features
    last = len(model.layers) - 1
    for i, layer in enumerate(model.layers):
        if sp.issparse(h):
            support = sparse_dense_matmul(h.tocsr(), layer.weight.data)
        else:
            support = h @ layer.weight.data
        h = sparse_dense_matmul(adjacency, support)
        if layer.bias is not None:
            h += layer.bias.data
        if i < last:
            np.maximum(h, 0.0, out=h)
    return h


class TestEvalForwardMatchesRawReference:
    """``GCN.predict_logits`` runs the model's one forward through the
    layers' ``no_grad`` branches; it must equal the raw reference in
    value, sign bit and dtype — for models built under a non-default
    dtype and evaluated outside it, as serving does."""

    @pytest.fixture(scope="class")
    def graphs(self):
        sparse = cora_like(seed=2, scale=0.05)
        dense = Graph(
            sparse.adjacency,
            sparse.features.toarray(),
            sparse.labels,
            sparse.train_index,
            sparse.val_index,
            sparse.test_index,
        )
        return {"sparse": sparse, "dense": dense}

    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    @pytest.mark.parametrize("layout", ["dense", "sparse"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_predict_logits_matches_reference(self, graphs, dtype, layout, num_layers):
        graph = graphs[layout].astype(dtype)
        with default_dtype(dtype):
            model = GCN(
                graph.num_features,
                graph.num_classes,
                np.random.default_rng(num_layers),
                hidden=8,
                num_layers=num_layers,
            )
        logits = model.predict_logits(graph)
        reference = _raw_inference_reference(model, graph)
        assert logits.dtype == reference.dtype == dtype
        assert np.array_equal(logits, reference)
        assert np.array_equal(np.signbit(logits), np.signbit(reference))


class TestGradcheckOutsideContext:
    def test_gradcheck_after_no_grad(self):
        a = _param((3, 3))
        with no_grad():
            ops.sum(ops.mul(a, a))  # build nothing
        check_gradients(lambda: ops.sum(ops.mul(a, a)), [a])

    def test_spmm_gradcheck_after_no_grad(self):
        matrix = sp.random(5, 5, density=0.5, random_state=6, format="csr")
        dense = _param((5, 3))
        with no_grad():
            spmm(matrix, dense)
        check_gradients(lambda: ops.sum(spmm(matrix, dense)), [dense])


class TestSparseKernelHelpers:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("fmt", ["csr", "csc"])
    def test_sparse_dense_matmul_matches_operator(self, dtype, fmt):
        rng = np.random.default_rng(5)
        matrix = sp.random(
            9, 7, density=0.3, random_state=5, format=fmt, dtype=np.float64
        ).astype(dtype)
        dense = rng.normal(size=(7, 4)).astype(dtype)
        out = sparse_dense_matmul(matrix, dense)
        assert out.dtype == dtype
        assert np.array_equal(out, np.asarray(matrix @ dense))

    def test_sparse_dense_matmul_dtype_mismatch_falls_back(self):
        rng = np.random.default_rng(5)
        matrix = sp.random(4, 4, density=0.5, random_state=5, format="csr")
        dense = rng.normal(size=(4, 2)).astype(np.float32)
        out = sparse_dense_matmul(matrix, dense)  # f64 matrix, f32 dense
        assert np.array_equal(out, np.asarray(matrix @ dense))

    def test_cached_transpose_matches_and_memoizes(self):
        matrix = sp.random(6, 4, density=0.5, random_state=8, format="csr")
        first = cached_transpose(matrix)
        assert (first != matrix.T).nnz == 0
        assert cached_transpose(matrix) is first
