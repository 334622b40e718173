"""Float32 opt-in compute: dtype propagation and accuracy tolerance.

float64 is the default and is bitwise-preserved; float32 is an opt-in
that must end up within ordinary run-to-run tolerance of the float64
result on the Cora stand-in.
"""

import numpy as np
import pytest

import repro.models as models
from repro.datasets.citation import cora_like
from repro.datasets.registry import load_dataset
from repro.evaluation.common import HarnessConfig, load_graphs, run_over_seeds, run_single_gcn
from repro.models.gcn import GCN
from repro.tensor.tensor import default_dtype, get_default_dtype

ZOO = [
    "GCN", "ResGCN", "DenseGCN", "JKNet", "GAT", "APPNP", "MLP", "SGC",
    "GraphSAGE", "NGCN", "DGCN", "LGCN", "GPNN", "ChebNet",
]


@pytest.fixture(scope="module")
def cora32():
    return cora_like(seed=0, scale=0.05).astype("float32")


class TestDtypePropagation:
    def test_load_dataset_casts_graph(self):
        graph = load_dataset("cora", seed=0, scale=0.05, dtype="float32")
        assert graph.features.dtype == np.float32
        assert graph.normalized_adjacency().dtype == np.float32

    def test_default_dtype_context(self):
        assert get_default_dtype() == np.float64
        with default_dtype("float32"):
            assert get_default_dtype() == np.float32
        assert get_default_dtype() == np.float64

    def test_default_dtype_none_is_noop(self):
        with default_dtype(None):
            assert get_default_dtype() == np.float64

    def test_model_computes_in_float32(self):
        graph = cora_like(seed=0, scale=0.05).astype("float32")
        with default_dtype("float32"):
            model = GCN(graph.num_features, graph.num_classes, np.random.default_rng(0))
        for param in model.parameters():
            assert param.data.dtype == np.float32
        assert model.predict_logits(graph).dtype == np.float32

    @pytest.mark.parametrize("name", ZOO)
    def test_zoo_model_computes_in_float32(self, cora32, name):
        # Models that build their own propagation matrix must cast it to
        # the feature dtype, or the sparse product upcasts to float64.
        with default_dtype("float32"):
            model = getattr(models, name)(
                cora32.num_features, cora32.num_classes, np.random.default_rng(0)
            )
            model.train()
            taped = model(cora32)
            logits = model.predict_logits(cora32)
        assert taped.data.dtype == np.float32
        assert logits.dtype == np.float32

    def test_float64_default_untouched(self):
        graph = cora_like(seed=0, scale=0.05)
        model = GCN(graph.num_features, graph.num_classes, np.random.default_rng(0))
        assert model.predict_logits(graph).dtype == np.float64


class TestFloat32Tolerance:
    def test_logits_close_to_float64(self):
        graph64 = cora_like(seed=0, scale=0.1)
        graph32 = graph64.astype("float32")
        model64 = GCN(graph64.num_features, graph64.num_classes, np.random.default_rng(0))
        with default_dtype("float32"):
            model32 = GCN(graph32.num_features, graph32.num_classes, np.random.default_rng(0))
        logits64 = model64.predict_logits(graph64)
        logits32 = model32.predict_logits(graph32)
        np.testing.assert_allclose(logits32, logits64, rtol=1e-4, atol=1e-4)

    def test_trained_accuracy_within_tolerance(self):
        # Train to convergence: undertrained runs are chaotically
        # sensitive to rounding (a different best-val checkpoint can
        # swing test accuracy by 10+ points); converged runs agree.
        budget = dict(scale=0.25, seeds=(0, 1), max_epochs=100, patience=20, hidden=16)
        results64 = run_over_seeds(
            run_single_gcn,
            load_graphs(HarnessConfig(dtype=None, **budget), "cora"),
            HarnessConfig(dtype=None, **budget),
        )
        results32 = run_over_seeds(
            run_single_gcn,
            load_graphs(HarnessConfig(dtype="float32", **budget), "cora"),
            HarnessConfig(dtype="float32", **budget),
        )
        acc64 = np.mean([r.test_accuracy for r in results64])
        acc32 = np.mean([r.test_accuracy for r in results32])
        # Same data, same seeds: only rounding differs.  Allow a few
        # points of slack — early stopping can pick a different epoch.
        assert abs(acc64 - acc32) < 0.05
