"""Differential tests: independent execution paths must agree bitwise.

Two families of redundancy exist in the runtime and both are easy to
break silently:

* every model has a taped forward (autodiff tape built, used in
  training) and a no-grad inference path (``predict_logits``, through
  the layers' raw-ndarray branches) — the two must produce identical
  logits, or evaluation would diverge from what training optimized;
* the multi-seed harness has a serial path and a process-pool path —
  with per-task spawned generators they must produce identical results,
  or ``--workers`` would change the science.
"""

import multiprocessing

import numpy as np
import pytest

from repro import models
from repro.datasets.citation import cora_like
from repro.evaluation.common import HarnessConfig, load_graphs, run_over_seeds, run_rdd
from repro.models.base import softmax_rows
from repro.core import RDDConfig, RDDTrainer
from repro.training import parallel
from repro.training.trainer import Trainer
from repro.training.records import results_bitwise_equal
from tests.elementary_tape import elementary_tape

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

# Every graph model in the zoo, by exported name (all share the
# (num_features, num_classes, rng, ...) constructor contract).
MODEL_ZOO = [
    "GCN",
    "SGC",
    "ChebNet",
    "GraphSAGE",
    "NGCN",
    "DGCN",
    "LGCN",
    "GPNN",
    "ResGCN",
    "DenseGCN",
    "JKNet",
    "GAT",
    "APPNP",
    "MLP",
]


@pytest.fixture(scope="module")
def graph():
    return cora_like(seed=0, scale=0.05)


def make_model(name, graph, seed=0):
    cls = getattr(models, name)
    return cls(graph.num_features, graph.num_classes, np.random.default_rng(seed))


class TestFusedVsTapedForward:
    @pytest.mark.parametrize("name", MODEL_ZOO)
    def test_no_grad_inference_matches_taped_forward_bitwise(self, name, graph):
        model = make_model(name, graph)
        model.eval()
        taped = model(graph).data  # grad enabled: the full tape is built
        fused = model.predict_logits(graph)  # no_grad / fused kernels
        np.testing.assert_array_equal(taped, fused)
        assert taped.dtype == fused.dtype

    @pytest.mark.parametrize("name", MODEL_ZOO)
    def test_predict_helpers_derive_from_the_same_logits(self, name, graph):
        model = make_model(name, graph)
        logits = model.predict_logits(graph)
        np.testing.assert_array_equal(model.predict_proba(graph), softmax_rows(logits))
        np.testing.assert_array_equal(model.predict(graph), logits.argmax(axis=1))

    def test_predict_logits_restores_training_mode(self, graph):
        model = make_model("GCN", graph)
        model.train()
        model.predict_logits(graph)
        assert model.training

    def test_inference_is_repeatable(self, graph):
        # No hidden RNG draw may happen on the inference path.
        model = make_model("GCN", graph)
        np.testing.assert_array_equal(model.predict_logits(graph), model.predict_logits(graph))


@pytest.mark.skipif(not HAS_FORK, reason="process-pool parity requires fork start method")
class TestWorkerCountParity:
    def test_workers_2_matches_workers_1_bitwise(self, monkeypatch):
        monkeypatch.setattr(parallel, "available_cores", lambda: 2)
        budget = dict(scale=0.05, seeds=(0, 1, 2), num_base_models=2,
                      max_epochs=4, patience=4, hidden=8)
        graphs = load_graphs(HarnessConfig(**budget), "cora")

        serial = run_over_seeds(run_rdd, graphs, HarnessConfig(workers=1, **budget))
        pooled = run_over_seeds(run_rdd, graphs, HarnessConfig(workers=2, **budget))

        assert len(serial) == len(pooled) == 3
        for a, b in zip(serial, pooled):
            assert results_bitwise_equal(a, b)


class TestFusedVsLegacyTraining:
    """The fused training-step kernels must leave every trained model
    bitwise identical to the legacy op-by-op tape (the elementary chains
    of ``tests/elementary_tape.py``) — the guarantee that lets the fused
    kernels be the only taped path."""

    @pytest.mark.parametrize("name", MODEL_ZOO)
    def test_zoo_trains_bitwise_identical(self, name, graph):
        def train():
            model = make_model(name, graph)
            trainer = Trainer(max_epochs=8, patience=8, record_history=True)
            return trainer.fit(model, graph)

        fused = train()
        with elementary_tape():
            legacy = train()
        assert results_bitwise_equal(fused, legacy)

    def test_rdd_trains_bitwise_identical(self, graph):
        def run():
            config = RDDConfig(
                num_base_models=2, max_epochs=6, patience=6, hidden=8, record_history=True
            )
            return RDDTrainer(config).fit(graph, seed=0)

        fused = run()
        with elementary_tape():
            legacy = run()
        assert results_bitwise_equal(fused, legacy)
