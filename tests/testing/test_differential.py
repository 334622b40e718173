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
import repro.core.rdd as rdd_module
from repro.training import parallel
from repro.training.trainer import Trainer, supervised_loss
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


# Taped nodes reachable from one supervised step's loss, per zoo model,
# with the fused kernels (the elementary chains tape strictly more).
FUSED_TAPED_NODES = {
    "GCN": 5,
    "SGC": 2,
    "ChebNet": 12,
    "GraphSAGE": 7,
    "NGCN": 10,
    "DGCN": 12,
    "LGCN": 26,
    "GPNN": 13,
    "ResGCN": 8,
    "DenseGCN": 6,
    "JKNet": 5,
    "GAT": 82,
    "APPNP": 45,
    "MLP": 5,
}


def taped_nodes(loss):
    """Tape nodes (op outputs, not leaves) reachable from ``loss``."""
    return sum(1 for node in loss._topological_order() if node._backward is not None)


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

    @pytest.mark.parametrize("name", MODEL_ZOO)
    def test_zoo_step_tapes_pinned_fused_node_count(self, name, graph):
        # A layer or loss that silently fell back to its elementary chain
        # would tape more nodes than the fused kernels do.
        def count():
            model = make_model(name, graph)
            model.train()
            return taped_nodes(supervised_loss(graph)(model, model(graph), 0))

        fused = count()
        with elementary_tape():
            legacy = count()
        assert fused == FUSED_TAPED_NODES[name]
        assert fused < legacy

    def test_rdd_student_step_tapes_pinned_fused_node_count(self, graph, monkeypatch):
        # The distilled student's last step carries all three Eq. 10 terms
        # (L1, L2 and Lreg).
        counts = []
        original = rdd_module.rdd_student_loss

        def counting(*args, **kwargs):
            loss = original(*args, **kwargs)
            counts.append(taped_nodes(loss))
            return loss

        monkeypatch.setattr(rdd_module, "rdd_student_loss", counting)

        def count():
            RDDTrainer(RDDConfig(num_base_models=2, max_epochs=6, patience=6)).fit(graph, seed=0)
            return counts[-1]

        fused = count()
        with elementary_tape():
            legacy = count()
        assert fused == 21
        assert fused < legacy
