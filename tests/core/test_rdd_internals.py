"""White-box tests of the RDD trainer's per-epoch mechanics."""

import numpy as np
import pytest

from repro.core import RDDConfig, RDDTrainer
from repro.core.losses import RDDLossState
from repro.models import GCN
from repro.training import make_rng


class _Spy:
    """Wraps the RDD loss state access to observe per-epoch values."""

    def __init__(self):
        self.gammas = []
        self.distill_sizes = []
        self.edge_counts = []


def _run_with_spy(graph, config, seed=0):
    """Run RDD while intercepting every per-epoch loss-state snapshot."""
    spy = _Spy()
    trainer = RDDTrainer(config)

    import repro.core.rdd as rdd_module

    true_loss = rdd_module.rdd_student_loss

    def spying_loss(g, logits, state: RDDLossState):
        spy.gammas.append(state.gamma)
        spy.distill_sizes.append(len(state.distill_index))
        spy.edge_counts.append(len(state.edge_src))
        return true_loss(g, logits, state)

    rdd_module.rdd_student_loss = spying_loss
    try:
        result = trainer.fit(graph, seed=seed)
    finally:
        rdd_module.rdd_student_loss = true_loss
    return result, spy


class TestPerEpochMechanics:
    def test_gamma_follows_cosine_ramp(self, tiny_graph):
        config = RDDConfig(num_base_models=2, max_epochs=30, patience=30, hidden=8)
        _, spy = _run_with_spy(tiny_graph, config)
        gammas = spy.gammas
        assert len(gammas) > 5
        # Starts near zero and is non-decreasing over the student's epochs.
        assert gammas[0] == pytest.approx(0.0, abs=1e-9)
        assert all(b >= a - 1e-12 for a, b in zip(gammas, gammas[1:]))
        assert gammas[-1] > 0.0

    def test_reliability_sets_refresh_every_epoch(self, tiny_graph):
        config = RDDConfig(num_base_models=2, max_epochs=20, patience=20, hidden=8)
        _, spy = _run_with_spy(tiny_graph, config)
        # The distillation set is rank-based, so it is always ~p% of nodes;
        # what matters is that it exists and stays bounded.
        assert all(0 <= n <= tiny_graph.num_nodes for n in spy.distill_sizes)
        assert any(n > 0 for n in spy.distill_sizes)

    def test_no_edge_computation_when_lreg_disabled(self, tiny_graph):
        config = RDDConfig(num_base_models=2, max_epochs=10, patience=10, hidden=8, use_lreg=False)
        _, spy = _run_with_spy(tiny_graph, config)
        assert all(n == 0 for n in spy.edge_counts)

    def test_edges_present_when_lreg_enabled(self, tiny_graph):
        config = RDDConfig(num_base_models=2, max_epochs=15, patience=15, hidden=8)
        _, spy = _run_with_spy(tiny_graph, config)
        assert any(n > 0 for n in spy.edge_counts)


class TestTeacherEvolution:
    def test_teacher_probs_fixed_during_one_student(self, tiny_graph):
        # The teacher is the ensemble of *previous* students; it must not
        # change while the current student trains.
        config = RDDConfig(num_base_models=2, max_epochs=10, patience=10, hidden=8)
        trainer = RDDTrainer(config)

        import repro.core.rdd as rdd_module

        snapshots = []
        true_loss = rdd_module.rdd_student_loss

        def spying_loss(g, logits, state):
            snapshots.append(state.teacher_embeddings)
            return true_loss(g, logits, state)

        rdd_module.rdd_student_loss = spying_loss
        try:
            trainer.fit(tiny_graph, seed=0)
        finally:
            rdd_module.rdd_student_loss = true_loss
        # All snapshots within the single distilled student share one array.
        assert all(s is snapshots[0] for s in snapshots)

    def test_first_student_never_distills(self, tiny_graph):
        config = RDDConfig(num_base_models=1, max_epochs=10, hidden=8)
        result, spy = _run_with_spy(tiny_graph, config)
        # With a single base model there is no teacher, hence no RDD loss calls.
        assert spy.gammas == []
        assert len(result.base_test_accuracies) == 1


class _CountingGCN(GCN):
    """GCN whose every full-graph forward bumps a shared counter."""

    def __init__(self, *args, counter, **kwargs):
        super().__init__(*args, **kwargs)
        self._counter = counter

    def forward(self, graph):
        self._counter[0] += 1
        return super().forward(graph)


class TestForwardsPerEpoch:
    def test_distilled_student_runs_two_full_graph_forwards_per_epoch(self, small_citation):
        # The reliability refresh reuses the trainer's validation logits,
        # so each epoch runs one training and one validation forward; the
        # epoch-0 bootstrap and the best-checkpoint restore add one each.
        epochs = 12
        counters = []

        def factory(graph, rng):
            counters.append([0])
            return _CountingGCN(
                graph.num_features, graph.num_classes, rng, hidden=16, dropout=0.5,
                counter=counters[-1],
            )

        config = RDDConfig(num_base_models=2, max_epochs=epochs, patience=epochs)
        result = RDDTrainer(config, model_factory=factory).fit(small_citation, seed=0)
        assert result.base_results[1].epochs_run == epochs
        assert counters[1][0] == 2 * epochs + 2 == 26
