"""SampledTrainer: contract, determinism, and the differential battery.

The differential tests pin the design invariant that makes mini-batch
training trustworthy here: with every fanout covering the full neighbor
list, one batch spanning the whole seed pool, and dropout disabled, the
sampled path must reproduce full-batch training — blocks are bitwise
rows of the global Â (see ``tests/sampling/test_blocks.py``), so the
only drift is sub-ulp summation-order noise inside spmm.
"""

import numpy as np
import pytest

from repro.core.config import RDDConfig
from repro.core.rdd import RDDTrainer
from repro.datasets import load_dataset
from repro.errors import TrainingError
from repro.evaluation.common import HarnessConfig, run_rdd
from repro.models.gcn import GCN
from repro.models.graphsage import GraphSAGE
from repro.tensor.tensor import default_dtype
from repro.training.sampled import SampledTrainer, SamplingPlan, sampled_supervised_loss
from repro.training.trainer import Trainer


def make_gcn(graph, seed=3, dropout=0.0):
    return GCN(
        graph.num_features,
        graph.num_classes,
        np.random.default_rng(seed),
        hidden=16,
        dropout=dropout,
    )


def make_sage(graph, seed=3, dropout=0.0):
    return GraphSAGE(
        graph.num_features,
        graph.num_classes,
        np.random.default_rng(seed),
        hidden=16,
        dropout=dropout,
    )


def full_fanouts(graph):
    max_deg = int(np.diff(graph.adjacency.indptr).max())
    return (max_deg, max_deg)


class TestConstruction:
    def test_int_fanout_replicates_across_layers(self, tiny_graph):
        trainer = SampledTrainer(fanouts=4, batch_size=8, max_epochs=1)
        model = make_gcn(tiny_graph)
        assert trainer._model_fanouts(model) == (4, 4)

    def test_fanout_arity_must_match_layers(self, tiny_graph):
        trainer = SampledTrainer(fanouts=(3, 3, 3), batch_size=8, max_epochs=1)
        with pytest.raises(TrainingError, match="fanouts"):
            trainer._model_fanouts(make_gcn(tiny_graph))

    def test_validation(self):
        with pytest.raises(TrainingError):
            SampledTrainer(fanouts=())
        with pytest.raises(TrainingError):
            SampledTrainer(fanouts=(3, 0))
        with pytest.raises(TrainingError):
            SampledTrainer(batch_size=0)

    def test_needs_layered_model(self, tiny_graph):
        class Opaque:
            pass

        gcn = make_gcn(tiny_graph)

        class NoLayerLoop:
            # A GCN's members, except the layer loop.
            layers, dropout = gcn.layers, gcn.dropout

            def block_adjacency(self, block):
                return block.adjacency

        for model in (Opaque(), NoLayerLoop()):
            with pytest.raises(TrainingError, match="layers"):
                SampledTrainer(max_epochs=1)._model_fanouts(model)


class TestTrainingLoop:
    def test_fit_trains_and_reports(self, tiny_graph):
        model = make_gcn(tiny_graph, dropout=0.5)
        result = SampledTrainer(
            fanouts=(3, 3), batch_size=5, sample_seed=0, max_epochs=12, patience=50
        ).fit(model, tiny_graph)
        assert result.epochs_run == 12
        assert result.test_accuracy > 0.6  # two-block graph is easy

    def test_deterministic_across_runs(self, tiny_graph):
        results = []
        for _ in range(2):
            model = make_gcn(tiny_graph, dropout=0.5)
            results.append(
                SampledTrainer(
                    fanouts=(3, 3), batch_size=5, sample_seed=7, max_epochs=6, patience=50
                ).fit(model, tiny_graph)
            )
        np.testing.assert_array_equal(results[0].predictions, results[1].predictions)
        assert results[0].test_accuracy == results[1].test_accuracy

    def test_sample_seed_changes_trajectory(self, tiny_graph):
        preds = []
        for sample_seed in (0, 1):
            model = make_gcn(tiny_graph, dropout=0.5)
            preds.append(
                SampledTrainer(
                    fanouts=(2, 2), batch_size=4, sample_seed=sample_seed,
                    max_epochs=6, patience=50,
                ).fit(model, tiny_graph).predictions
            )
        assert not np.array_equal(preds[0], preds[1])

    def test_none_loss_skips_batch(self, tiny_graph):
        model = make_gcn(tiny_graph)
        before = {k: v.copy() for k, v in model.state_dict().items()}
        result = SampledTrainer(
            fanouts=(3, 3), batch_size=8, max_epochs=2, patience=50
        ).fit(model, tiny_graph, loss_fn=lambda m, logits, seeds, epoch: None)
        after = model.state_dict()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key])
        assert result.epochs_run == 2

    def test_plan_fn_controls_seed_pool(self, tiny_graph):
        seen = []

        def loss_fn(model, logits, seeds, epoch):
            seen.append(np.asarray(seeds))
            return sampled_supervised_loss(tiny_graph)(model, logits, seeds, epoch)

        pool = tiny_graph.train_index[:4]
        SampledTrainer(fanouts=(3, 3), batch_size=2, max_epochs=2, patience=50).fit(
            make_gcn(tiny_graph), tiny_graph,
            loss_fn=loss_fn,
            plan_fn=lambda epoch: SamplingPlan(seeds=pool),
        )
        visited = np.unique(np.concatenate(seen))
        np.testing.assert_array_equal(visited, np.sort(pool))

    def test_record_history(self, tiny_graph):
        result = SampledTrainer(
            fanouts=(3, 3), batch_size=8, max_epochs=3, patience=50, record_history=True
        ).fit(make_gcn(tiny_graph), tiny_graph)
        assert len(result.history) == 3
        assert {"epoch", "loss", "val_accuracy"} <= set(result.history[0])


class TestDifferentialGCN:
    """Full fanout + one batch + dropout 0 == full-batch training."""

    def test_matches_full_batch_trainer(self, small_citation):
        g = small_citation
        sampled = SampledTrainer(
            fanouts=full_fanouts(g), batch_size=g.num_nodes, sample_seed=0,
            max_epochs=12, patience=50,
        ).fit(make_gcn(g), g, loss_fn=sampled_supervised_loss(g))
        full = Trainer(max_epochs=12, patience=50).fit(make_gcn(g), g)
        np.testing.assert_allclose(
            sampled.predictions, full.predictions, rtol=0, atol=1e-12
        )
        assert sampled.test_accuracy == full.test_accuracy
        assert sampled.val_accuracy == full.val_accuracy
        assert sampled.best_epoch == full.best_epoch

    def test_matches_on_two_block_graph(self, tiny_graph):
        sampled = SampledTrainer(
            fanouts=full_fanouts(tiny_graph), batch_size=tiny_graph.num_nodes,
            sample_seed=0, max_epochs=8, patience=50,
        ).fit(make_gcn(tiny_graph), tiny_graph)
        full = Trainer(max_epochs=8, patience=50).fit(make_gcn(tiny_graph), tiny_graph)
        np.testing.assert_allclose(
            sampled.predictions, full.predictions, rtol=0, atol=1e-12
        )
        assert sampled.test_accuracy == full.test_accuracy


class TestDifferentialSAGE:
    """GraphSAGE through the same loop: its blocks aggregate with
    ``GraphSAGE.block_adjacency`` instead of the block's Â."""

    @pytest.mark.parametrize("graph_name", ["tiny_graph", "small_citation"])
    def test_matches_full_batch_trainer(self, request, graph_name):
        g = request.getfixturevalue(graph_name)
        sampled = SampledTrainer(
            fanouts=full_fanouts(g), batch_size=g.num_nodes, sample_seed=0,
            max_epochs=12, patience=50,
        ).fit(make_sage(g), g)
        full = Trainer(max_epochs=12, patience=50).fit(make_sage(g), g)
        np.testing.assert_allclose(
            sampled.predictions, full.predictions, rtol=0, atol=1e-12
        )
        assert sampled.test_accuracy == full.test_accuracy
        assert sampled.val_accuracy == full.val_accuracy
        assert sampled.best_epoch == full.best_epoch


class TestFloat32:
    """On a float32 graph under a float32 default, the students' taped
    forward stays in float32: blocks carry the graph's Â dtype."""

    @pytest.mark.parametrize("factory", [make_gcn, make_sage])
    def test_taped_block_logits_are_float32(self, small_citation, factory):
        g = small_citation.astype("float32")
        dtypes = []

        def loss_fn(model, logits, seeds, epoch):
            dtypes.append(logits.data.dtype)
            return sampled_supervised_loss(g)(model, logits, seeds, epoch)

        with default_dtype("float32"):
            SampledTrainer(fanouts=(3, 3), batch_size=64, max_epochs=1).fit(
                factory(g), g, loss_fn=loss_fn
            )
        assert dtypes and set(dtypes) == {np.dtype(np.float32)}

    @pytest.mark.parametrize("factory", [make_gcn, make_sage])
    def test_full_fanout_matches_full_batch_trainer(self, small_citation, factory):
        g = small_citation.astype("float32")
        with default_dtype("float32"):
            sampled = SampledTrainer(
                fanouts=full_fanouts(g), batch_size=g.num_nodes, sample_seed=0,
                max_epochs=12, patience=50,
            ).fit(factory(g), g)
            full = Trainer(max_epochs=12, patience=50).fit(factory(g), g)
        assert sampled.predictions.dtype == full.predictions.dtype == np.float32
        np.testing.assert_allclose(sampled.predictions, full.predictions, rtol=0, atol=1e-6)
        assert sampled.test_accuracy == full.test_accuracy


class TestDifferentialRDD:
    """Sampled RDD students reduce to full-batch RDD at full coverage."""

    def test_matches_full_batch_rdd(self, small_citation):
        g = small_citation
        base = dict(num_base_models=2, max_epochs=8, patience=50, hidden=16, dropout=0.0)
        full = RDDTrainer(RDDConfig(**base)).fit(g, seed=0)
        sampled = RDDTrainer(
            RDDConfig(
                sampler="neighbor", fanouts=full_fanouts(g), batch_size=g.num_nodes, **base
            )
        ).fit(g, seed=0)
        assert sampled.base_test_accuracies == full.base_test_accuracies
        assert sampled.ensemble_test_accuracy == full.ensemble_test_accuracy
        assert sampled.ensemble_val_accuracy == full.ensemble_val_accuracy


class TestSampledRDD:
    def test_real_fanouts_train_and_are_deterministic(self, tiny_graph):
        config = RDDConfig(
            num_base_models=2, max_epochs=8, patience=50, hidden=16,
            sampler="neighbor", fanouts=(3, 3), batch_size=10,
        )
        first = RDDTrainer(config).fit(tiny_graph, seed=0)
        second = RDDTrainer(config).fit(tiny_graph, seed=0)
        assert first.ensemble_test_accuracy == second.ensemble_test_accuracy
        assert first.base_test_accuracies == second.base_test_accuracies
        assert 0.0 <= first.ensemble_test_accuracy <= 1.0

    def test_reliability_sampling_toggle_changes_trajectory(self, tiny_graph):
        base = dict(
            num_base_models=2, max_epochs=8, patience=50, hidden=16,
            sampler="neighbor", fanouts=(2, 2), batch_size=6,
        )
        on = RDDTrainer(RDDConfig(reliability_sampling=True, **base)).fit(tiny_graph, seed=0)
        off = RDDTrainer(RDDConfig(reliability_sampling=False, **base)).fit(tiny_graph, seed=0)
        on_preds = on.base_results[1].predictions
        off_preds = off.base_results[1].predictions
        assert not np.array_equal(on_preds, off_preds)


class TestSeedSixCollapse:
    """Self-boosting collapse at a short budget (ROADMAP item 2).

    ``train_rdd_sampled``'s configuration on data seed 6 with training
    seed 6: the third student collapses to 0.189 and drags the ensemble
    from 0.867 to 0.226.  The collapse is accepted behaviour until a guard
    against it is measured; this pins it so that no refactor moves it
    silently.  A change that fixes the collapse updates these numbers and
    says so.
    """

    def test_collapse_is_reproduced_exactly(self):
        graph = load_dataset("pubmed", seed=6, scale=1.0)
        config = HarnessConfig(
            scale=1.0, seeds=(6,), num_base_models=3, max_epochs=20, patience=20,
            sampler="neighbor", fanouts=(10, 10), batch_size=512,
        )
        result = run_rdd(graph, config, seed=6)
        assert result.base_test_accuracies == [0.731, 0.894, 0.189]
        assert result.ensemble_curve == [0.731, 0.867, 0.226]
