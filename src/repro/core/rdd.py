"""Reliable Data Distillation — the self-boosting trainer (Algorithm 3).

The pipeline:

1. train a plain GCN as the first student ``h_1``; weight it by
   entropy×PageRank (Eq. 12) and seed the teacher ensemble ``H_1``;
2. for ``t = 2..T``: train a fresh GCN whose loss (Eq. 10) combines the
   supervised term, distillation toward the *teacher ensemble's*
   embeddings on the reliability-filtered set ``V_b``, and Laplacian
   regularization on the reliable edges ``E_r`` — with ``V_b``/``E_r``
   recomputed every epoch from the current student's predictions
   (Algorithms 1–2) and γ annealed by Eq. 14;
3. each trained student joins the ensemble, improving the teacher for the
   next round (the "mutual-promoting cycle" of Fig. 2).

``RDDResult.ensemble_test_accuracy`` is the paper's "RDD(Ensemble)" and
``last_base_test_accuracy`` its "RDD(Single)" (the last student trained
under the strongest teacher).
"""

from __future__ import annotations

import time
from typing import List, Optional

import numpy as np

import repro.obs as obs
from repro.core.config import RDDConfig
from repro.core.ensemble import EnsembleModel, ensemble_weight
from repro.core.losses import RDDLossState, rdd_student_loss, sampled_rdd_student_loss
from repro.core.reliability import edge_reliability, node_reliability, teacher_context
from repro.graph.graph import Graph
from repro.models.base import GraphModel, softmax_rows
from repro.models.gcn import GCN
from repro.nn.schedules import cosine_annealing_gamma
from repro.tensor.functional import accuracy
from repro.training.records import EnsembleResult, TrainResult
from repro.training.sampled import SampledTrainer, SamplingPlan
from repro.training.seed import spawn_rngs
from repro.training.trainer import Trainer


class RDDResult(EnsembleResult):
    """Ensemble result extended with reliability diagnostics.

    ``reliability_time_s`` isolates the cost of the per-epoch reliability
    updates (teacher/student inference + Algorithms 1–2) — the overhead
    behind Table 9's "RDD takes roughly twice the time per model".
    """

    def __init__(
        self,
        *args,
        reliability_history: Optional[List[dict]] = None,
        reliability_time_s: float = 0.0,
        ensemble_weights: Optional[np.ndarray] = None,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self.reliability_history = reliability_history or []
        self.reliability_time_s = reliability_time_s
        # Unnormalized α_t per base model (Eq. 12): `repro export`
        # rebuilds the served teacher from them, and
        # `results_bitwise_equal` compares them across a resumed seed cell.
        self.ensemble_weights = ensemble_weights


class RDDTrainer:
    """Drives Algorithm 3 end to end on one graph.

    Parameters
    ----------
    config:
        Hyperparameters and ablation switches.
    model_factory:
        Callable ``(graph, rng) -> GraphModel`` producing each student.
        Defaults to the paper's 2-layer GCN; RDD "is not limited to the
        architecture of the base model", so any :class:`GraphModel` works.
    """

    def __init__(self, config: Optional[RDDConfig] = None, model_factory=None):
        self.config = config or RDDConfig()
        self._model_factory = model_factory or self._default_factory

    def _default_factory(self, graph: Graph, rng: np.random.Generator) -> GraphModel:
        return GCN(
            graph.num_features,
            graph.num_classes,
            rng,
            hidden=self.config.hidden,
            dropout=self.config.dropout,
        )

    # ------------------------------------------------------------------
    def fit(self, graph: Graph, seed: int = 0) -> RDDResult:
        """Run the full self-boosting loop; returns ensemble + per-model metrics.

        Each student consumes its own spawned RNG, so later students
        never depend on the position of earlier students' streams.
        """
        config = self.config
        start = time.perf_counter()
        rngs = spawn_rngs(seed, config.num_base_models)
        trainer_kwargs = dict(
            max_epochs=config.max_epochs,
            patience=config.patience,
            lr=config.lr,
            weight_decay=config.weight_decay,
            record_history=config.record_history,
        )
        if config.sampler == "neighbor":
            # Memory-bounded path: every student trains on fanout-sampled
            # blocks (the sampling streams derive from the run seed).
            trainer: Trainer = SampledTrainer(
                fanouts=config.fanouts,
                batch_size=config.batch_size,
                sample_seed=seed,
                **trainer_kwargs,
            )
        else:
            trainer = Trainer(**trainer_kwargs)
        pagerank = graph.pagerank()
        edge_src, edge_dst = graph.edge_list()

        teacher = EnsembleModel()
        base_results: List[TrainResult] = []
        base_test: List[float] = []
        ensemble_curve: List[float] = []
        reliability_history: List[dict] = []
        self._reliability_time = 0.0

        for t in range(config.num_base_models):
            model = self._model_factory(graph, rngs[t])
            with obs.span("rdd:student", student=t + 1, seed=seed) as student_span:
                if t == 0:
                    # First student: plain supervised GCN (Alg. 3 line 2).
                    result = trainer.fit(model, graph)
                else:
                    result = self._fit_student(trainer, model, graph, teacher,
                                               edge_src, edge_dst, reliability_history)
                if student_span:
                    student_span.set(
                        test_accuracy=result.test_accuracy, epochs_run=result.epochs_run
                    )
            base_results.append(result)

            # Trainer.fit already computed the best-checkpoint logits.
            logits = result.predictions
            probs = softmax_rows(logits)
            base_test.append(accuracy(probs, graph.labels, graph.test_index))
            weight = (
                ensemble_weight(probs, pagerank) if config.use_ensemble_weighting else 1.0
            )
            teacher.add(probs, logits, weight)
            ensemble_curve.append(accuracy(teacher.probs(), graph.labels, graph.test_index))
            if obs.enabled():
                obs.event(
                    "rdd_student_result",
                    student=t + 1,
                    seed=seed,
                    test_accuracy=base_test[-1],
                    ensemble_test_accuracy=ensemble_curve[-1],
                    ensemble_weight=float(weight),
                )

        ensemble_probs = teacher.probs()
        wall = time.perf_counter() - start
        return RDDResult(
            ensemble_test_accuracy=accuracy(ensemble_probs, graph.labels, graph.test_index),
            ensemble_val_accuracy=accuracy(ensemble_probs, graph.labels, graph.val_index),
            base_test_accuracies=base_test,
            base_results=base_results,
            wall_time_s=wall,
            ensemble_curve=ensemble_curve,
            reliability_history=reliability_history,
            reliability_time_s=self._reliability_time,
            ensemble_weights=teacher.raw_weights,
        )

    # ------------------------------------------------------------------
    def _fit_student(
        self,
        trainer: Trainer,
        model: GraphModel,
        graph: Graph,
        teacher: EnsembleModel,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        reliability_history: List[dict],
    ) -> TrainResult:
        """Train one student under the current teacher (Alg. 3 lines 7–18).

        Both trainers share the per-epoch reliability refresh and the
        ``rdd_epoch`` emitter; the sampled one gets a batch-restricted
        loss and a sampling plan.
        """
        config = self.config
        teacher_probs = teacher.probs()
        state = RDDLossState(
            teacher_embeddings=teacher.embeddings(),
            teacher_probs=teacher_probs,
            distill_mode=config.distill_mode,
        )
        gamma_initial = config.effective_gamma_initial()
        beta = config.effective_beta()
        # The teacher is frozen while this student trains: hoist its
        # argmax/uncertainty-threshold work out of the per-epoch refresh.
        teacher_ctx = teacher_context(
            teacher_probs,
            graph.labels,
            graph.train_index,
            p=config.p,
            use_reliability=config.use_node_reliability,
            score=config.reliability_score,
            labeled_check=config.labeled_check,
        )

        # Observability captured once per student: the per-epoch refresh
        # stashes reliability diagnostics here and the loss emits them as
        # one ``rdd_epoch`` event per epoch, alongside the L1/L2/Lreg
        # components recorded by the student loss.  Zero work when obs is
        # disabled.
        obs_on = obs.enabled()
        state.record_components = obs_on
        student_number = len(teacher) + 1
        diagnostics: dict = {}
        # Latest reliability mask, consumed by the sampled path's per-epoch
        # sampling plan (reliability-prioritized seed/neighbor selection).
        holder: dict = {}
        last_emitted = -1

        def refresh(epoch: int, student: GraphModel, eval_logits: np.ndarray) -> None:
            """Per-epoch reliability update (Alg. 3 line 7) from the
            trainer's current eval-mode logits."""
            refresh_start = time.perf_counter()
            student_probs = softmax_rows(eval_logits)
            sets = node_reliability(
                teacher_probs,
                student_probs,
                graph.labels,
                graph.train_index,
                context=teacher_ctx,
            )
            state.distill_index = sets.distill_index
            holder["reliable_mask"] = sets.reliable_mask
            student_pred = None
            if beta > 0.0 or obs_on:
                student_pred = student_probs.argmax(axis=1)
            if beta > 0.0:
                state.edge_src, state.edge_dst = edge_reliability(
                    edge_src,
                    edge_dst,
                    sets.reliable_mask,
                    student_pred,
                    use_reliability=config.use_edge_reliability,
                )
            state.gamma = cosine_annealing_gamma(gamma_initial, epoch, config.max_epochs)
            state.beta = beta
            self._reliability_time += time.perf_counter() - refresh_start
            if obs_on:
                diagnostics.update(
                    num_reliable=sets.num_reliable,
                    num_distill=sets.num_distill,
                    num_reliable_edges=int(len(state.edge_src)),
                    agreement=float(np.mean(teacher_ctx.teacher_pred == student_pred)),
                    gamma=state.gamma,
                )
            if epoch == 0:
                reliability_history.append(
                    {
                        "student": len(teacher) + 1,
                        "num_reliable": sets.num_reliable,
                        "num_distill": sets.num_distill,
                        "num_reliable_edges": int(len(state.edge_src)),
                    }
                )

        def emit_epoch_event(epoch: int) -> None:
            # One rdd_epoch event per epoch (on its first step) keeps the
            # obs report's reliability trajectory one point per epoch in
            # both training modes.
            nonlocal last_emitted
            if not obs_on or state.components is None or epoch == last_emitted:
                return
            last_emitted = epoch
            obs.event(
                "rdd_epoch",
                student=student_number,
                epoch=epoch,
                L1=state.components["L1"],
                L2=state.components["L2"],
                Lreg=state.components["Lreg"],
                loss=state.components["total"],
                **diagnostics,
            )

        def loss_fn(student: GraphModel, logits, epoch: int):
            loss = rdd_student_loss(graph, logits, state)
            emit_epoch_event(epoch)
            return loss

        if not isinstance(trainer, SampledTrainer):
            return trainer.fit(model, graph, loss_fn=loss_fn, epoch_callback=refresh)

        # Mini-batch student (sampler="neighbor"): Eq. 10 restricted to
        # each batch, over a seed pool that is the union of every node the
        # epoch's loss can touch (labeled ∪ V_b ∪ reliable edge
        # endpoints).  Reliable nodes get double weight both as early
        # seeds and as preferred neighbors on over-fanout rows.
        def sampled_loss_fn(student: GraphModel, logits, seeds: np.ndarray, epoch: int):
            loss = sampled_rdd_student_loss(graph, logits, state, seeds)
            emit_epoch_event(epoch)
            return loss

        def plan_fn(epoch: int) -> SamplingPlan:
            parts = [np.asarray(graph.train_index, dtype=np.int64)]
            if state.gamma > 0.0 and len(state.distill_index):
                parts.append(state.distill_index)
            if state.beta > 0.0 and len(state.edge_src):
                parts.append(state.edge_src)
                parts.append(state.edge_dst)
            pool = np.unique(np.concatenate(parts))
            # The trainer runs ``refresh`` before each epoch's plan.
            mask = holder["reliable_mask"]
            node_weights = 1.0 + mask.astype(np.float64)
            return SamplingPlan(
                seeds=pool,
                seed_weights=node_weights[pool],
                node_weights=node_weights,
                reliable_mask=mask,
            )

        return trainer.fit(
            model, graph, loss_fn=sampled_loss_fn, epoch_callback=refresh, plan_fn=plan_fn
        )


def train_rdd(graph: Graph, config: Optional[RDDConfig] = None, seed: int = 0) -> RDDResult:
    """Convenience one-call API: train RDD on ``graph`` and return results."""
    return RDDTrainer(config).fit(graph, seed=seed)
