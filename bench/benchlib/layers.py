"""Which ``repro`` functions the traced run wraps, and the per-layer
metrics computed from the resulting spans.

Every wrapper is installed where the program looks the function up:
module-level names in the module that calls them (``repro.core.rdd``
calls ``node_reliability`` through its own namespace), methods on their
class.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence

from benchlib.spans import Span, Tracer, self_times
from benchlib.stats import mean, p50, tail

# name → (unit, better, what it is).  Every traced run reports every
# name; a layer a workload never calls reads 0 there.
PER_LAYER: Dict[str, tuple] = {
    "tensor.backward_s": ("s", "lower", "GradArena.backward self time per fit"),
    "models.forward_s": ("s", "lower", "taped GCN.forward self time per fit"),
    "models.eval_forward_s": ("s", "lower", "GraphModel.predict_logits self time per fit"),
    "models.eval_forward_per_epoch": ("count", "lower", "predict_logits calls per student epoch"),
    "nn.adam_step_s": ("s", "lower", "Adam.step self time per fit"),
    "core.loss_s": ("s", "lower", "student loss self time per fit"),
    "core.reliability_s": ("s", "lower", "node_reliability + edge_reliability self time per fit"),
    "core.reliability_per_epoch": ("count", "lower", "reliability calls per student epoch"),
    "core.ensemble_s": ("s", "lower", "teacher ensemble self time per fit"),
    "graph.pagerank_s": ("s", "lower", "Graph.pagerank self time per fit"),
    "sampling.build_s": ("s", "lower", "BlockBuilder.build self time per fit"),
    "sampling.build_per_epoch": ("count", "lower", "BlockBuilder.build calls per student epoch"),
    "sampling.input_nodes": ("count", "lower", "mean input nodes of a sampled batch"),
    "sampling.plan_s": ("s", "lower", "ItemSampler.epoch self time per fit"),
    "training.forward_blocks_s": ("s", "lower", "SampledTrainer._forward_blocks self time per fit"),
    "training.loop_self_s": ("s", "lower", "Trainer.fit / SampledTrainer.fit self time per fit"),
    "datasets.load_s": ("s", "lower", "load_dataset time per call"),
    "trace.coverage": ("ratio", "higher", "share of fit wall time in named layers below the loop"),
    "serving.http_post_ms_p50": ("ms", "lower", "handler do_POST duration, fixed-rate phase"),
    "serving.http_post_ms_p95": ("ms", "lower", "handler do_POST duration, fixed-rate phase"),
    "serving.transport_gap_ms_p50": ("ms", "lower", "client latency from send minus do_POST, fixed rate"),
    "serving.transport_gap_closed_ms_p50": ("ms", "lower", "client latency from send minus do_POST, closed loop"),
    "serving.batch_wait_ms_p50": ("ms", "lower", "MicroBatcher.submit to batch_fn entry"),
    "serving.batch_size_mean": ("count", "higher", "requests per predict_many batch"),
    "serving.predict_many_ms_p50": ("ms", "lower", "PredictionEngine.predict_many duration"),
    "serving.inductive_ms_p50": ("ms", "lower", "PredictionEngine.predict_inductive duration"),
    "serving.inductive_ms_mean": ("ms", "lower", "PredictionEngine.predict_inductive duration"),
    "serving.inductive_calls": ("count", "lower", "predict_inductive calls in the run"),
    "serving.inductive_cache_hit_ratio": ("ratio", "higher", "inductive cache hits / lookups"),
    "serving.shed": ("count", "lower", "requests shed by admission control"),
    "serving.timeouts": ("count", "lower", "requests past their deadline"),
    "serving.refresh_ms_p50": ("ms", "lower", "PredictionEngine.refresh duration, rows > 0"),
    "serving.refresh_ms_mean": ("ms", "lower", "PredictionEngine.refresh duration, rows > 0"),
    "serving.refresh_per_delta": ("count", "lower", "refreshes that recomputed rows, per delta"),
    "serving.rows_refreshed_per_delta": ("count", "lower", "table rows recomputed per delta"),
    "serving.stale_hit_ratio": ("ratio", "lower", "reads that found a stale row"),
    "graph.apply_delta_ms_p50": ("ms", "lower", "PredictionEngine.apply_delta duration"),
    "graph.apply_delta_ms_mean": ("ms", "lower", "PredictionEngine.apply_delta duration"),
    "generator.lateness_ms_p99": ("ms", "lower", "load generator lateness, fixed-rate phase"),
    "generator.lateness_ms_max": ("ms", "lower", "load generator lateness, fixed-rate phase"),
}

# Training layers whose self time counts towards trace.coverage (the
# loop's own bookkeeping and dataset loading do not).
_COVERAGE_LAYERS = (
    "tensor.backward", "models.forward", "models.eval_forward", "nn.adam_step", "core.loss",
    "core.reliability", "core.ensemble", "graph.pagerank", "sampling.build", "sampling.plan",
    "training.forward_blocks",
)


def empty_metrics() -> Dict[str, float]:
    return {name: 0.0 for name in PER_LAYER}


# ----------------------------------------------------------------------
# Training
# ----------------------------------------------------------------------
def install_training(tracer: Tracer) -> None:
    import repro.core.rdd as rdd
    import repro.datasets as datasets
    import repro.training.sampled as sampled_module
    import repro.training.trainer as trainer_module
    from repro.core.ensemble import EnsembleModel
    from repro.graph.graph import Graph
    from repro.models.base import GraphModel
    from repro.models.gcn import GCN
    from repro.nn.optim import Adam
    from repro.sampling import BlockBuilder, ItemSampler
    from repro.tensor.tensor import GradArena, is_grad_enabled

    patch = tracer.patch
    patch(GradArena, "backward", "tensor.backward")
    # Under no_grad the forward runs inside predict_logits, whose span covers it.
    patch(GCN, "forward", "models.forward", when=is_grad_enabled)
    patch(GraphModel, "predict_logits", "models.eval_forward")
    patch(Adam, "step", "nn.adam_step")
    patch(rdd, "rdd_student_loss", "core.loss")
    patch(rdd, "sampled_rdd_student_loss", "core.loss")
    # The first student's supervised cross entropy, looked up by the
    # default loss closures of each trainer module.
    patch(trainer_module, "masked_cross_entropy_logits", "core.loss")
    patch(sampled_module, "masked_cross_entropy_logits", "core.loss")
    patch(rdd, "node_reliability", "core.reliability")
    patch(rdd, "edge_reliability", "core.reliability")
    patch(rdd, "teacher_context", "core.ensemble")
    patch(rdd, "ensemble_weight", "core.ensemble")
    for method in ("add", "probs", "embeddings"):
        patch(EnsembleModel, method, "core.ensemble")
    patch(Graph, "pagerank", "graph.pagerank")
    patch(BlockBuilder, "build", "sampling.build",
          attrs=lambda span, args, result: {"input_nodes": len(result.input_nodes)})
    patch(ItemSampler, "epoch", "sampling.plan")
    patch(sampled_module.SampledTrainer, "_forward_blocks", "training.forward_blocks")
    patch(trainer_module.Trainer, "fit", "training.loop")
    patch(sampled_module.SampledTrainer, "fit", "training.loop")
    patch(datasets, "load_dataset", "datasets.load")


def training_metrics(spans: Sequence[Span], fits: int, epochs: int, fit_wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of a traced training run of ``fits`` harness fits."""
    metrics = empty_metrics()
    own = self_times(spans)
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    input_nodes: List[int] = []
    loads: List[float] = []
    for span in spans:
        self_s[span.name] += own[span.id]
        calls[span.name] += 1
        if span.name == "sampling.build":
            input_nodes.append(span.attrs["input_nodes"])
        elif span.name == "datasets.load":
            loads.append(span.duration)
    per_fit = lambda name: self_s[name] / fits  # noqa: E731
    metrics.update({
        "tensor.backward_s": per_fit("tensor.backward"),
        "models.forward_s": per_fit("models.forward"),
        "models.eval_forward_s": per_fit("models.eval_forward"),
        "models.eval_forward_per_epoch": calls["models.eval_forward"] / epochs,
        "nn.adam_step_s": per_fit("nn.adam_step"),
        "core.loss_s": per_fit("core.loss"),
        "core.reliability_s": per_fit("core.reliability"),
        "core.reliability_per_epoch": calls["core.reliability"] / epochs,
        "core.ensemble_s": per_fit("core.ensemble"),
        "graph.pagerank_s": per_fit("graph.pagerank"),
        "sampling.build_s": per_fit("sampling.build"),
        "sampling.build_per_epoch": calls["sampling.build"] / epochs,
        "sampling.input_nodes": mean(input_nodes),
        "sampling.plan_s": per_fit("sampling.plan"),
        "training.forward_blocks_s": per_fit("training.forward_blocks"),
        "training.loop_self_s": per_fit("training.loop"),
        "datasets.load_s": mean(loads),
        "trace.coverage": sum(self_s[name] for name in _COVERAGE_LAYERS) / fit_wall_s,
    })
    return metrics


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
def install_serving(tracer: Tracer, state: Optional[dict] = None) -> None:
    """Wrap the engine, the batcher and — once a server starts serving —
    its request handler.  ``state["server"]`` receives the server."""
    import repro.datasets as datasets
    from repro.serving.batching import MicroBatcher
    from repro.serving.engine import PredictionEngine
    from repro.serving.server import PredictionServer

    submitted: Dict[int, float] = {}

    def mark_submit(original):
        def submit(self, payload):
            submitted[id(payload)] = tracer.clock()
            return original(self, payload)
        return submit

    def batch_attrs(span, args, result):
        waits = []
        for payload in args[1]:
            queued = submitted.pop(id(payload), None)
            if queued is not None:
                waits.append(span.start - queued)
        return {"size": len(args[1]), "waits": waits}

    def patch_handler(original):
        def serve_forever(self, *args, **kwargs):
            if state is not None:
                state["server"] = self
            handler = self.httpd.RequestHandlerClass
            tracer.patch(handler, "do_POST", "serving.http_post",
                         attrs=lambda span, a, r: {"rid": a[0].headers.get("X-Bench-Id")})
            return original(self, *args, **kwargs)
        return serve_forever

    tracer.replace(MicroBatcher, "submit", mark_submit)
    tracer.patch(PredictionEngine, "predict_many", "serving.predict_many", attrs=batch_attrs)
    tracer.patch(PredictionEngine, "predict_inductive", "serving.inductive")
    tracer.patch(PredictionEngine, "refresh", "serving.refresh",
                 attrs=lambda span, args, result: {"rows": result})
    tracer.patch(PredictionEngine, "apply_delta", "graph.apply_delta")
    tracer.replace(PredictionServer, "serve_forever", patch_handler)
    tracer.patch(datasets, "load_dataset", "datasets.load")


def cache_hit_ratio(counters: dict) -> float:
    hits = counters.get("inductive_cache_hot_hits_total", 0) + counters.get(
        "inductive_cache_cold_hits_total", 0
    )
    misses = counters.get("inductive_cache_misses_total", 0)
    return hits / (hits + misses) if hits + misses else 0.0


def serving_metrics(
    spans: Sequence[Span],
    engine_counters: dict,
    server_counters: dict,
    lateness_ms: Sequence[float],
    client_send_ms: Optional[Dict[str, float]] = None,
    reads: int = 0,
    deltas: int = 0,
) -> Dict[str, float]:
    """Per-layer metrics of a traced serving run.

    ``client_send_ms`` maps request id → client latency from send, for
    the transport gap (latency minus the handler's own time).
    """
    metrics = empty_metrics()
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    ms = lambda group: [span.duration * 1e3 for span in group]  # noqa: E731

    posts = [s for s in by_name["serving.http_post"] if (s.attrs or {}).get("rid")]
    fixed_posts = [s for s in posts if s.attrs["rid"].startswith("f")]
    gaps: Dict[str, List[float]] = {"f": [], "c": []}
    for span in posts:
        rid = span.attrs["rid"]
        if client_send_ms and rid in client_send_ms:
            gaps[rid[0]].append(client_send_ms[rid] - span.duration * 1e3)
    batches = by_name["serving.predict_many"]
    waits = [w * 1e3 for span in batches for w in span.attrs["waits"]]
    refreshes = [s for s in by_name["serving.refresh"] if s.attrs["rows"]]
    rows = sum(s.attrs["rows"] for s in refreshes)
    inductive = ms(by_name["serving.inductive"])
    applies = ms(by_name["graph.apply_delta"])
    metrics.update({
        "serving.http_post_ms_p50": p50(ms(fixed_posts)),
        "serving.http_post_ms_p95": tail(ms(fixed_posts), 95),
        "serving.transport_gap_ms_p50": p50(gaps["f"]),
        "serving.transport_gap_closed_ms_p50": p50(gaps["c"]),
        "serving.batch_wait_ms_p50": p50(waits),
        "serving.batch_size_mean": mean([s.attrs["size"] for s in batches]),
        "serving.predict_many_ms_p50": p50(ms(batches)),
        "serving.inductive_ms_p50": p50(inductive),
        "serving.inductive_ms_mean": mean(inductive),
        "serving.inductive_calls": float(len(inductive)),
        "serving.inductive_cache_hit_ratio": cache_hit_ratio(engine_counters),
        "serving.shed": float(server_counters.get("shed_total", 0)),
        "serving.timeouts": float(server_counters.get("http_timeouts_total", 0)),
        "serving.refresh_ms_p50": p50(ms(refreshes)),
        "serving.refresh_ms_mean": mean(ms(refreshes)),
        "serving.refresh_per_delta": len(refreshes) / deltas if deltas else 0.0,
        "serving.rows_refreshed_per_delta": rows / deltas if deltas else 0.0,
        "serving.stale_hit_ratio": (
            engine_counters.get("stale_row_hits_total", 0) / reads if reads else 0.0
        ),
        "graph.apply_delta_ms_p50": p50(applies),
        "graph.apply_delta_ms_mean": mean(applies),
        "generator.lateness_ms_p99": tail(lateness_ms, 99),
        "generator.lateness_ms_max": max(lateness_ms) if lateness_ms else 0.0,
    })
    if by_name["datasets.load"]:
        metrics["datasets.load_s"] = mean([s.duration for s in by_name["datasets.load"]])
    return metrics
