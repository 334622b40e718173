"""Command-line interface: regenerate any paper table/figure.

Usage::

    python -m repro list
    python -m repro run table3 --scale 0.2 --seeds 0 1 2 --out table3.json
    python -m repro run fig1 --max-epochs 120
    python -m repro datasets
    python -m repro export --dataset cora --scale 0.2 --out model.rddart
    python -m repro serve --artifact model.rddart --port 8080
    python -m repro deltas --artifact model.rddart --log deltas.jsonl
    python -m repro attack --attack dice --budget 0.1 --out attack.jsonl
    python -m repro attack --sweep --budgets 0.1 0.25 --report-out reports/robustness.json
    python -m repro run table6 --obs-dir runs/t6 && python -m repro report runs/t6

``run`` prints the report table to stdout and optionally writes JSON.
``export`` trains a model and writes a serving artifact; ``serve``
answers ``/predict`` / ``/healthz`` / ``/metrics`` from one
(:mod:`repro.serving`).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import ReproError
from repro.evaluation import (
    HarnessConfig,
    ext_inductive,
    ext_noise,
    fig1,
    fig3,
    fig6,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
    table8,
    table9,
)

EXPERIMENTS = {
    "fig1": (fig1, "Figure 1: GCN accuracy vs label rate"),
    "fig3": (fig3, "Figure 3 (operationalized): distilled-knowledge purity"),
    "noise": (ext_noise, "Extension: feature-noise robustness"),
    "inductive": (ext_inductive, "Extension: inductive generalization"),
    "table2": (table2, "Table 2: dataset overview / calibration audit"),
    "table3": (table3, "Table 3: ensemble comparison"),
    "table4": (table4, "Table 4: single-model comparison"),
    "table5": (table5, "Table 5: deep GCN comparison"),
    "table6": (table6, "Table 6: ensemble gain analysis"),
    "fig6": (fig6, "Figure 6: accuracy vs labels per class"),
    "table7": (table7, "Table 7: hyperparameter grid"),
    "table8": (table8, "Table 8: ablations"),
    "table9": (table9, "Table 9: efficiency"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction harness for 'Reliable Data Distillation on GCN' (SIGMOD 2020)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")
    sub.add_parser("datasets", help="list available dataset stand-ins")

    run = sub.add_parser("run", help="run one experiment harness")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS), help="experiment id")
    run.add_argument("--scale", type=float, default=0.2, help="dataset scale factor (1.0 = full)")
    run.add_argument("--seeds", type=int, nargs="+", default=[0, 1], help="random seeds to average")
    run.add_argument("--base-models", type=int, default=5, help="ensemble size T")
    run.add_argument("--max-epochs", type=int, default=100, help="training epochs per model")
    run.add_argument("--patience", type=int, default=20, help="early-stopping patience")
    run.add_argument("--hidden", type=int, default=16, help="GCN hidden width")
    run.add_argument("--dropout", type=float, default=0.5, help="dropout rate")
    run.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for per-seed runs (1 = serial, identical results)",
    )
    run.add_argument(
        "--dtype", choices=["float32", "float64"], default=None,
        help="compute dtype (default float64; float32 is faster)",
    )
    run.add_argument(
        "--sampler", choices=["full", "neighbor"], default="full",
        help="training mode for the GCN/RDD runners: 'full' (paper's "
             "full-batch) or 'neighbor' (mini-batch neighbor-sampled "
             "blocks; training memory scales with the batch, not the graph)",
    )
    run.add_argument(
        "--fanouts", type=str, default="10,10", metavar="F1,F2,...",
        help="comma-separated per-layer fanouts for --sampler neighbor, "
             "ordered from the output layer inward (default 10,10)",
    )
    run.add_argument(
        "--batch-size", type=int, default=512,
        help="seed nodes per sampled mini-batch (--sampler neighbor)",
    )
    run.add_argument(
        "--checkpoint-dir", type=str, default=None,
        help="persist each completed seed cell here (atomic, checksummed) "
             "so a crashed run can resume from its last completed unit of work",
    )
    run.add_argument(
        "--resume", action=argparse.BooleanOptionalAction, default=True,
        help="resume from checkpoints in --checkpoint-dir when present "
             "(--no-resume recomputes everything; results are bit-identical either way)",
    )
    run.add_argument(
        "--task-retries", type=int, default=0,
        help="re-run a failed seed cell up to N times before giving up",
    )
    run.add_argument(
        "--task-timeout", type=float, default=None,
        help="seconds a pooled seed cell may run before it is presumed lost and retried",
    )
    run.add_argument(
        "--obs-dir", type=str, default=None,
        help="record observability events (spans + per-epoch RDD reliability "
             "diagnostics) to <dir>/events.jsonl; summarize with 'repro report <dir>'",
    )
    run.add_argument("--out", type=str, default=None, help="write the report as JSON here")

    report = sub.add_parser(
        "report",
        help="summarize an observability run directory (written with --obs-dir)",
    )
    report.add_argument("run_dir", help="directory holding events.jsonl")
    report.add_argument(
        "--format", choices=["text", "prometheus"], default="text",
        help="'text' renders span/reliability tables plus Prometheus metrics; "
             "'prometheus' emits only the text exposition format",
    )

    export = sub.add_parser(
        "export",
        help="train a model and export a serving artifact (see 'repro serve')",
    )
    export.add_argument("--dataset", type=str, default="cora", help="dataset stand-in to train on")
    export.add_argument("--scale", type=float, default=0.2, help="dataset scale factor")
    export.add_argument("--seed", type=int, default=0, help="dataset + training seed")
    export.add_argument(
        "--ensemble", type=int, default=0, metavar="T",
        help="train an RDD ensemble of T base models (0 = single supervised GCN)",
    )
    export.add_argument("--hidden", type=int, default=16, help="GCN hidden width")
    export.add_argument("--dropout", type=float, default=0.5, help="dropout rate")
    export.add_argument("--max-epochs", type=int, default=100, help="training epochs")
    export.add_argument("--patience", type=int, default=20, help="early-stopping patience")
    export.add_argument(
        "--dtype", choices=["float32", "float64"], default=None,
        help="compute dtype for training and the exported weights",
    )
    export.add_argument("--out", type=str, required=True, help="artifact output path")

    serve = sub.add_parser("serve", help="serve predictions from an exported artifact over HTTP")
    serve.add_argument("--artifact", type=str, required=True, help="artifact written by 'repro export'")
    serve.add_argument("--host", type=str, default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8080, help="bind port (0 = pick a free one)")
    serve.add_argument(
        "--dataset", type=str, default=None,
        help="serving dataset (defaults to the dataset spec embedded in the artifact)",
    )
    serve.add_argument("--scale", type=float, default=None, help="dataset scale override")
    serve.add_argument("--seed", type=int, default=None, help="dataset seed override")
    serve.add_argument(
        "--max-batch-size", type=int, default=32,
        help="largest micro-batch shared by concurrent /predict calls",
    )
    serve.add_argument(
        "--max-wait-ms", type=float, default=2.0,
        help="longest the batcher holds a request while coalescing (milliseconds); "
             "within it, a batch waits as long as the previous batch took to run",
    )
    serve.add_argument(
        "--replicas", type=int, default=0, metavar="N",
        help="serve from N worker processes sharing one shared-memory "
             "logits table (0 = single-process engine)",
    )
    serve.add_argument(
        "--queue-size", type=int, default=1024,
        help="admission bound: requests queued beyond this are shed with 429",
    )
    serve.add_argument(
        "--request-timeout", type=float, default=30.0, metavar="SECONDS",
        help="per-request deadline; expiry returns 503 and frees the handler",
    )

    deltas = sub.add_parser(
        "deltas",
        help="replay a JSONL delta log against a streaming engine",
    )
    deltas.add_argument("--artifact", type=str, required=True, help="artifact written by 'repro export'")
    deltas.add_argument("--log", type=str, required=True, help="delta log (JSONL, one GraphDelta per line)")
    deltas.add_argument(
        "--dataset", type=str, default=None,
        help="serving dataset (defaults to the dataset spec embedded in the artifact)",
    )
    deltas.add_argument("--scale", type=float, default=None, help="dataset scale override")
    deltas.add_argument("--seed", type=int, default=None, help="dataset seed override")
    deltas.add_argument(
        "--mode", choices=["eager", "lazy"], default="eager",
        help="'eager' refreshes the k-hop closure after every delta; "
             "'lazy' only marks rows stale and refreshes once at the end",
    )

    attack = sub.add_parser(
        "attack",
        help="generate a poisoning attack as a replayable delta log, "
             "or sweep attacks × methods (--sweep)",
    )
    attack.add_argument("--dataset", type=str, default="cora", help="dataset stand-in to poison")
    attack.add_argument("--scale", type=float, default=0.2, help="dataset scale factor")
    attack.add_argument("--seed", type=int, default=0, help="dataset seed")
    attack.add_argument(
        "--attack", choices=["random_flip", "degree_target", "dice"], default="dice",
        help="perturbation attack (single-log mode)",
    )
    attack.add_argument(
        "--budget", type=float, default=0.1,
        help="fraction of undirected edges to perturb (single-log mode)",
    )
    attack.add_argument("--attack-seed", type=int, default=0, help="attack RNG seed")
    attack.add_argument(
        "--batches", type=int, default=1,
        help="split the perturbation into this many deltas (streamable "
             "into 'repro deltas' one batch at a time)",
    )
    attack.add_argument(
        "--out", type=str, default=None,
        help="write the attack's DeltaLog as JSONL here (single-log mode)",
    )
    attack.add_argument(
        "--sweep", action="store_true",
        help="run the full robustness sweep (attacks × budgets × methods "
             "over seeds) instead of generating one log",
    )
    attack.add_argument(
        "--attacks", type=str, nargs="+", default=["random_flip", "dice"],
        help="attacks to sweep (--sweep)",
    )
    attack.add_argument(
        "--budgets", type=float, nargs="+", default=[0.1, 0.25],
        help="perturbation budgets to sweep (--sweep); 0 (clean) is always included",
    )
    attack.add_argument(
        "--methods", type=str, nargs="+",
        default=["gcn", "bagging", "kd", "rdd", "soft_median", "trimmed_mean"],
        help="methods to evaluate under attack (--sweep)",
    )
    attack.add_argument("--seeds", type=int, nargs="+", default=[0, 1], help="training seeds (--sweep)")
    attack.add_argument("--base-models", type=int, default=5, help="ensemble size T (--sweep)")
    attack.add_argument("--max-epochs", type=int, default=100, help="training epochs per model (--sweep)")
    attack.add_argument("--patience", type=int, default=20, help="early-stopping patience (--sweep)")
    attack.add_argument("--workers", type=int, default=1, help="worker processes for per-seed runs (--sweep)")
    attack.add_argument(
        "--checkpoint-dir", type=str, default=None,
        help="persist completed seed cells for crash/resume (--sweep)",
    )
    attack.add_argument(
        "--obs-dir", type=str, default=None,
        help="record spans + per-epoch under-attack reliability events "
             "to <dir>/events.jsonl; summarize with 'repro report <dir>'",
    )
    attack.add_argument(
        "--report-out", type=str, default=None,
        help="write the sweep report as JSON here (--sweep)",
    )
    return parser


def _cmd_export(args) -> int:
    import numpy as np

    from repro.datasets import load_dataset
    from repro.models.gcn import GCN
    from repro.serving.artifacts import ModelSpec, export_ensemble_artifact, export_model_artifact
    from repro.tensor.tensor import default_dtype

    dataset_kwargs = {"seed": args.seed, "scale": args.scale}
    graph = load_dataset(args.dataset, dtype=args.dtype, **dataset_kwargs)
    dataset_spec = {"name": args.dataset, "kwargs": dataset_kwargs, "dtype": args.dtype}

    if args.ensemble > 0:
        from repro.core.config import RDDConfig
        from repro.core.ensemble import EnsembleModel
        from repro.core.rdd import RDDTrainer
        from repro.models.base import softmax_rows

        config = RDDConfig(
            num_base_models=args.ensemble,
            max_epochs=args.max_epochs,
            patience=args.patience,
            hidden=args.hidden,
            dropout=args.dropout,
        )
        with default_dtype(args.dtype):
            result = RDDTrainer(config).fit(graph, seed=args.seed)
            # Rebuild the teacher from the per-student best-checkpoint
            # logits and α-weights the fit recorded — the same arrays
            # RDDTrainer fed EnsembleModel.add, so the served teacher is
            # bitwise the trained one.
            teacher = EnsembleModel()
            for base, weight in zip(result.base_results, result.ensemble_weights):
                teacher.add(softmax_rows(base.predictions), base.predictions, float(weight))
        path = export_ensemble_artifact(
            args.out, teacher, graph, dataset=dataset_spec,
            metadata={"test_accuracy": result.ensemble_test_accuracy},
        )
        accuracy = result.ensemble_test_accuracy
    else:
        from repro.training.trainer import Trainer

        with default_dtype(args.dtype):
            model = GCN(
                graph.num_features, graph.num_classes, np.random.default_rng(args.seed),
                hidden=args.hidden, dropout=args.dropout,
            )
            result = Trainer(max_epochs=args.max_epochs, patience=args.patience).fit(model, graph)
        spec = ModelSpec("gcn", {"hidden": args.hidden, "dropout": args.dropout})
        path = export_model_artifact(
            args.out, model, spec, graph, dataset=dataset_spec,
            metadata={"test_accuracy": result.test_accuracy},
        )
        accuracy = result.test_accuracy
    print(f"artifact written to {path} (test accuracy {accuracy:.3f})")
    return 0


def _serving_graph(args, artifact):
    """The graph to serve ``artifact`` on: its embedded dataset spec, with
    ``--dataset`` / ``--scale`` / ``--seed`` overriding the spec's values."""
    from repro.datasets import load_dataset
    from repro.errors import ConfigError

    dataset = artifact.dataset or {}
    name = args.dataset or dataset.get("name")
    if name is None:
        raise ConfigError(
            "the artifact embeds no dataset spec; pass --dataset (and --scale/--seed)"
        )
    kwargs = dict(dataset.get("kwargs") or {})
    if args.scale is not None:
        kwargs["scale"] = args.scale
    if args.seed is not None:
        kwargs["seed"] = args.seed
    return load_dataset(name, dtype=dataset.get("dtype"), **kwargs)


def _cmd_serve(args) -> int:
    from repro.serving.artifacts import load_artifact
    from repro.serving.engine import PredictionEngine
    from repro.serving.server import PredictionServer

    artifact = load_artifact(args.artifact)
    graph = _serving_graph(args, artifact)

    if args.replicas > 0:
        from repro.serving.frontend import ReplicaFrontend

        frontend = ReplicaFrontend(
            artifact,
            graph,
            replicas=args.replicas,
            max_queue=args.queue_size,
            max_batch_size=args.max_batch_size,
            max_wait_s=args.max_wait_ms / 1000.0,
        )
        server = PredictionServer(
            frontend=frontend,
            host=args.host,
            port=args.port,
            request_timeout_s=args.request_timeout,
        )
        mode = f"replicas={args.replicas}"
    else:
        server = PredictionServer(
            PredictionEngine(artifact, graph),
            host=args.host,
            port=args.port,
            max_batch_size=args.max_batch_size,
            max_wait_s=args.max_wait_ms / 1000.0,
            max_queue=args.queue_size,
            request_timeout_s=args.request_timeout,
        )
        mode = "single process"
    print(
        f"serving {artifact.model_kind} on {server.url} "
        f"(graph {graph.name}: {graph.num_nodes} nodes; {mode})"
    )
    server.serve_forever()
    return 0


def _cmd_deltas(args) -> int:
    import time

    import numpy as np

    from repro.graph import DeltaLog
    from repro.serving.artifacts import load_artifact
    from repro.serving.engine import PredictionEngine

    artifact = load_artifact(args.artifact)
    graph = _serving_graph(args, artifact)

    log = DeltaLog.load(args.log)
    engine = PredictionEngine(artifact, graph, streaming=True)
    engine.logits_table()
    print(
        f"replaying {len(log)} deltas over {graph.name} "
        f"({graph.num_nodes} nodes, mode={args.mode})"
    )
    for index, delta in enumerate(log):
        started = time.perf_counter()
        version = engine.apply_delta(delta)
        invalidated = int(engine._stale.sum())
        refreshed = engine.refresh() if args.mode == "eager" else 0
        elapsed_ms = (time.perf_counter() - started) * 1e3
        print(
            f"  delta {index:3d} -> version {version}: "
            f"+{len(delta.added_edges)}/-{len(delta.removed_edges)} edges, "
            f"{delta.num_new_nodes} new nodes, {invalidated} rows stale, "
            f"{refreshed} refreshed in {elapsed_ms:.2f} ms"
        )
    refreshed = engine.refresh()
    if args.mode == "lazy":
        print(f"  final refresh: {refreshed} rows")

    # Parity: the replayed engine must match a fresh engine built on the
    # fully updated graph, bitwise.
    fresh = PredictionEngine(
        artifact, log.replay(graph), streaming=True, verify_graph=False
    )
    if not np.array_equal(engine.logits_table(), fresh.logits_table()):
        print("error: replayed table diverges from a fresh engine", file=sys.stderr)
        return 1
    print(
        f"parity OK: version {engine.version}, table bitwise-identical to a "
        f"fresh engine on the updated graph ({engine.graph.num_nodes} nodes)"
    )
    return 0


def _cmd_attack(args) -> int:
    from repro.datasets import load_dataset
    from repro.robustness.attacks import generate_attack, perturbation_stats

    if args.sweep:
        from repro.robustness.report import render_summary
        from repro.robustness.sweep import run_sweep

        config = HarnessConfig(
            scale=args.scale,
            seeds=tuple(args.seeds),
            num_base_models=args.base_models,
            max_epochs=args.max_epochs,
            patience=args.patience,
            workers=args.workers,
            checkpoint_dir=args.checkpoint_dir,
            obs_dir=args.obs_dir,
        )
        report = run_sweep(
            config,
            dataset=args.dataset,
            attacks=tuple(args.attacks),
            budgets=tuple(args.budgets),
            methods=tuple(args.methods),
            batches=args.batches,
        )
        print(render_summary(report))
        if args.report_out:
            from repro.io import save_report

            save_report(report, args.report_out)
            print(f"\nreport written to {args.report_out}")
        return 0

    graph = load_dataset(args.dataset, seed=args.seed, scale=args.scale)
    graph.normalized_adjacency()
    log = generate_attack(
        graph, args.attack, args.budget, seed=args.attack_seed, batches=args.batches
    )
    attacked = log.replay(graph)
    stats = perturbation_stats(graph, attacked)
    print(
        f"{args.attack} @ budget {args.budget} on {graph.name} "
        f"({graph.num_nodes} nodes): {len(log)} deltas, "
        f"+{stats['edges_added']:.0f}/-{stats['edges_removed']:.0f} edges, "
        f"homophily {stats['homophily_before']:.3f} -> {stats['homophily_after']:.3f}"
    )
    if args.out:
        path = log.save(args.out)
        print(f"delta log written to {path} (replay with 'repro deltas --log {path}')")
    return 0


def _cmd_report(args) -> int:
    from repro.obs.metrics import prometheus_text
    from repro.obs.report import read_events, registry_from_events, render_report

    if args.format == "prometheus":
        events = read_events(args.run_dir)
        print(prometheus_text(registry_from_events(events).snapshot()), end="")
        return 0
    print(render_report(args.run_dir))
    return 0


def _cmd_list(args) -> int:
    for name, (_, description) in sorted(EXPERIMENTS.items()):
        print(f"{name:8s} {description}")
    return 0


def _cmd_datasets(args) -> int:
    from repro.datasets import available_datasets

    for name in available_datasets():
        print(name)
    return 0


def _cmd_run(args) -> int:
    if args.obs_dir:
        # Enable before the harness runs so graph building, training, and
        # forked workers are all covered by one event log.
        import repro.obs as obs

        obs.enable(args.obs_dir)
    module, _ = EXPERIMENTS[args.experiment]
    config = HarnessConfig(
        scale=args.scale,
        seeds=tuple(args.seeds),
        num_base_models=args.base_models,
        max_epochs=args.max_epochs,
        patience=args.patience,
        hidden=args.hidden,
        dropout=args.dropout,
        workers=args.workers,
        dtype=args.dtype,
        sampler=args.sampler,
        fanouts=_parse_fanouts(args.fanouts),
        batch_size=args.batch_size,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        task_retries=args.task_retries,
        task_timeout=args.task_timeout,
        obs_dir=args.obs_dir,
    )
    report = module.run(config)
    print(report.format())
    _maybe_plot(args.experiment, report)
    if args.out:
        from repro.io import save_report

        save_report(report, args.out)
        print(f"\nreport written to {args.out}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Run one subcommand.  A library error (any :class:`ReproError`)
    prints one ``error: ...`` line to stderr and returns 2."""
    args = build_parser().parse_args(argv)
    command = {
        "list": _cmd_list,
        "datasets": _cmd_datasets,
        "run": _cmd_run,
        "report": _cmd_report,
        "export": _cmd_export,
        "serve": _cmd_serve,
        "deltas": _cmd_deltas,
        "attack": _cmd_attack,
    }[args.command]
    try:
        return command(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _parse_fanouts(spec: str) -> tuple:
    """Parse ``"10,25"`` into ``(10, 25)`` with a friendly error."""
    try:
        fanouts = tuple(int(part) for part in spec.split(",") if part.strip())
    except ValueError:
        raise SystemExit(f"error: --fanouts expects comma-separated integers, got {spec!r}")
    if not fanouts:
        raise SystemExit(f"error: --fanouts expects at least one fanout, got {spec!r}")
    return fanouts


def _maybe_plot(experiment: str, report) -> None:
    """Render figures (fig1/fig6) as ASCII charts below the table."""
    from repro.evaluation.plotting import chart_from_report

    if experiment == "fig1" and len(report.rows) >= 2:
        print()
        print(chart_from_report(report, "label_rate_pct", ["gcn_accuracy"], y_label="accuracy"))
    elif experiment == "fig6" and len(report.rows) >= 2:
        method_keys = [k for k in report.rows[0] if k != "labels_per_class"][:8]
        print()
        print(chart_from_report(report, "labels_per_class", method_keys, y_label="accuracy"))


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
