"""The two training workloads: RDD (Algorithm 3) through the harness.

Fit k of a run loads the dataset generated with seed S+k and trains one
harness fit on it with training seed k (``run_over_seeds(run_rdd, ...)``
with one worker); fits follow each other until the time window is
spent.  Every student runs a fixed number of epochs (patience equals
the epoch budget), so the work per fit is fixed.

The one probe in an untraced run is a timestamp after each optimizer
step.  Every 0.1 s the probe also times the host-speed kernel
(:mod:`benchlib.hostspeed`), outside the step intervals.  Each interval
between steps is normalized by the kernel samples taken within 0.5 s of
it; throughput is steps over the sum of the normalized intervals, and
the step-latency p50 and p95 are their percentiles over the run.
Set-up time is normalized by the run's median kernel time.  The
measured values are kept in ``detail.measured``, and the spread over
chunks of 200 consecutive steps in ``spread``.
"""

from __future__ import annotations

import math
import time
from pathlib import Path
from typing import Dict, List, Tuple

from benchlib import layers, stats, system
from benchlib.hostspeed import EVERY_S, HostSpeed
from benchlib.spans import Tracer

CONFIGS = {
    "train_rdd_cora": dict(
        dataset="cora", scale=1.0, num_base_models=5, max_epochs=200,
        sampler="full", min_accuracy=0.85, setup_repeats=3,
    ),
    "train_rdd_sampled": dict(
        dataset="pubmed", scale=1.0, num_base_models=3, max_epochs=20,
        sampler="neighbor", fanouts=(10, 10), batch_size=512, min_accuracy=0.75,
        setup_repeats=3,
    ),
}

# Tiny sizes for the test suite's smoke run; accuracy is not checked there.
TRACE_SAMPLES_PER_FIT = 10

SMOKE = {
    "train_rdd_cora": dict(scale=0.1, num_base_models=2, max_epochs=10, min_accuracy=0.0),
    "train_rdd_sampled": dict(scale=0.05, num_base_models=2, max_epochs=3, min_accuracy=0.0),
}


def params(workload: str, smoke: bool) -> dict:
    config = dict(CONFIGS[workload])
    if smoke:
        config.update(SMOKE[workload])
    return config


class StepClock:
    """Timestamps taken right after every ``Adam.step``, on a clock that
    stops while the host-speed kernel runs."""

    def __init__(self, patcher: Tracer, host: HostSpeed):
        from repro.nn.optim import Adam

        self.stamps: List[float] = []

        def make(original):
            def step(optimizer):
                original(optimizer)
                self.stamps.append(time.perf_counter() - host.paused_s)
                host.maybe_sample()
            return step

        patcher.replace(Adam, "step", make)


def run(workload: str, seed: int, seconds: float, smoke: bool, trace: bool,
        root: Path, out_dir: Path) -> dict:
    import repro.datasets as datasets
    from repro.evaluation.common import HarnessConfig, run_over_seeds, run_rdd

    config = params(workload, smoke)
    harness = HarnessConfig(
        scale=config["scale"],
        num_base_models=config["num_base_models"],
        max_epochs=config["max_epochs"],
        patience=config["max_epochs"],
        workers=1,
        sampler=config["sampler"],
        fanouts=config.get("fanouts", (10, 10)),
        batch_size=config.get("batch_size", 512),
    )
    tracer = Tracer()
    host = HostSpeed(every_s=math.inf if trace else EVERY_S)
    steps = StepClock(tracer, host)
    if trace:
        layers.install_training(tracer)

    fits: List[Dict] = []
    intervals_ms: List[float] = []
    interval_spans: List[Tuple[float, float]] = []  # on the host's paused clock
    window_start = time.perf_counter()
    try:
        # Start another fit only if it should end inside the window.
        while not fits or (time.perf_counter() - window_start) * (len(fits) + 1) / len(fits) <= seconds:
            # The graph comes from the run's seed; the training seed is the
            # fit's index, so fit k does the same training work in every
            # run (on sampled RDD the training seed alone moves the
            # reliable set, and with it the work and peak memory, by up
            # to half).
            data_seed, train_seed = seed + len(fits), len(fits)
            loads = []
            for _ in range(config["setup_repeats"]):
                started = time.perf_counter()
                graph = datasets.load_dataset(config["dataset"], seed=data_seed, scale=config["scale"])
                loads.append(time.perf_counter() - started)
            harness.seeds = (train_seed,)
            first_step = len(steps.stamps)
            system.reset_peak_rss()
            started = time.perf_counter() - host.paused_s
            (result,) = run_over_seeds(run_rdd, [graph], harness)
            finished = time.perf_counter() - host.paused_s
            peak_rss = system.peak_rss_mb()
            if trace:
                # Samples between fits lie outside every span; they are the
                # traced run's measure of the host (see run.py's overhead).
                for _ in range(TRACE_SAMPLES_PER_FIT):
                    host.sample()
            stamps = [started] + steps.stamps[first_step:]
            fit_intervals = [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])]
            intervals_ms.extend(fit_intervals)
            interval_spans.extend(zip(stamps, stamps[1:]))
            fits.append({
                "data_seed": data_seed,
                "train_seed": train_seed,
                "load_s": loads,
                "wall_s": finished - started,
                "steps": len(fit_intervals),
                "epochs": [base.epochs_run for base in result.base_results],
                "test_accuracy": result.ensemble_test_accuracy,
                "peak_rss_mb": peak_rss,
            })
    finally:
        tracer.restore()

    wall = sum(fit["wall_s"] for fit in fits)
    steps_total = sum(fit["steps"] for fit in fits)
    epochs_total = sum(sum(fit["epochs"]) for fit in fits)
    student_fits = sum(len(fit["epochs"]) for fit in fits)
    short = sum(epochs != config["max_epochs"] for fit in fits for epochs in fit["epochs"])
    accuracy = sum(fit["test_accuracy"] for fit in fits) / len(fits)
    best = max(fit["test_accuracy"] for fit in fits)
    checks = [
        {
            "name": "every student ran max_epochs",
            "ok": short == 0 and student_fits == len(fits) * config["num_base_models"],
            "detail": f"{short} of {student_fits} students stopped early",
        },
        {
            # Sampled RDD on the 60-label pubmed stand-in is unstable from
            # seed to seed (some fits collapse below 0.3), so the floor
            # applies to the best fit: it catches broken training without
            # failing runs over seeds no performance change affects.
            "name": "best fit's ensemble test accuracy",
            "ok": best >= config["min_accuracy"],
            "detail": f"best {best:.4f}, mean {accuracy:.4f} (floor {config['min_accuracy']})",
        },
    ]
    if config["sampler"] == "full":
        # Full batch: exactly one optimizer step per student epoch.
        checks.append({
            "name": "one step per epoch",
            "ok": steps_total == epochs_total,
            "detail": f"{steps_total} steps for {epochs_total} epochs",
        })
    # Each step interval is normalized by the kernel samples taken near it.
    normalized_ms = host.normalized_ms(interval_spans)
    loads = [load for fit in fits for load in fit["load_s"]]

    def step_metrics(values_ms: List[float]) -> Dict[str, float]:
        return {"throughput": 1e3 * len(values_ms) / sum(values_ms),
                "p50_ms": stats.p50(values_ms), "p95_ms": stats.tail(values_ms, 95)}

    measured = {
        "setup_s": stats.median(loads),
        # The run's peak.  A fit starts from the heap its predecessors
        # left behind, so one fit's own peak moves with the memory that
        # fit needed (154 to 371 MiB over the first fits of ten sampled
        # seeds), while the run's settles at its heaviest fit's.
        "peak_rss_mb": max(fit["peak_rss_mb"] for fit in fits),
        **step_metrics(intervals_ms),
    }
    end_to_end = dict(host.normalize(measured, times=("setup_s",)), **step_metrics(normalized_ms))
    rates = stats.chunked(normalized_ms, lambda chunk: 1e3 * len(chunk) / sum(chunk))
    latency_spread = stats.latency_metrics(normalized_ms)[1]
    result = {
        "params": config,
        "end_to_end": end_to_end,
        "checks": checks,
        "attempted": student_fits,
        "failed": short,
        "spread": {
            "setup_s": stats.spread(loads),
            "peak_rss_mb": stats.spread([fit["peak_rss_mb"] for fit in fits]),
            "throughput": stats.spread(rates),
            **latency_spread,
            "test_accuracy": stats.spread([fit["test_accuracy"] for fit in fits]),
        },
        "spread_unit": "setup per dataset load (measured); memory and accuracy per fit; "
                       "the rest per 200-step chunk (host-normalized)",
        "detail": {
            "measured": measured,
            "host": host.summary(),
            "fits": fits,
            "train_s": wall,
            "steps_per_s": steps_total / wall,
            "steps": steps_total,
            "student_epochs": epochs_total,
            "test_accuracy": accuracy,
        },
    }
    if trace:
        result["per_layer"] = layers.training_metrics(tracer.spans, len(fits), epochs_total, wall)
        result["spans"] = tracer.spans
    return result
