"""The streaming workload: reads beside graph deltas, in process.

A streaming ``PredictionEngine`` (single GCN, hidden 16, lazy refresh)
serves a 50k-node, 100k-edge degree-corrected SBM graph.  One thread
submits 4-node reads through ``MicroBatcher(engine.predict_many)`` at a
fixed rate without waiting for replies; a second thread applies deltas
of 4 edge flips each, at a fixed rate too.  The reads give the latency
percentiles, timed from their due instants.  Then the reads stop and
the writer applies deltas back to back, refreshing the stale rows after
each one, as an eager replay of a delta log would; the delta rate it
reaches is the throughput.  (Back-to-back writes beside reads starve
the batcher of the engine lock until reads are shed, so the two do not
share a phase.)  The writer times the host-speed kernel
(:mod:`benchlib.hostspeed`) every 0.1 s of that phase, outside the
deltas, and once after each engine build.  Each delta's time is
normalized by the kernel samples taken within 0.5 s of it, and the
throughput is deltas over the sum of the normalized times; set-up time
is normalized by the run's median kernel time.

Delta inputs come from a plain edge-set pass, not ``apply_delta``, so
generating them costs milliseconds.  The correctness check replays the
applied deltas on a plain edge set too, and builds the final graph
from scratch.
"""

from __future__ import annotations

import math
import threading
import time
from pathlib import Path
from typing import List, Tuple

import numpy as np
import scipy.sparse as sp

from benchlib import layers, openloop, stats, system
from benchlib.hostspeed import EVERY_S, HostSpeed
from benchlib.spans import Tracer

PARAMS = dict(
    nodes=50_000, edges=100_000, classes=7, features=1_000, hidden=16,
    read_rate=400.0, nodes_per_read=4, delta_rate=10.0, edges_per_delta=4,
    max_write_rate=1000.0, fixed_share=0.35, setup_repeats=5,
)
DELTA_CHUNK = 100
GRAPH_SEED = 0
SMOKE = dict(nodes=2_000, edges=4_000, features=100, read_rate=200.0, setup_repeats=2)


def params(smoke: bool) -> dict:
    config = dict(PARAMS)
    if smoke:
        config.update(SMOKE)
    return config


def make_graph(config: dict, seed: int):
    """The ``bench_streaming`` shape: bounded-hub DC-SBM with topic features."""
    from repro.datasets.features import generate_topic_features
    from repro.datasets.sbm import generate_dcsbm_graph
    from repro.datasets.splits import planetoid_split
    from repro.graph.graph import Graph

    rng = np.random.default_rng(seed)
    adjacency, labels = generate_dcsbm_graph(
        config["nodes"], config["classes"], config["edges"],
        homophily=0.85, rng=rng, degree_exponent=3.0,
    )
    features = generate_topic_features(labels, config["features"], rng)
    train, val, test = planetoid_split(labels, rng)
    return Graph(adjacency, features, labels, train, val, test, name="stream-bench")


def make_deltas(adjacency: sp.csr_matrix, count: int, per_delta: int,
                rng: np.random.Generator) -> list:
    """``count`` deltas, each removing ``per_delta // 2`` present edges and
    adding the rest as absent ones, valid in sequence."""
    from repro.graph import GraphDelta

    upper = sp.triu(adjacency, k=1).tocoo()
    edges = list(zip(upper.row.tolist(), upper.col.tolist()))
    position = {edge: i for i, edge in enumerate(edges)}
    num_nodes = adjacency.shape[0]
    deltas = []
    for _ in range(count):
        removed = []
        for _ in range(per_delta // 2):
            i = int(rng.integers(len(edges)))
            edge, last = edges[i], edges.pop()
            if i < len(edges):
                edges[i] = last
                position[last] = i
            del position[edge]
            removed.append(edge)
        added = []
        while len(added) < per_delta - per_delta // 2:
            u, v = (int(x) for x in rng.integers(0, num_nodes, size=2))
            edge = (min(u, v), max(u, v))
            if u != v and edge not in position and edge not in added and edge not in removed:
                added.append(edge)
        for edge in added:
            position[edge] = len(edges)
            edges.append(edge)
        deltas.append(GraphDelta(added_edges=np.asarray(added, dtype=np.int64),
                                 removed_edges=np.asarray(removed, dtype=np.int64)))
    return deltas


def replay_edges(adjacency: sp.csr_matrix, deltas: list) -> np.ndarray:
    """The undirected edge set after ``deltas``, by plain set updates."""
    upper = sp.triu(adjacency, k=1).tocoo()
    edges = set(zip(upper.row.tolist(), upper.col.tolist()))
    for delta in deltas:
        edges.difference_update(map(tuple, delta.removed_edges.tolist()))
        edges.update(map(tuple, delta.added_edges.tolist()))
    return np.asarray(sorted(edges), dtype=np.int64).reshape(-1, 2)


def run(workload: str, seed: int, seconds: float, smoke: bool, trace: bool,
        root: Path, out_dir: Path) -> dict:
    from repro.graph.graph import Graph, build_adjacency
    from repro.models.gcn import GCN
    from repro.serving import MicroBatcher, ModelSpec, PredictionEngine, export_model_artifact

    config = params(smoke)
    fixed_s = seconds * config["fixed_share"]
    closed_s = seconds - fixed_s
    # One graph for every seed: a delta costs about the size of its
    # endpoints' 2-hop closure, which the graph's few largest hubs set,
    # and from graph to graph that cost moved the delta rate by a third.
    # The model, the reads and the deltas follow the seed.
    graph = make_graph(config, GRAPH_SEED)
    model = GCN(graph.num_features, graph.num_classes, np.random.default_rng([seed, 3]),
                hidden=config["hidden"])
    model.eval()
    inputs = out_dir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    # One file per workload, overwritten by every run.
    artifact_path = inputs / f"{workload}{'-smoke' if smoke else ''}.rddart"
    export_model_artifact(artifact_path, model, ModelSpec("gcn", {"hidden": config["hidden"]}), graph)
    rng = np.random.default_rng([seed, 4])
    # As many inputs as openloop.fixed_schedule makes due instants.
    scheduled_writes = int(round(config["delta_rate"] * fixed_s))
    deltas = make_deltas(
        graph.adjacency, scheduled_writes + int(config["max_write_rate"] * closed_s),
        config["edges_per_delta"], rng,
    )
    reads = rng.integers(0, config["nodes"], size=(int(round(config["read_rate"] * fixed_s)),
                                                   config["nodes_per_read"]))

    def build_engine():
        started = time.perf_counter()
        engine = PredictionEngine(artifact_path, graph, streaming=True)
        engine.logits_table()
        setups.append(time.perf_counter() - started)
        host.sample()
        return engine

    # Half the builds before the window and half after it: one build
    # takes ~25 ms, and the host's speed shifts over seconds.
    host = HostSpeed(every_s=math.inf if trace else EVERY_S)
    setups: List[float] = []
    for _ in range(config["setup_repeats"]):
        engine = build_engine()

    tracer = Tracer()
    if trace:
        layers.install_serving(tracer)
    system.reset_peak_rss()  # the peak of the serving window, not of input generation
    try:
        with MicroBatcher(engine.predict_many) as batcher:
            window_start = time.perf_counter() + 0.05
            window_end = window_start + seconds
            fixed_end = window_start + fixed_s

            def write(outcome: openloop.Outcome) -> None:
                engine.apply_delta(deltas[outcome.index])
                outcome.done = time.perf_counter()
                outcome.ok = True

            closed_spans: List[Tuple[float, float]] = []  # on the host's paused clock

            def closed_write(outcome: openloop.Outcome) -> None:
                # Refreshed before the next delta: left lazy, with no reads,
                # the stale set and its k-hop closure grow with every delta,
                # and the rate would fall (from ~100/s to ~40/s in ten
                # seconds) with the number applied so far.
                engine.apply_delta(deltas[outcome.index])
                engine.refresh()
                outcome.done = time.perf_counter()
                outcome.ok = True
                closed_spans.append((outcome.sent - host.paused_s, outcome.done - host.paused_s))
                host.maybe_sample()

            writes: List[openloop.Outcome] = []
            closed_writes: List[openloop.Outcome] = []

            def writer_loop() -> None:
                writes.extend(openloop.run_open_loop(
                    list(enumerate(openloop.fixed_schedule(
                        config["delta_rate"], fixed_s, window_start))),
                    write, fixed_end))
                # Unsent writes are a suffix of the schedule: continue after the sent ones.
                sent = sum(o.sent is not None for o in writes)
                closed_writes.extend(openloop.run_closed_loop(
                    closed_write, window_end, first_index=sent, limit=len(deltas) - sent))

            def read(outcome: openloop.Outcome) -> None:
                def finished(future):
                    outcome.done = time.perf_counter()
                    outcome.ok = future.exception() is None
                batcher.submit(reads[outcome.index]).add_done_callback(finished)

            writer = threading.Thread(target=writer_loop, name="delta-writer", daemon=True)
            writer.start()
            fixed = openloop.run_open_loop(
                list(enumerate(openloop.fixed_schedule(config["read_rate"], fixed_s, window_start))),
                read, fixed_end,
            )
            openloop.wait_done(fixed, timeout=30)
            writer.join(timeout=120)
    finally:
        tracer.restore()
    peak_rss = system.peak_rss_mb()
    for _ in range(config["setup_repeats"]):
        build_engine()

    fixed_summary = openloop.summarize(fixed, fixed_end)
    write_summary = openloop.summarize(writes, fixed_end)
    closed_failed = sum(not o.ok for o in closed_writes)
    # Back-to-back deltas, each normalized by the kernel samples taken near it.
    delta_ms = [(end - start) * 1e3 for start, end in closed_spans]
    normalized_ms = host.normalized_ms(closed_spans)

    def delta_rate(values_ms: List[float]) -> float:
        return 1e3 * len(values_ms) / sum(values_ms) if values_ms else 0.0

    # --- correctness ------------------------------------------------
    applied = [deltas[o.index] for o in writes + closed_writes if o.ok]
    engine.refresh()
    final = Graph(build_adjacency(config["nodes"], replay_edges(graph.adjacency, applied)),
                  graph.features, graph.labels, graph.train_index, graph.val_index,
                  graph.test_index, name="stream-bench")
    fresh = PredictionEngine(artifact_path, final, streaming=True, verify_graph=False)
    same_structure = (engine.graph.adjacency != final.adjacency).nnz == 0
    same_table = np.array_equal(engine.logits_table(), fresh.logits_table())
    valid, lateness = openloop.lateness_valid(fixed_summary.lateness_ms)
    checks = [
        {"name": "served graph equals the deltas replayed from scratch",
         "ok": bool(same_structure), "detail": f"{len(applied)} deltas applied"},
        {"name": "refreshed table equals a fresh streaming engine, bit for bit",
         "ok": bool(same_table), "detail": f"{final.num_nodes} rows"},
        {"name": "every read and write succeeded",
         "ok": fixed_summary.failed == 0 and write_summary.failed == 0 and closed_failed == 0,
         "detail": f"reads: {fixed_summary.failed} failed ({fixed_summary.unsent} unsent); "
                   f"writes: {write_summary.failed + closed_failed} failed"},
    ]
    validity = [{"name": "generator kept its schedule",
                 "ok": valid, "detail": lateness}]

    latency, latency_spread = stats.latency_metrics(fixed_summary.latencies_ms)
    write_ms = write_summary.latencies_ms
    measured = {
        "setup_s": stats.median(setups),
        "peak_rss_mb": peak_rss,
        "throughput": delta_rate(delta_ms),
        **latency,
    }
    # Read latency at a fixed rate is mostly waiting (the batcher's
    # window, the schedule), so it stays as measured.
    end_to_end = dict(host.normalize(measured, times=("setup_s",)),
                      throughput=delta_rate(normalized_ms))
    result = {
        "params": dict(config, fixed_s=fixed_s, closed_s=closed_s),
        "end_to_end": end_to_end,
        "checks": checks,
        "validity": validity,
        "attempted": fixed_summary.attempted + write_summary.attempted + len(closed_writes),
        "failed": fixed_summary.failed + write_summary.failed + closed_failed,
        "spread": {"setup_s": stats.spread(setups),
                   "throughput": stats.spread(stats.chunked(normalized_ms, delta_rate, DELTA_CHUNK)),
                   **latency_spread},
        "spread_unit": f"setup per engine build (measured); throughput per chunk of "
                       f">= {DELTA_CHUNK} deltas (host-normalized); latency per chunk of "
                       ">= 200 reads (measured)",
        "detail": {
            "measured": measured,
            "host": host.summary(),
            "reads": fixed_summary.as_dict(),
            "writes": dict(write_summary.as_dict(), p50_ms=stats.p50(write_ms),
                           p99_ms=stats.tail(write_ms, 99), max_ms=max(write_ms, default=0.0)),
            "closed_writes": {"applied": len(closed_writes),
                              "ran_out_of_deltas": closed_writes[-1].index == len(deltas) - 1
                              if closed_writes else False},
            "engine_counters": engine.metrics.snapshot()["counters"],
        },
    }
    if trace:
        counters = engine.metrics.snapshot()["counters"]
        result["per_layer"] = layers.serving_metrics(
            tracer.spans, counters, {}, fixed_summary.lateness_ms,
            reads=len(fixed), deltas=len(applied),
        )
        result["spans"] = tracer.spans
    return result
