"""Workload names and end-to-end metric definitions.

``BENCHMARK.json`` at the repository root repeats these (a test keeps
the two in step); per-layer metrics are defined in
:mod:`benchlib.layers`.
"""

from __future__ import annotations

WORKLOADS = {
    "train_rdd_cora": "full-batch RDD on the 2708-node cora stand-in; the autodiff tape dominates",
    "train_rdd_sampled": "RDD through neighbor-sampled mini-batches on pubmed; block building dominates",
    "serve_http": "keep-alive HTTP to repro serve with cached and inductive queries; no training work",
    "serve_stream": "in-process reads beside graph deltas on a 50k-node graph; delta and refresh dominate",
}

# name → (unit, better, bound as a share of the parent's median).  Over
# ten seeds on a shared 2-vCPU machine, with the host's speed swinging
# by a third, the IQR over median of each stayed at or below 0.09 on
# every workload (host-normalized where bench/README.md says so).  A
# p95 is in every result file but not here: on that machine it moved
# two- to threefold between quiet and busy hours on the serving
# workloads, wider than any bound.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.20),
    "throughput": ("1/s", "higher", 0.25),
    "p50_ms": ("ms", "lower", 0.25),
}
