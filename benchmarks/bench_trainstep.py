"""Training-step benchmark: fused kernels + gradient arena vs legacy tape.

Times the **full taped train step** — forward, backward, optimizer
update — in two configurations that are bitwise identical in output:

* **legacy** — the op-by-op tape (the elementary chains of
  ``tests/elementary_tape.py``, swapped in by ``elementary_tape()``),
  plain ``Tensor.backward`` (per-step DFS topological sort), and fresh
  gradient-buffer allocation on every first accumulation: the training
  step as it existed before the fused layer;
* **fused** — the fused kernels (single-node softmax cross entropy,
  ``linear``, ``gcn_layer``, arena-leased dropout) under a
  :class:`~repro.tensor.tensor.GradArena`: recycled gradient buffers
  and ``zero_grad(set_to_none=True)`` — the library's only taped step.

Sparse-feature dropout lives in the ``Dropout`` layer, not in a kernel,
so both sides rebuild the masked CSR matrix the same validation-free way.

Workloads span the regimes the distillation pipeline hits:

* ``gcn``        — the paper's student (2-layer GCN, sparse features,
  full-scale Cora stand-in).  Kernel-bound: the sparse products and the
  dropout RNG dominate, so the tape overhead the fused path removes is
  a modest slice.
* ``deep_dense`` — a 3-layer DenseGCN with a dense running state (the
  Table-5 deep-model regime).  Many taped ops over large dense
  intermediates: the regime where per-step allocation — feature-sized
  dropout scratch and first-touch gradient buffers — dominates and the
  fused+arena path pays off hardest.
* ``jknet``      — 3-layer jumping-knowledge net, between the two.
* ``mlp``        — graph-free baseline (fused ``linear`` only).

Every workload asserts fused-vs-legacy bitwise parity on the updated
parameters before any timing.  Run ``python scripts/bench_trainstep.py``
to write ``BENCH_trainstep.json`` at the repo root;
``scripts/check_bench.py`` compares a fresh run against the committed
baseline.  The pytest entries are ``perf``-marked and excluded from
tier-1.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, Optional

import numpy as np
import pytest

from repro.datasets import cora_like
from repro.models.densegcn import DenseGCN
from repro.models.gcn import GCN
from repro.models.jknet import JKNet
from repro.models.mlp import MLP
from repro.nn.optim import Adam
from repro.tensor.tensor import GradArena
from repro.training.trainer import supervised_loss
from tests.elementary_tape import elementary_tape

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT_PATH = REPO_ROOT / "BENCH_trainstep.json"

WORKLOADS = {
    "gcn": dict(scale=1.0, factory=lambda g, rng: GCN(g.num_features, g.num_classes, rng)),
    "deep_dense": dict(
        scale=0.3,
        factory=lambda g, rng: DenseGCN(
            g.num_features, g.num_classes, rng, hidden=[32, 16], num_layers=3
        ),
    ),
    "jknet": dict(
        scale=0.3,
        factory=lambda g, rng: JKNet(g.num_features, g.num_classes, rng),
    ),
    "mlp": dict(scale=1.0, factory=lambda g, rng: MLP(g.num_features, g.num_classes, rng)),
}


def _make_step(graph, factory, arena: Optional[GradArena]):
    """One full train step (forward + backward + optimizer) as a closure.

    With an arena this is the fused step; without one, the legacy step:
    the elementary tape and a plain ``loss.backward()``.
    """
    model = factory(graph, np.random.default_rng(0))
    optimizer = Adam(model.parameters(), lr=0.01, weight_decay=5e-4)
    loss_fn = supervised_loss(graph)

    def step(epoch: int) -> None:
        model.train()
        if arena is None:
            with elementary_tape():
                loss = loss_fn(model, model(graph), epoch)
            optimizer.zero_grad()
            loss.backward()
        else:
            with arena.record():
                loss = loss_fn(model, model(graph), epoch)
            optimizer.zero_grad()
            arena.backward(loss)
        optimizer.step()

    return model, step


def _assert_parity(graph, factory, steps: int = 5) -> None:
    """Fused and legacy steps must leave identical parameters behind."""
    legacy_model, legacy_step = _make_step(graph, factory, arena=None)
    fused_model, fused_step = _make_step(graph, factory, arena=GradArena())
    for epoch in range(steps):
        legacy_step(epoch)
        fused_step(epoch)
    for (name_a, a), (name_b, b) in zip(
        legacy_model.named_parameters(), fused_model.named_parameters()
    ):
        assert name_a == name_b
        assert np.array_equal(a.data, b.data), f"parameter {name_a} diverged"


def _best_of(step, repeats: int, epoch_base: int) -> float:
    """Best-of-N wall time of one train step (min is noise-robust)."""
    best = float("inf")
    for offset in range(repeats):
        start = time.perf_counter()
        step(epoch_base + offset)
        best = min(best, time.perf_counter() - start)
    return best


def bench_workload(name: str, repeats: int = 50) -> Dict[str, float]:
    spec = WORKLOADS[name]
    graph = cora_like(seed=0, scale=spec["scale"])
    graph.normalized_adjacency()  # pre-normalize outside the timed region
    _assert_parity(graph, spec["factory"])

    # Build each path's step once — the persistent arena is part of what
    # is being measured (steady-state buffer reuse only pays off across
    # steps) — then alternate best-of rounds so machine drift hits both
    # paths equally.
    _, legacy_step = _make_step(graph, spec["factory"], arena=None)
    _, fused_step = _make_step(graph, spec["factory"], arena=GradArena())
    for epoch in range(5):  # warm caches, allocator, buffer pool
        legacy_step(epoch)
        fused_step(epoch)
    rounds = 4
    per_round = max(1, repeats // rounds)
    legacy = fused = float("inf")
    for round_index in range(rounds):
        epoch_base = 5 + round_index * per_round
        legacy = min(legacy, _best_of(legacy_step, per_round, epoch_base))
        fused = min(fused, _best_of(fused_step, per_round, epoch_base))
    return {
        "scale": spec["scale"],
        "legacy_step_s": legacy,
        "fused_step_s": fused,
        "speedup": legacy / fused,
    }


def run_benchmark(quick: bool = False) -> Dict[str, object]:
    # The legacy path's allocation jitter needs a few dozen samples for
    # a stable best-of minimum, so even quick mode keeps 30 repeats.
    repeats = 30 if quick else 50
    workloads = {name: bench_workload(name, repeats=repeats) for name in WORKLOADS}
    speedups = [w["speedup"] for w in workloads.values()]
    return {
        "workloads": workloads,
        # Headline: the deep taped regime the fused layer targets.
        "trainstep_speedup": workloads["deep_dense"]["speedup"],
        "geomean_speedup": float(np.exp(np.mean(np.log(speedups)))),
    }


def main(argv=None) -> int:
    results = run_benchmark()
    OUTPUT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    for name, w in results["workloads"].items():
        print(
            f"{name:11s} legacy {w['legacy_step_s'] * 1e3:8.3f} ms  "
            f"fused {w['fused_step_s'] * 1e3:8.3f} ms  {w['speedup']:.2f}x"
        )
    print(f"train-step speedup (deep taped regime): {results['trainstep_speedup']:.2f}x")
    print(f"geometric-mean speedup over workloads:  {results['geomean_speedup']:.2f}x")
    print(f"wrote {OUTPUT_PATH}")
    return 0


# ----------------------------------------------------------------------
# pytest entries (perf-marked; excluded from the tier-1 run)
# ----------------------------------------------------------------------
@pytest.mark.perf
def test_trainstep_speedup_deep_taped_regime():
    result = bench_workload("deep_dense")
    assert result["speedup"] >= 1.5


@pytest.mark.perf
def test_trainstep_never_slower():
    # Kernel-bound workloads can't gain much, but the fused path must
    # not cost anything either (small tolerance for timer noise).
    for name in ("gcn", "mlp"):
        result = bench_workload(name, repeats=30)
        assert result["speedup"] >= 0.9, (name, result)


@pytest.mark.perf
def test_trainstep_parity_is_enforced():
    # bench_workload refuses to time configurations that diverge.
    spec = WORKLOADS["gcn"]
    graph = cora_like(seed=0, scale=0.1)
    _assert_parity(graph, spec["factory"])


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
