#!/usr/bin/env python
"""Regenerate the golden regression fixtures under ``tests/fixtures/``.

Runs a small, fully seeded RDD fit on the tiny DC-SBM citation stand-in
(``cora_like`` at scale 0.05) with per-epoch history recording enabled,
and freezes the observable trajectory — per-student losses and
validation accuracies, base/ensemble test accuracies, the α-weights, and
the reliable-set sizes — as JSON.  The same fit runs twice: full batch
(``golden_rdd_sbm.json``) and through neighbor-sampled mini-batches
(``golden_rdd_sbm_sampled.json``; fanouts (3, 3) and 16 seeds per batch,
so every epoch runs several partial batches and L2/Lreg take the
batch-restricted path).

``tests/test_golden_regression.py`` replays the identical configuration
and compares against this file with tight tolerances, so any silent
numerical drift in the trainer, the loss, the reliability pipeline, or
the ensemble turns into a loud test failure.

Run from the repo root after an *intentional* behavior change::

    PYTHONPATH=src python scripts/make_golden_fixtures.py
"""

from __future__ import annotations

import json
import pathlib
import sys

SEED = 0
SCALE = 0.05

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "tests" / "fixtures"
FIXTURE = FIXTURES / "golden_rdd_sbm.json"
SAMPLED_FIXTURE = FIXTURES / "golden_rdd_sbm_sampled.json"

#: What the sampled run adds to the golden config.
SAMPLED = dict(sampler="neighbor", fanouts=(3, 3), batch_size=16)


def golden_config(**overrides):
    from repro.core.config import RDDConfig

    return RDDConfig(
        num_base_models=3,
        max_epochs=6,
        patience=6,
        hidden=8,
        record_history=True,
        **overrides,
    )


def run_golden(sampled: bool = False):
    """The exact run a fixture freezes (shared with the test)."""
    from repro.core.rdd import RDDTrainer
    from repro.datasets.citation import cora_like

    graph = cora_like(seed=SEED, scale=SCALE)
    config = golden_config(**SAMPLED) if sampled else golden_config()
    result = RDDTrainer(config).fit(graph, seed=SEED)
    return graph, result


def snapshot(graph, result) -> dict:
    return {
        "dataset": {
            "generator": "cora_like",
            "seed": SEED,
            "scale": SCALE,
            "num_nodes": int(graph.num_nodes),
            "num_edges": int(graph.num_edges),
            "num_features": int(graph.num_features),
            "num_classes": int(graph.num_classes),
        },
        "ensemble_test_accuracy": result.ensemble_test_accuracy,
        "ensemble_val_accuracy": result.ensemble_val_accuracy,
        "base_test_accuracies": list(result.base_test_accuracies),
        "ensemble_curve": list(result.ensemble_curve),
        "ensemble_weights": [float(w) for w in result.ensemble_weights],
        "reliability_history": result.reliability_history,
        "students": [
            {
                "train_accuracy": r.train_accuracy,
                "val_accuracy": r.val_accuracy,
                "test_accuracy": r.test_accuracy,
                "epochs_run": r.epochs_run,
                "best_epoch": r.best_epoch,
                "history": r.history,
            }
            for r in result.base_results
        ],
    }


def main() -> int:
    FIXTURES.mkdir(parents=True, exist_ok=True)
    for path, sampled in ((FIXTURE, False), (SAMPLED_FIXTURE, True)):
        data = snapshot(*run_golden(sampled))
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
        print(
            f"  {len(data['students'])} students, "
            f"ensemble test accuracy {data['ensemble_test_accuracy']:.6f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
