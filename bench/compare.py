"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python bench/compare.py A/ B/

``A`` and ``B`` hold result files written by ``bench/run.py`` (untraced
runs; traced, smoke, failed and invalid runs are skipped).  For each
workload and end-to-end metric it prints each side's median and
quartiles, the share of (A, B) run pairs that B wins, and a verdict:

* ``worse``: B's median is worse than A's by more than the bound;
* ``better``: B wins at least 90% of the pairs and its median beats
  A's by more than A's own interquartile range;
* ``within bound``: neither;
* ``unresolved``: either side's spread (IQR over median) is wider than
  the bound, so the medians cannot be compared at that resolution,
  unless every B run beats (or loses to) every A run.

Exit status 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parents[1]


def load_runs(directory: Path) -> Dict[str, Dict[str, List[float]]]:
    """workload → metric → values over the usable result files."""
    runs: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if not isinstance(record, dict) or "metrics" not in record:
            continue
        if record.get("trace") or record.get("smoke"):
            continue
        if not record.get("correct") or not record.get("valid", True):
            print(f"skipping {path.name}: failed or invalid run", file=sys.stderr)
            continue
        for name, metric in record["metrics"].items():
            runs[record["workload"]][name].append(metric["value"])
    return runs


def quartiles(values: Sequence[float]):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> dict:
    """Judge B against A for one metric (see module docs)."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (b - a) > 0 means B is worse
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    pairs = [(x, y) for x in a for y in b]
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    losses = sum(sign * (y - x) > 0 for x, y in pairs)
    spread_a = (a_q3 - a_q1) / abs(a_med) if a_med else float("inf")
    spread_b = (b_q3 - b_q1) / abs(b_med) if b_med else float("inf")
    worse_by = sign * (b_med - a_med) / abs(a_med) if a_med else float("inf")
    if spread_a > bound or spread_b > bound:
        if wins == len(pairs):
            label = "better"
        elif losses == len(pairs):
            label = "worse"
        else:
            label = "unresolved"
    elif worse_by > bound:
        label = "worse"
    elif -worse_by > spread_a and wins >= 0.9 * len(pairs):
        label = "better"
    else:
        label = "within bound"
    return {
        "a": (a_q1, a_med, a_q3), "b": (b_q1, b_med, b_q3),
        "win_fraction": wins / len(pairs), "change": worse_by * -1.0, "verdict": label,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="baseline result directory")
    parser.add_argument("b", type=Path, help="candidate result directory")
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)

    spec = json.loads(args.benchmark.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    runs_a, runs_b = load_runs(args.a), load_runs(args.b)
    print(f"{'workload':18s} {'metric':12s} {'A q1/median/q3':>28s} {'B q1/median/q3':>28s} "
          f"{'B wins':>6s} {'better by':>9s} {'bound':>5s}  verdict")
    any_worse = False
    for workload in [w["name"] for w in spec["workloads"]]:
        for name, metric in metrics.items():
            a, b = runs_a[workload][name], runs_b[workload][name]
            if not a or not b:
                print(f"{workload:18s} {name:12s} missing runs (A {len(a)}, B {len(b)})")
                continue
            result = verdict(a, b, metric["better"], metric["bound"])
            any_worse |= result["verdict"] == "worse"
            fmt = lambda q: "/".join(f"{v:.4g}" for v in q)  # noqa: E731
            print(f"{workload:18s} {name:12s} {fmt(result['a']):>28s} {fmt(result['b']):>28s} "
                  f"{result['win_fraction']:6.2f} {result['change']:+9.3f} {metric['bound']:5.2f}  "
                  f"{result['verdict']} (n={len(a)}/{len(b)})")
    return 1 if any_worse else 0


if __name__ == "__main__":
    raise SystemExit(main())
