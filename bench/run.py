"""Benchmark for the RDD reproduction: training and serving, end to end
and per layer.

    python bench/run.py --seed 0                        # all four workloads
    python bench/run.py --workload serve_http --seed 3 --seconds 25
    python bench/run.py --workload train_rdd_cora --seed 0 --trace 1

Each workload runs in a fresh child process.  A run prints every
metric by name and unit, checks that the program's outputs are
correct, writes a result file with provenance and spread to
``bench/out/`` (``--out``) and prints, as its last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 1`` wraps each layer's functions and reports per-layer
metrics instead of the end-to-end ones.  The exit code is 0 only when
every check passed.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from benchlib import layers, spec, system  # noqa: E402

DEFAULT_SECONDS = 25.0
CHILD_TIMEOUT_S = 170.0


def run_workload(workload: str, args, out_dir: Path) -> dict:
    """Run one workload in a child process; returns its result record."""
    tag = f"{workload}-seed{args.seed}{'-trace' if args.trace else ''}{'-smoke' if args.smoke else ''}"
    result_path = out_dir / f".{tag}.child.json"
    result_path.unlink(missing_ok=True)
    command = [
        sys.executable, "-m", "benchlib.child",
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--root", str(ROOT), "--out-dir", str(out_dir), "--result", str(result_path),
    ]
    command += ["--trace"] * args.trace + ["--smoke"] * args.smoke
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))
    started = time.perf_counter()
    # The child's stdout goes to stderr: the last stdout line is the result.
    # Its own session, so a kill also reaches a server it started.
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except BaseException as error:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        if not isinstance(error, subprocess.TimeoutExpired):
            raise
        code = "timeout"
    record = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "wall_s": time.perf_counter() - started,
        "provenance": system.provenance(ROOT),
    }
    if code != 0 or not result_path.exists():
        record.update(correct=False, attempted=1, failed=1, metrics={},
                      checks=[{"name": "workload ran", "ok": False, "detail": f"exit {code}"}])
        return record
    result = json.loads(result_path.read_text())
    result_path.unlink()
    if args.trace:
        units = {name: unit for name, (unit, _, _) in layers.PER_LAYER.items()}
        values = result["per_layer"]
        untraced = out_dir / f"{workload}-seed{args.seed}{'-smoke' if args.smoke else ''}.json"
        if untraced.exists():
            # Host-normalized values on both sides: the host's speed
            # drifts between the two runs by more than tracing costs.
            reference = json.loads(untraced.read_text())["end_to_end"]
            result["detail"]["tracing_overhead"] = {
                name: result["end_to_end"][name] / reference[name]
                for name in ("throughput", "p50_ms")
            }
    else:
        units = {name: unit for name, (unit, _, _) in spec.END_TO_END.items()}
        values = result["end_to_end"]
    record.update(result)
    record["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record["correct"] = all(check["ok"] for check in result["checks"])
    record["valid"] = all(check["ok"] for check in result.get("validity", []))
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=2))
    return record


def print_record(record: dict) -> None:
    print(f"== {record['workload']} (seed {record['seed']}, {record['wall_s']:.1f} s wall)")
    for name, metric in record["metrics"].items():
        print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}")
    for check in record["checks"]:
        print(f"  [{'ok' if check['ok'] else 'FAIL'}] {check['name']}: {check['detail']}")
    for check in record.get("validity", []):
        print(f"  [{'ok' if check['ok'] else 'INVALID'}] {check['name']}: {check['detail']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=list(spec.WORKLOADS),
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0, help="seed for every generated input")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measurement window per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the test suite")
    parser.add_argument("--out", type=Path, default=BENCH / "out", help="result directory")
    args = parser.parse_args(argv)

    # Terminated runs still stop their children (see run_workload).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the repro sources are not at {ROOT / 'src'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    args.out.mkdir(parents=True, exist_ok=True)

    records = []
    for workload in args.workload or list(spec.WORKLOADS):
        record = run_workload(workload, args, args.out)
        print_record(record)
        records.append(record)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{name}": metric
                   for r in records for name, metric in r["metrics"].items()}
    correct = all(r["correct"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
