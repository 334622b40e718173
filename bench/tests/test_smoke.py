"""End-to-end smoke runs of bench/run.py on tiny inputs."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

from benchlib import layers, spec

RUN = Path(__file__).resolve().parents[1] / "run.py"


def run_bench(out_dir, *extra):
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--seconds", "1.5", "--seed", "3",
         "--out", str(out_dir), *extra],
        capture_output=True, text=True, timeout=300,
    )
    elapsed = time.perf_counter() - started
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1]), elapsed


def test_smoke_run_of_all_workloads(tmp_path):
    result, elapsed = run_bench(tmp_path)
    assert elapsed < 30
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {f"{w}/{m}" for w in spec.WORKLOADS for m in spec.END_TO_END}
    assert set(result["metrics"]) == expected
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    for workload in spec.WORKLOADS:
        record = json.loads((tmp_path / f"{workload}-seed3-smoke.json").read_text())
        assert record["provenance"]["numpy"] and record["provenance"]["nproc"] >= 1
        assert record["params"] and record["spread"]


def test_traced_smoke_run_writes_spans_and_layer_metrics(tmp_path):
    result, _ = run_bench(tmp_path, "--trace", "1")
    assert result["correct"] is True
    expected = {f"{w}/{m}" for w in spec.WORKLOADS for m in layers.PER_LAYER}
    assert set(result["metrics"]) == expected
    for workload in spec.WORKLOADS:
        trace = tmp_path / f"trace-{workload}.jsonl"
        assert trace.stat().st_size > 0
    metrics = result["metrics"]
    assert metrics["train_rdd_cora/tensor.backward_s"]["value"] > 0
    assert metrics["train_rdd_cora/sampling.build_s"]["value"] == 0
    assert metrics["train_rdd_sampled/sampling.build_s"]["value"] > 0
    assert metrics["serve_http/serving.http_post_ms_p50"]["value"] > 0
    assert metrics["serve_http/serving.transport_gap_closed_ms_p50"]["value"] > 0
    assert metrics["serve_stream/graph.apply_delta_ms_p50"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    bench_copy = tmp_path / "bench"
    shutil.copytree(RUN.parent, bench_copy, ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, str(bench_copy / "run.py"), "--workload", "serve_http", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
