"""Run one workload in this process and write its result as JSON.

``bench/run.py`` starts one such process per workload, so each
workload's peak memory is its own.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from benchlib import serve_http, serve_stream, train
from benchlib.spans import write_jsonl

RUNNERS = {
    "train_rdd_cora": train.run,
    "train_rdd_sampled": train.run,
    "serve_http": serve_http.run,
    "serve_stream": serve_stream.run,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    result = RUNNERS[args.workload](
        args.workload, args.seed, args.seconds, args.smoke, args.trace, args.root, args.out_dir
    )
    spans = result.pop("spans", None)
    if spans is not None:
        result["trace_file"] = f"trace-{args.workload}.jsonl"
        write_jsonl(spans, args.out_dir / result["trace_file"])
    args.result.write_text(json.dumps(result, indent=2, default=float))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
