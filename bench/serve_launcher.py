"""Run ``repro serve`` with the benchmark's tracing wrappers installed.

    python bench/serve_launcher.py --summary S.json --spans T.jsonl -- serve --artifact A

The wrappers are installed before ``repro.cli.main`` builds the server.
On SIGTERM the server shuts down as on Ctrl-C; the launcher then writes
the spans (JSON lines) and a summary with the engine's and server's
counters.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from benchlib import layers  # noqa: E402
from benchlib.spans import Tracer, write_jsonl  # noqa: E402


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--summary", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    tracer = Tracer()
    state: dict = {}
    layers.install_serving(tracer, state)
    signal.signal(signal.SIGTERM, _interrupt)

    from repro.cli import main as cli_main

    code = cli_main(cli_args)
    server = state["server"]
    summary = {
        "engine_counters": server.engine.metrics.snapshot()["counters"],
        "server_counters": server.metrics.snapshot()["counters"],
    }
    write_jsonl(tracer.spans, args.spans)
    Path(args.summary).write_text(json.dumps(summary, indent=2))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
