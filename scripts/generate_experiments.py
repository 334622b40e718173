"""Regenerate EXPERIMENTS.md by running every harness and recording
paper-vs-measured values.

Usage::

    python scripts/generate_experiments.py [--scale 0.25] [--seeds 0 1 2]
        [--max-epochs 150] [--out EXPERIMENTS.md] [--reports-dir reports/]

At the default settings this takes a few minutes on a laptop CPU; pass
``--scale 1.0 --seeds 0 1 2 3 4`` for a full-protocol run (hours).

Only the text between the ``BEGIN`` and ``END`` marker lines is
rewritten; everything outside them is hand-written and kept verbatim.
A target file without exactly one pair of markers is refused before any
harness runs.
"""

from __future__ import annotations

import argparse
import io
import time
from pathlib import Path

from repro.evaluation import (
    HarnessConfig,
    ext_inductive,
    ext_noise,
    fig1,
    fig6,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
    table8,
    table9,
)
from repro.io import save_report

BEGIN = "<!-- BEGIN generated by scripts/generate_experiments.py; edit the script, not this region -->"
END = "<!-- END generated region; hand-written text follows -->"

HEADER = """# EXPERIMENTS — paper vs measured

Generated by ``scripts/generate_experiments.py`` (settings below).  The
datasets are calibrated synthetic stand-ins (see DESIGN.md §2), so the
reproduction target is the *shape* of each result — orderings, gaps, and
trends — not the absolute accuracies, which depend on the generator.

Every table below prints the measured value next to the paper's reported
number (`paper_*` columns, in percent).  Measured accuracies are fractions
in [0, 1].

"""

SHAPE_NOTES = """
## Shape verdicts

The benchmark suite (`pytest benchmarks/ --benchmark-only`) asserts these
shapes on every run:

* **Figure 1** — GCN accuracy decays as the label rate shrinks.
* **Table 3** — every ensemble beats the single GCN; RDD(Ensemble) at or
  above Bagging/BANs; RDD(Single) competitive.
* **Table 4** — RDD(Single) above GCN; LP far below the GCN family;
  feature-only MLP below graph-aware models.
* **Table 5** — deep variants hover near plain GCN; RDD(Single) on top.
* **Table 6** — ensembling never hurts; gain(Bagging) > gain(BANs).
* **Figure 6** — accuracy grows with labels; RDD(Ensemble) leads the
  ensemble panel throughout.
* **Table 7** — γ=0 column worst (knowledge transfer matters); no cell
  collapses.
* **Table 8** — at full budget, full RDD beats all ablations with L2/node
  reliability the most damaging; at reduced budgets the deltas (0.5–1.7
  paper points) sink into seed noise except on Pubmed.
* **Table 9** — RDD pays ~2× per model but needs no more models than the
  baselines to reach the accuracy target.
"""


def splice_generated(document: str, generated: str) -> str:
    """``document`` with the region between the markers set to ``generated``.

    Raises ``ValueError`` unless the document holds exactly one ``BEGIN``
    line followed by one ``END`` line: without them the whole file would
    be overwritten, hand-written sections included.
    """
    if document.count(BEGIN) != 1 or document.count(END) != 1 or (
        document.index(BEGIN) > document.index(END)
    ):
        raise ValueError(
            f"expected one {BEGIN!r} line followed by one {END!r} line; "
            "refusing to overwrite hand-written text"
        )
    head, rest = document.split(BEGIN)
    tail = rest.split(END)[1]
    return f"{head}{BEGIN}\n{generated}{END}{tail}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--max-epochs", type=int, default=150)
    parser.add_argument("--base-models", type=int, default=5)
    parser.add_argument("--out", type=str, default="EXPERIMENTS.md")
    parser.add_argument("--reports-dir", type=str, default="reports")
    args = parser.parse_args()
    out = Path(args.out)
    document = out.read_text() if out.exists() else ""
    try:
        splice_generated(document, "")
    except ValueError as exc:
        raise SystemExit(f"error: {args.out}: {exc}")

    config = HarnessConfig(
        scale=args.scale,
        seeds=tuple(args.seeds),
        num_base_models=args.base_models,
        max_epochs=args.max_epochs,
    )

    runs = [
        ("table2", lambda: table2.run(config)),
        ("fig1", lambda: fig1.run(config)),
        ("table3", lambda: table3.run(config)),
        ("table4", lambda: table4.run(config)),
        ("table5", lambda: table5.run(config)),
        ("table6", lambda: table6.run(config)),
        ("fig6", lambda: fig6.run(config, include_deep=True)),
        ("table7", lambda: table7.run(config)),
        ("table8", lambda: table8.run(config, datasets=("cora", "citeseer", "pubmed"))),
        ("table9", lambda: table9.run(config)),
        ("ext_noise", lambda: ext_noise.run(config)),
        ("ext_inductive", lambda: ext_inductive.run(config)),
    ]

    reports_dir = Path(args.reports_dir)
    buffer = io.StringIO()
    buffer.write(HEADER)
    buffer.write(
        f"Run settings: scale={args.scale}, seeds={list(args.seeds)}, "
        f"max_epochs={args.max_epochs}, base_models={args.base_models}.\n\n"
    )

    for name, runner in runs:
        print(f"[{time.strftime('%H:%M:%S')}] running {name} ...", flush=True)
        start = time.perf_counter()
        report = runner()
        elapsed = time.perf_counter() - start
        save_report(report, reports_dir / f"{name}.json")
        buffer.write(f"## {report.experiment}\n\n")
        buffer.write("```\n")
        buffer.write(report.format())
        buffer.write("\n```\n\n")
        buffer.write(f"_Wall time: {elapsed:.1f}s._\n\n")
        print(f"[{time.strftime('%H:%M:%S')}] {name} done in {elapsed:.1f}s", flush=True)

    buffer.write(SHAPE_NOTES)
    out.write_text(splice_generated(document, buffer.getvalue()))
    print(f"wrote {args.out} and JSON reports to {reports_dir}/")


if __name__ == "__main__":
    main()
