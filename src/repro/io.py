"""Report files (.json): the structured rows of the evaluation harnesses.

Reports let experiment outputs survive the process, so EXPERIMENTS.md can
be regenerated without retraining.  Model weights persist as serving
artifacts (:func:`repro.serving.export_model_artifact`).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Union

import numpy as np

from repro.evaluation.common import ExperimentReport

PathLike = Union[str, Path]


def _json_safe(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        value = float(value)
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def save_report(report: ExperimentReport, path: PathLike) -> None:
    """Serialize an :class:`ExperimentReport` to JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "experiment": report.experiment,
        "notes": report.notes,
        "rows": [{k: _json_safe(v) for k, v in row.items()} for row in report.rows],
    }
    path.write_text(json.dumps(payload, indent=2))


def load_report(path: PathLike) -> ExperimentReport:
    """Load a report written by :func:`save_report` (NaNs restored)."""
    payload = json.loads(Path(path).read_text())
    rows = [
        {k: (float("nan") if v is None else v) for k, v in row.items()}
        for row in payload["rows"]
    ]
    return ExperimentReport(
        experiment=payload["experiment"], rows=rows, notes=payload.get("notes", "")
    )
