"""Training observability: spans, per-run event logs, unified metrics.

The subsystem that turns an RDD run from a black box into a timeline::

    import repro.obs as obs

    obs.enable("runs/cora-0")            # or --obs-dir / HarnessConfig.obs_dir
    with obs.span("epoch", epoch=3):
        ...                               # timed on the monotonic clock
    obs.event("rdd_epoch", num_reliable=412, gamma=0.71)

Everything lands in ``<obs_dir>/events.jsonl`` — thread- and
process-aware (forked ``parallel_map`` workers append to the same log) —
and ``repro report <obs_dir>`` renders the end-of-run summary.  The
:class:`MetricRegistry` here is also the serving stack's registry (the
batcher, engine, cache and HTTP server record into one), and
:func:`prometheus_text` is the one exporter behind both
``GET /metrics?format=prometheus`` and the report CLI.

Disabled (the default) the layer costs one global read per call site.
"""

from repro.obs.metrics import MetricRegistry, WindowHistogram, prometheus_text
from repro.obs.trace import (
    EVENT_LOG_NAME,
    EventRecorder,
    disable,
    enable,
    enabled,
    event,
    recorder,
    span,
)

__all__ = [
    "EVENT_LOG_NAME",
    "EventRecorder",
    "MetricRegistry",
    "WindowHistogram",
    "disable",
    "enable",
    "enabled",
    "event",
    "prometheus_text",
    "recorder",
    "span",
]
