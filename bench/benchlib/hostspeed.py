"""Host speed, measured with a fixed reference kernel during a run.

On a shared machine the speed of a core moves by a third or more from
one second to the next, with other tenants' load, and a run catches
whatever mix of modes the host is in.  A fixed kernel (bench code, so no
change to the program moves it) timed every :data:`EVERY_S` seconds of
the run measures that speed where the workload runs: in its process, on
its thread, interleaved with its operations.  Compute-bound metrics are
reported *host-normalized*, as they would read on a host where the
kernel takes :data:`NOMINAL_MS`::

    time_normalized = time_measured / factor
    rate_normalized = rate_measured * factor
    factor = median kernel time / NOMINAL_MS

:meth:`HostSpeed.factor` takes the median over the whole run;
:meth:`HostSpeed.normalized_ms` divides each operation's time by the
median of the samples taken within :data:`WINDOW_S` of it, so an
operation is judged by the host's speed while it ran.  Over sets of ten
25-second runs of each training workload on a shared 2-vCPU machine,
judging each step by the samples within 0.5 s of it brought the IQR
over median of the step rate and the step p50 from 0.09-0.32 (as
measured) to 0.03-0.10.

The kernel mixes interpreter work with small-array numpy calls, the mix
the program's training and serving loops spend their time in.  The
kernel's own time is recorded in ``paused_s`` so that callers can take
it out of the intervals they measure.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from benchlib import stats

NOMINAL_MS = 1.0
EVERY_S = 0.1
WINDOW_S = 0.5
WARM_UP = 5

# 512 x 16 float64 is 64 KiB: small enough that numpy's temporaries come
# from the allocator's free lists, not from fresh pages.
_ROWS = np.linspace(0.0, 1.0, 512 * 16).reshape(512, 16)


def reference_kernel() -> float:
    """About 1 ms of fixed work: an interpreter loop and small numpy ops."""
    total = 0
    for i in range(6000):
        total += i * i
    h = _ROWS
    for _ in range(4):
        h = np.maximum(h * 0.5 + 0.1, 0.0)
        h = np.exp(h - h.max(axis=1, keepdims=True))
        h = h / h.sum(axis=1, keepdims=True)
    return float(h[0, 0]) + total


class HostSpeed:
    """Times :func:`reference_kernel` now and then during a run.

    It takes one sample when created; ``every_s=math.inf`` keeps it at
    that (a traced run, whose spans the kernel would otherwise land in).
    Each sample is stamped on the *paused clock*, ``clock() - paused_s``,
    which stops while the kernel runs.
    """

    def __init__(self, every_s: float = EVERY_S,
                 clock: Callable[[], float] = time.perf_counter,
                 kernel: Callable[[], float] = reference_kernel):
        self.every_s = every_s
        self.clock = clock
        self.kernel = kernel
        self.samples_ms: List[float] = []
        self.sampled_at: List[float] = []
        self.paused_s = 0.0
        for _ in range(WARM_UP):
            kernel()
        self.sample()

    def sample(self) -> None:
        """Time the kernel once; its time is added to ``paused_s``."""
        started = self.clock()
        self.kernel()
        finished = self.clock()
        self.samples_ms.append((finished - started) * 1e3)
        self.sampled_at.append(started - self.paused_s)
        self.paused_s += finished - started
        self._due = finished + self.every_s

    def maybe_sample(self) -> None:
        """Sample if ``every_s`` has passed since the last sample."""
        if self.clock() >= self._due:
            self.sample()

    def factor(self) -> float:
        """Median kernel time over :data:`NOMINAL_MS` (> 1: a slow host)."""
        return stats.median(self.samples_ms) / NOMINAL_MS

    def local_factors(self, times: Sequence[float], window_s: float = WINDOW_S) -> List[float]:
        """The factor around each of ``times`` on the paused clock: the
        median of the samples taken within ``window_s`` of it, or the
        run's :meth:`factor` where there are none."""
        overall = self.factor()
        at = np.asarray(self.sampled_at)  # increasing
        ms = np.asarray(self.samples_ms)
        times = np.asarray(times, dtype=float)
        lows = np.searchsorted(at, times - window_s, side="left")
        highs = np.searchsorted(at, times + window_s, side="right")
        return [float(np.median(ms[lo:hi])) / NOMINAL_MS if hi > lo else overall
                for lo, hi in zip(lows, highs)]

    def normalized_ms(self, spans: Sequence[Tuple[float, float]]) -> List[float]:
        """Each ``(start, end)`` span of the paused clock in ms, divided
        by the factor around its midpoint."""
        factors = self.local_factors([(start + end) / 2 for start, end in spans])
        return [(end - start) * 1e3 / factor for (start, end), factor in zip(spans, factors)]

    def normalize(self, measured: Dict[str, float], times: Sequence[str]) -> Dict[str, float]:
        """``measured`` with the named times divided by :meth:`factor`."""
        factor = self.factor()
        normalized = dict(measured)
        for name in times:
            normalized[name] = measured[name] / factor
        return normalized

    def summary(self) -> dict:
        return {"nominal_ms": NOMINAL_MS, "factor": self.factor(),
                "kernel_ms": stats.spread(self.samples_ms), "paused_s": self.paused_s}
