"""Open- and closed-loop request generation with lateness accounting.

Open loop: requests are due on a fixed schedule whatever the system
does.  Each is timed from its *due* instant, so a stall also charges
the wait it imposes on the requests behind it.  The generator's own
lateness — how long after it could have sent (the later of the due
instant and the moment its connection became free) it actually sent —
is recorded separately: it measures the client, not the system, and a
run whose lateness p99 exceeds :data:`MAX_LATENESS_P99_MS` is invalid.
A request still unsent :data:`SEND_GRACE_S` after the window's cutoff
counts as failed.

Closed loop: each connection sends its next request as soon as the
previous reply arrives, so the completion rate is the throughput at
that concurrency.

Clocks and sleeps are injectable, so the accounting can be tested with
a fake clock.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from benchlib import stats

MAX_LATENESS_P99_MS = 5.0
# A request due inside the window may go out this long after its end; a
# connection still busy by then has left it unsent.
SEND_GRACE_S = 0.1


@dataclass
class Outcome:
    """One scheduled request.  ``sent`` stays None if it never went out."""

    index: int
    due: float
    sent: Optional[float] = None
    done: Optional[float] = None
    ok: bool = False
    lateness: float = 0.0
    error: Optional[str] = None

    @property
    def latency(self) -> float:
        """Seconds from the due instant to completion."""
        return self.done - self.due


def fixed_schedule(rate: float, duration: float, start: float) -> List[float]:
    """Evenly spaced due instants at ``rate`` per second over ``duration``."""
    count = int(round(rate * duration))
    return [start + i / rate for i in range(count)]


def run_open_loop(
    dues: Sequence[Tuple[int, float]],
    send: Callable[[Outcome], None],
    cutoff: float,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> List[Outcome]:
    """Send each ``(index, due)`` in order on one connection or thread.

    ``send(outcome)`` issues the request; it may block until the reply
    (a keep-alive connection) or return at once and set ``done``/``ok``
    later (an asynchronous submit).  Requests whose turn comes more than
    :data:`SEND_GRACE_S` after ``cutoff`` are left unsent.
    """
    outcomes = [Outcome(index=index, due=due) for index, due in dues]
    ready = clock()
    for outcome in outcomes:
        now = clock()
        if outcome.due > now:
            sleep(outcome.due - now)
            now = clock()
        if now > cutoff + SEND_GRACE_S:
            break
        outcome.lateness = now - max(outcome.due, ready)
        outcome.sent = now
        try:
            send(outcome)
        except Exception as error:  # the request failed; the run goes on
            outcome.done = clock()
            outcome.ok = False
            outcome.error = f"{type(error).__name__}: {error}"
        ready = clock()
    return outcomes


def run_closed_loop(
    send: Callable[[Outcome], None],
    deadline: float,
    clock: Callable[[], float] = time.perf_counter,
    first_index: int = 0,
    limit: Optional[int] = None,
) -> List[Outcome]:
    """Send back to back on one connection until ``deadline`` (or ``limit`` sends)."""
    outcomes: List[Outcome] = []
    index = first_index
    while True:
        now = clock()
        if now >= deadline or (limit is not None and len(outcomes) >= limit):
            return outcomes
        outcome = Outcome(index=index, due=now, sent=now)
        index += 1
        try:
            send(outcome)
        except Exception as error:
            outcome.done = clock()
            outcome.ok = False
            outcome.error = f"{type(error).__name__}: {error}"
        outcomes.append(outcome)


def run_threads(targets: Sequence[Callable[[], List[Outcome]]], timeout: float) -> List[Outcome]:
    """Run each target on its own thread and gather their outcomes."""
    results: List[Optional[List[Outcome]]] = [None] * len(targets)
    errors: List[BaseException] = []

    def runner(slot: int, target: Callable[[], List[Outcome]]) -> None:
        try:
            results[slot] = target()
        except BaseException as error:  # re-raised on the calling thread
            errors.append(error)

    threads = [
        threading.Thread(target=runner, args=(slot, target), name=f"loadgen-{slot}", daemon=True)
        for slot, target in enumerate(targets)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout)
    if any(thread.is_alive() for thread in threads):
        raise TimeoutError("load generator threads did not finish")
    if errors:
        raise errors[0]
    return sorted((o for chunk in results for o in chunk), key=lambda o: o.index)


def wait_done(outcomes: Sequence[Outcome], timeout: float, clock=time.perf_counter,
              sleep=time.sleep) -> None:
    """Wait until every sent request has completed (asynchronous sends)."""
    deadline = clock() + timeout
    while any(o.sent is not None and o.done is None for o in outcomes):
        if clock() > deadline:
            return
        sleep(0.001)


def closed_throughput(outcomes: Sequence[Outcome], start: float) -> float:
    """Completed requests per second, from ``start`` to the last completion."""
    done = [o.done for o in outcomes if o.ok and o.done is not None]
    return len(done) / (max(done) - start) if done else 0.0


@dataclass
class Summary:
    attempted: int
    failed: int
    unsent: int
    latencies_ms: List[float]
    lateness_ms: List[float]
    backlog_ms: float

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "unsent": self.unsent,
            "completed": len(self.latencies_ms),
            "backlog_ms": self.backlog_ms,
        }


def summarize(outcomes: Sequence[Outcome], cutoff: float) -> Summary:
    """Failures, latencies from due and generator lateness of one phase.

    Unsent and unfinished requests count as failed.  ``backlog_ms`` is
    how overdue the oldest request still unsent at ``cutoff`` was.
    """
    latencies, lateness = [], []
    failed = unsent = 0
    oldest_unsent = None
    for outcome in outcomes:
        if outcome.sent is None:
            unsent += 1
            failed += 1
            if outcome.due <= cutoff and (oldest_unsent is None or outcome.due < oldest_unsent):
                oldest_unsent = outcome.due
            continue
        lateness.append(outcome.lateness * 1e3)
        if outcome.ok and outcome.done is not None:
            latencies.append(outcome.latency * 1e3)
        else:
            failed += 1
    backlog = 0.0 if oldest_unsent is None else (cutoff - oldest_unsent) * 1e3
    return Summary(len(outcomes), failed, unsent, latencies, lateness, backlog)


def lateness_valid(lateness_ms: Sequence[float]) -> Tuple[bool, str]:
    """(valid, description) — the generator kept to its schedule if its
    lateness p99 is at most 5 ms.

    With too few samples for a p99 (under 1000), the highest percentile
    that has ten samples beyond it stands in for it (p97.2 of 360), and
    with fewer than 20 samples the maximum.  A maximum would invalidate
    a run for one stall of the host, however rare.
    """
    if not lateness_ms:
        return True, "no requests"
    q = stats.highest_percentile(len(lateness_ms), 99)
    value = stats.percentile(lateness_ms, q) if q is not None else max(lateness_ms)
    label = f"p{q:.3g}" if q is not None else "max"
    return value <= MAX_LATENESS_P99_MS, f"lateness {label} {value:.3f} ms"
