"""Deterministic fault injection for crash-safety testing.

The training runtime fails in a handful of well-understood ways: a
worker process dies mid-task, a task will not pickle, a checkpoint write
is interrupted, a transient error clears on retry.  Reproducing those
failures with real process kills and disk races makes tests flaky; this
module makes them *deterministic* instead.

The runtime declares named **fault points** — :func:`fault_point` calls
at the places where real deployments break (task execution, the harness
seed loop, the RDD student loop, checkpoint writes, training epochs).
In production the call is a no-op costing one ``None`` check.  A test
activates a :class:`FaultPlan` with :func:`inject`, and matching rules
fire an exception (or run an arbitrary action, e.g. corrupting a file)
at an exact hit index or context key — never at random — so every chaos
test reproduces bit-for-bit.

Registered sites (``site`` → where it fires):

====================  ====================================================
``parallel:task``     before each :func:`repro.training.parallel.parallel_map`
                      task runs (``key`` = task index)
``harness:seed``      before each harness seed cell (``key`` = seed index)
``rdd:student``       before each RDD student trains (``key`` = student t)
``grid:cell``         before each grid-search cell (``key`` = cell index)
``trainer:epoch``     top of each training epoch (``key`` = epoch)
``checkpoint:save``   before a checkpoint generation is written
                      (``key`` = checkpoint name)
``serving:request``   before a micro-batched serving request executes
                      (``key`` = request arrival sequence number); the
                      batching loop survives the failure, only that
                      request's future errors
``serving:refresh``   top of each :class:`BackgroundRefresher` cycle
                      (``key`` = cycle index); a failed cycle is counted
                      and swallowed — the engine degrades to lazy
                      refresh until the next cycle
====================  ====================================================

Plans are plain Python state in the parent process.  Fork-spawned
workers inherit the active plan at pool-creation time, so keyed rules
(``key=2`` fires for task 2) behave identically in serial and pooled
runs; hit-count based rules (``at=3``) are only deterministic in the
process that counts the hits — prefer keyed rules for worker-side sites.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, List, Optional, Tuple, Union

from repro.errors import ReproError


class InjectedFault(ReproError):
    """Base class for all deliberately injected failures."""


class WorkerCrash(InjectedFault):
    """Simulates a worker process dying mid-task."""


class TransientFault(InjectedFault):
    """A failure expected to clear on retry."""


class CheckpointFault(InjectedFault):
    """Simulates a crash while persisting a checkpoint."""


@dataclass
class FaultRule:
    """One deterministic trigger: fire at ``site`` for matching hits.

    Attributes
    ----------
    site:
        Fault-point name this rule listens on.
    key:
        When not ``None``, only hits whose ``key`` equals this fire
        (e.g. a specific task index).  ``None`` matches every key.
    at:
        Hit indices (0-based, counted per rule over matching hits) at
        which the rule fires; ``None`` fires on every matching hit.
    exc:
        Exception type raised when the rule fires (ignored if ``action``
        is set).
    action:
        Optional callable ``action(context) -> None`` run instead of
        raising — used e.g. to corrupt a checkpoint file whose path the
        fault point passes as context.
    """

    site: str
    key: object = None
    at: Optional[Tuple[int, ...]] = (0,)
    exc: type = WorkerCrash
    action: Optional[Callable[[dict], None]] = None
    hits: int = field(default=0, init=False)
    fired: int = field(default=0, init=False)

    def matches(self, site: str, key: object) -> bool:
        return site == self.site and (self.key is None or self.key == key)

    def visit(self, context: dict) -> None:
        """Count one matching hit; fire if this hit index is armed."""
        index = self.hits
        self.hits += 1
        if self.at is not None and index not in self.at:
            return
        self.fired += 1
        if self.action is not None:
            self.action(context)
            return
        raise self.exc(
            f"injected fault at {self.site!r} (key={context.get('key')!r}, hit={index})"
        )


class FaultPlan:
    """An ordered collection of :class:`FaultRule` triggers."""

    def __init__(self) -> None:
        self.rules: List[FaultRule] = []

    def fail(
        self,
        site: str,
        key: object = None,
        at: Union[int, Iterable[int], None] = 0,
        exc: type = WorkerCrash,
        action: Optional[Callable[[dict], None]] = None,
    ) -> "FaultPlan":
        """Register a trigger; returns ``self`` so rules chain fluently."""
        if at is not None:
            at = (at,) if isinstance(at, int) else tuple(int(i) for i in at)
        self.rules.append(FaultRule(site=site, key=key, at=at, exc=exc, action=action))
        return self

    def visit(self, site: str, key: object, context: dict) -> None:
        for rule in self.rules:
            if rule.matches(site, key):
                rule.visit(context)

    def fired(self, site: Optional[str] = None) -> int:
        """Total number of fires, optionally restricted to one site."""
        return sum(rule.fired for rule in self.rules if site is None or rule.site == site)


# The plan consulted by fault_point; None = production (all points no-op).
_ACTIVE: Optional[FaultPlan] = None


def active_plan() -> Optional[FaultPlan]:
    """The currently injected plan (``None`` outside :func:`inject`)."""
    return _ACTIVE


def fault_point(site: str, key: object = None, **context) -> None:
    """Declare a named failure point; no-op unless a plan is injected."""
    plan = _ACTIVE
    if plan is not None:
        context["key"] = key
        plan.visit(site, key, context)


@contextmanager
def inject(plan: FaultPlan):
    """Activate ``plan`` for the duration of the ``with`` block."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = previous


# ----------------------------------------------------------------------
# File-corruption helpers (simulate interrupted / bit-rotted writes)
# ----------------------------------------------------------------------
def truncate_file(path, keep_fraction: float = 0.5) -> None:
    """Truncate ``path`` to a fraction of its size (a half-written file)."""
    path = Path(path)
    size = path.stat().st_size
    with open(path, "r+b") as handle:
        handle.truncate(max(0, int(size * keep_fraction)))


def flip_byte(path, offset: int = -1) -> None:
    """XOR one byte of ``path`` (bit rot); negative offsets count from the end."""
    path = Path(path)
    data = bytearray(path.read_bytes())
    if not data:
        raise ValueError(f"cannot corrupt empty file {path}")
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))
