"""In-memory span tracing by wrapping functions where they are looked up.

A :class:`Tracer` replaces an attribute (a module-level function, a
method on a class, a static method) with a wrapper that records one
span per call: name, start, end, the enclosing span on the same thread,
and optional attributes such as a request id.  Spans stay in memory and
are written as JSON lines when the run ends.

A layer's *self time* is its span's duration minus the part of that
interval covered by its child spans (the union, so overlapping children
are not double counted).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Interval = Tuple[float, float]


class Span:
    __slots__ = ("id", "name", "parent", "thread", "start", "end", "attrs")

    def __init__(self, span_id: int, name: str, parent: Optional[int], thread: int):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = 0.0
        self.end = 0.0
        self.attrs: Optional[dict] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        record = {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "thread": self.thread,
        }
        if self.attrs:
            record.update(self.attrs)
        return record


class Tracer:
    """Records spans from wrapped functions; see module docs.

    ``clock`` is injectable so tests can drive time by hand.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        fn: Callable,
        name: str,
        when: Optional[Callable[[], bool]] = None,
        attrs: Optional[Callable[[Span, tuple, object], Optional[dict]]] = None,
    ) -> Callable:
        """A wrapper recording a ``name`` span around each call of ``fn``.

        ``when`` (no arguments) can veto recording for a call, e.g. to
        skip a forward pass already covered by an enclosing eval span.
        ``attrs(span, args, result)`` returns extra fields for the span.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is not None and not when():
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span = Span(
                next(tracer._ids), name, stack[-1].id if stack else None, threading.get_ident()
            )
            stack.append(span)
            result = None
            span.start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = tracer.clock()
                stack.pop()
                if attrs is not None:
                    span.attrs = attrs(span, args, result)
                tracer.spans.append(span)

        return wrapper

    def patch(self, owner, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` with a recording wrapper (see :meth:`wrap`).

        ``owner`` is a module or a class; static methods stay static.
        :meth:`restore` undoes every patch in reverse order.
        """
        self.replace(owner, attr, lambda fn: self.wrap(fn, name, **options))

    def replace(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``make(original)``; undone by :meth:`restore`."""
        own = isinstance(owner, type) and attr in owner.__dict__
        original = owner.__dict__[attr] if isinstance(owner, type) and own else getattr(owner, attr)
        if isinstance(original, staticmethod):
            replacement = staticmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._patches.append((owner, attr, original, own or not isinstance(owner, type)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def write_jsonl(spans: Iterable[Span], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span.to_json()) + "\n")


def read_jsonl(path) -> List[Span]:
    spans = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            span = Span(record.pop("id"), record.pop("name"), record.pop("parent"),
                        record.pop("thread"))
            span.start = record.pop("start")
            span.end = record.pop("end")
            span.attrs = record
            spans.append(span)
    return spans


def union_length(intervals: Iterable[Interval], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    clipped = sorted(
        (max(start, low), min(end, high)) for start, end in intervals if end > low and start < high
    )
    total = 0.0
    current_start = current_end = None
    for start, end in clipped:
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id → duration minus the union of its children's intervals."""
    children: Dict[int, List[Interval]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: span.duration - union_length(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }

