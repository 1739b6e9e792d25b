"""In-memory spans recorded around calls into a program's layers.

A :class:`Tracer` patches callables at the names their callers look them
up under (a module global or a class attribute) with a wrapper that
records one span per call: name, start, end, parent span and job id.
Spans stay in memory until the run ends; :func:`self_times` derives each
span's self time (its duration minus its children's) and
:func:`write_chrome_trace` writes them in the Chrome Trace Event format,
which Perfetto and ``chrome://tracing`` open.

Nothing here knows about the profiled program; ``layers.py`` holds the
table of what gets wrapped.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Union

#: attribute set on every wrapper, naming the span it records; the tests
#: use it to prove that no wrapper outlives a run.
MARK = "__perfbench_span__"

SpanName = Union[str, Callable[..., str]]


class Span:
    __slots__ = ("name", "start", "end", "parent", "job")

    def __init__(self, name: str, start: float, parent: int,
                 job: Optional[str]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.job = job

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span stack, counters and the patches that feed them."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.job: Optional[str] = None
        self._stack: List[int] = []
        self._patches: list = []
        self._pid = os.getpid()

    # -- spans -------------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, self.job))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(
                f"span {self.spans[index].name!r} closed out of order"
            )

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    # -- wrapping ----------------------------------------------------------
    def wrap(self, fn: Callable, name: SpanName,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` with a span around every call.

        ``name`` is a string, or a function of the call's arguments
        returning one; ``after(result, args, kwargs)`` runs once the span
        is closed, so the counters it updates cost no span time.
        """
        tracer = self
        static = name if isinstance(name, str) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer._pid:  # a forked worker: not ours
                return fn(*args, **kwargs)
            index = tracer.open(static or name(*args, **kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(result, args, kwargs)
            return result

        setattr(wrapper, MARK, static or getattr(name, "__name__", "?"))
        return wrapper

    def replace(self, owner, attr: str, make: Callable) -> None:
        """Set ``owner.attr`` to ``make(original)`` until :meth:`restore`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else (
            getattr(owner, attr)
        )
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def patch(self, owner, attr: str, name: SpanName,
              after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper."""
        self.replace(owner, attr, lambda fn: self.wrap(fn, name, after))

    def restore(self) -> None:
        """Put every patched callable back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def write_chrome_trace(path: str, spans: List[Span],
                       metadata: Optional[dict] = None) -> None:
    """Write spans as Chrome Trace Event JSON (complete ``X`` events).

    Times are microseconds from the first span. ``args`` carries the
    span's index, its parent's index (-1 for a root) and its job id.
    """
    origin = min((s.start for s in spans), default=0.0)
    events = [
        {
            "name": s.name,
            "cat": s.name.split(".", 1)[0],
            "ph": "X",
            "ts": round((s.start - origin) * 1e6, 3),
            "dur": round(s.duration * 1e6, 3),
            "pid": 1,
            "tid": 1,
            "args": {"id": i, "parent": s.parent, "job": s.job},
        }
        for i, s in enumerate(spans)
    ]
    doc = {"traceEvents": events, "displayTimeUnit": "ms",
           "otherData": metadata or {}}
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh)
    os.replace(tmp, path)
