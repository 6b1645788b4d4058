"""In-memory spans around the calls the benchmark makes into each layer.

Spans are recorded by the benchmark's own files only (the program is
not instrumented here) and written out as a Chrome trace when the run
ends.  A layer's self time is its spans' duration minus the part their
child spans cover.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    start: float
    end: float
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Thread-safe span recorder; every span carries the workload id."""

    enabled = True

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: Open spans of the thread that owns the tracer: what a span
        #: opened on a fresh worker thread was caused by.
        self._owner_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        stack = self._stack()
        sid = next(self._ids)
        causes = stack or self._owner_stack
        parent = causes[-1] if causes else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            # list.append is atomic under the GIL; spans from the two
            # load-generator threads interleave but never tear.
            self.spans.append(
                Span(sid, parent, name, layer, start, end, threading.get_ident())
            )

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per layer."""
        return self_times(self.spans)

    def write_chrome(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tids = {t: i for i, t in enumerate(sorted({s.thread for s in self.spans}))}
        origin = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": s.name,
                "cat": s.layer,
                "ph": "X",
                "ts": (s.start - origin) * 1e6,
                "dur": s.duration * 1e6,
                "pid": os.getpid(),
                "tid": tids[s.thread],
                "args": {"id": s.id, "parent": s.parent, "workload": self.workload},
            }
            for s in sorted(self.spans, key=lambda s: s.start)
        ]
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


class NullTracer:
    """The untraced run: same call sites, nothing recorded."""

    enabled = False
    spans: list[Span] = []

    def span(self, name: str, layer: str):
        return contextlib.nullcontext()


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of *intervals*."""
    total = 0.0
    reach = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out: dict[str, float] = {}
    for s in spans:
        own = s.duration - covered(children.get(s.id, []))
        out[s.layer] = out.get(s.layer, 0.0) + own
    return out
