"""In-memory span recorder, self-time accounting and Chrome trace export.

A span is one timed call at a layer boundary: a name whose dotted prefix
is the layer (``store.serialize.encode`` belongs to ``store.serialize``),
a start and end from :func:`time.perf_counter` (``CLOCK_MONOTONIC`` on
Linux, so forked pool workers share the driver's time base), the span
that caused it, and an ``ident`` shared by every span of one scenario,
request or query.  Spans stay in memory until the benchmark ends; pool
workers append theirs to per-pid JSON-lines files (:func:`dump_spans`).
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import os
import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

#: What every reported metric name must look like.
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: Percentiles tried for a latency tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a percentile before it may be reported.
TAIL_MIN_BEYOND = 10


@dataclass
class Span:
    """One timed call; ``sid``/``parent`` are unique within ``pid``."""

    name: str
    start: float
    sid: int
    parent: int | None = None
    ident: str | None = None
    pid: int = 0
    tid: int = 0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.rsplit(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "name": self.name, "start": self.start, "end": self.end,
            "sid": self.sid, "parent": self.parent, "ident": self.ident,
            "pid": self.pid, "tid": self.tid, "attrs": self.attrs,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Span":
        return cls(**data)


class Recorder:
    """Collects spans in memory; one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        """The innermost open span of the calling thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def start(self, name: str, ident: str | None = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if ident is None and parent is not None:
            ident = parent.ident
        span = Span(
            name=name,
            start=time.perf_counter(),
            sid=next(self._ids),
            parent=None if parent is None else parent.sid,
            ident=ident,
            pid=self.pid,
            tid=threading.get_native_id(),
        )
        stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def span(self, name: str, ident: str | None = None) -> "_Timed":
        """Context manager timing one span."""
        return _Timed(self, name, ident)

    def adopt_fork(self) -> None:
        """Forget the parent's spans and open stack after ``fork``."""
        if self.pid != os.getpid():
            self.pid = os.getpid()
            self.spans = []
            self._local = threading.local()

    def drain(self) -> list[Span]:
        """Return and forget every finished span."""
        spans, self.spans = self.spans, []
        return spans


class _Timed:
    __slots__ = ("_recorder", "_name", "_ident", "span")

    def __init__(self, recorder: Recorder, name: str, ident: str | None) -> None:
        self._recorder, self._name, self._ident = recorder, name, ident

    def __enter__(self) -> Span:
        self.span = self._recorder.start(self._name, self._ident)
        return self.span

    def __exit__(self, *exc_info) -> None:
        self._recorder.finish(self.span)


class NullRecorder:
    """Stands in for :class:`Recorder` on untraced runs: records nothing."""

    def span(self, name: str, ident: str | None = None) -> "_NullTimed":
        return _NULL_TIMED


class _NullTimed:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_TIMED = _NullTimed()
NULL_RECORDER = NullRecorder()


# ----------------------------------------------------------------------
# Cross-process and cross-thread linking
# ----------------------------------------------------------------------
def dump_spans(path: Path, spans: Iterable[Span]) -> None:
    """Append spans to a JSON-lines file (one writer per file)."""
    with open(path, "a", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span.to_json()) + "\n")


def load_spans(path: Path) -> list[Span]:
    with open(path, encoding="utf-8") as handle:
        return [Span.from_json(json.loads(line)) for line in handle if line.strip()]


def link_by_containment(spans: Sequence[Span], tid: int) -> int:
    """Parent root spans of other threads under the thread ``tid`` spans.

    The program carries no trace id across its HTTP boundary, so a server
    handler span is attributed to the innermost client-thread span whose
    interval contains it (on loopback the client is blocked for the whole
    handler).  The linked root and its descendants take that span's
    ``ident``.  Returns the number of roots linked.
    """
    anchors = sorted(
        (span for span in spans if span.tid == tid), key=lambda span: span.start
    )
    starts = [span.start for span in anchors]
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    linked = 0
    for span in spans:
        if span.tid == tid or span.parent is not None:
            continue
        position = bisect.bisect_right(starts, span.start) - 1
        while position >= 0 and anchors[position].end < span.end:
            position -= 1
        if position < 0:
            continue
        anchor = anchors[position]
        span.parent = anchor.sid
        pending = [span]
        while pending:
            node = pending.pop()
            node.ident = anchor.ident
            pending.extend(children.get(node.sid, ()))
        linked += 1
    return linked


def self_times(spans: Sequence[Span]) -> dict[tuple[int, int], float]:
    """Each span's duration minus the part of it its children cover.

    Keyed by ``(pid, sid)``.  Children may overlap one another (server
    threads, pool workers), so coverage is the union of their intervals
    clipped to the parent's.
    """
    children: dict[tuple[int, int], list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault((span.pid, span.parent), []).append(span)
    result = {}
    for span in spans:
        intervals = sorted(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get((span.pid, span.sid), ())
        )
        covered = 0.0
        cursor = span.start
        for low, high in intervals:
            low = max(low, cursor)
            if high > low:
                covered += high - low
                cursor = high
        result[(span.pid, span.sid)] = span.duration - covered
    return result


def ancestors(span: Span, by_key: dict[tuple[int, int], Span]) -> Iterable[Span]:
    """The chain of enclosing spans, innermost first."""
    parent = span.parent
    while parent is not None:
        node = by_key.get((span.pid, parent))
        if node is None:
            return
        yield node
        parent = node.parent


# ----------------------------------------------------------------------
# Export and summaries
# ----------------------------------------------------------------------
def chrome_trace(spans: Iterable[Span]) -> dict:
    """Chrome trace-event JSON (complete ``X`` events) that Perfetto opens."""
    events = []
    for span in spans:
        args = {"id": span.ident, "sid": span.sid, "parent": span.parent}
        args.update(span.attrs)
        events.append(
            {
                "name": span.name,
                "cat": span.layer,
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": span.duration * 1e6,
                "pid": span.pid,
                "tid": span.tid,
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def percentile(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending, non-empty sample."""
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def latency_tail(samples: Sequence[float]) -> tuple[float, float, float]:
    """``(p50, tail_pct, tail)`` of a sample.

    The tail is the highest of :data:`TAIL_PERCENTILES` with at least
    :data:`TAIL_MIN_BEYOND` samples above it; ``tail_pct`` 0 means no
    percentile qualifies, and the tail then repeats the median.
    """
    if not samples:
        return 0.0, 0.0, 0.0
    ordered = sorted(samples)
    median = percentile(ordered, 50.0)
    for pct in TAIL_PERCENTILES:
        value = percentile(ordered, pct)
        beyond = len(ordered) - bisect.bisect_right(ordered, value)
        if beyond >= TAIL_MIN_BEYOND:
            return median, pct, value
    return median, 0.0, median


def check_metric_names(names: Iterable[str]) -> None:
    """Raise ``ValueError`` naming every metric outside :data:`METRIC_NAME`."""
    bad = sorted(name for name in names if not METRIC_NAME.fullmatch(name) or len(name) > 64)
    if bad:
        raise ValueError(f"malformed metric name(s): {', '.join(map(repr, bad))}")
