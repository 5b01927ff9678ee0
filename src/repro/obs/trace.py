"""Hierarchical tracing and the shared instrumentation frame stack.

A *span* is a named, timed region of execution with free-form
attributes.  Spans nest: every instrumentation frame — a span, a
profiler frame or a :func:`repro.obs.phase` feeding both — is pushed on
one thread-local stack, so a span finished while another is open
records that span as its parent.  Finished spans land in a bounded,
thread-safe buffer that exports as plain JSON or as Chrome
``trace_event`` format (load the file at ``chrome://tracing`` or
https://ui.perfetto.dev).

The tracer never raises from the hot path: when disabled, ``span()``
returns a shared stateless no-op context manager.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.sinks import NullSink, Sink


@dataclass
class SpanRecord:
    """One finished span.

    Attributes:
        span_id: unique id within this tracer (monotonic).
        parent_id: id of the enclosing span, or None for roots.
        name: span name, dot-qualified (``"qwm.region"``).
        start: start instant on the tracer's clock [s].
        duration: elapsed wall time [s].
        attrs: free-form attributes attached at entry or via ``set``.
        thread: OS thread ident the span ran on.
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    duration: float
    attrs: Dict[str, object] = field(default_factory=dict)
    thread: int = 0

    def to_json(self) -> dict:
        return {"id": self.span_id, "parent": self.parent_id,
                "name": self.name, "start": self.start,
                "duration": self.duration, "attrs": dict(self.attrs),
                "thread": self.thread}


class _NoopSpan:
    """Shared do-nothing frame for the disabled fast path.

    Its methods are C callables that ignore their arguments, so a
    disabled ``with`` runs no Python frame: entering returns the no-op
    itself, exiting returns "" (falsy, so exceptions propagate).
    """

    __slots__ = ()


NOOP_SPAN = _NoopSpan()
_NoopSpan.__enter__ = itertools.repeat(NOOP_SPAN).__next__  # type: ignore
_NoopSpan.__exit__ = _NoopSpan.set = _NoopSpan.count = "".format  # type: ignore


class _Recording:
    """The installed recorders.

    ``bundle`` is the installed :class:`repro.obs.Telemetry`;
    ``tracer`` and ``profiler`` are its ones while enabled, else None.
    ``any`` is the one flag the disabled hooks test: either is on, or
    an accuracy capture is armed on some thread.  Installers keep it
    current through :meth:`update`.
    """

    bundle: Any = None
    tracer: Optional["Tracer"] = None
    profiler: Any = None
    captures = 0
    any = False
    _lock = threading.Lock()

    def update(self, bundle: Any = None, captures: int = 0) -> None:
        """Install a new bundle, or arm (+1) or disarm (-1) one
        capture."""
        with self._lock:
            if bundle is not None:
                self.bundle = bundle
                tracer, profiler = bundle.tracer, bundle.profiler
                self.tracer = tracer if tracer.enabled else None
                self.profiler = profiler if profiler.enabled else None
            self.captures += captures
            self.any = (self.tracer is not None
                        or self.profiler is not None or self.captures > 0)


RECORDING = _Recording()


class _Stacks(threading.local):
    def __init__(self) -> None:
        self.stack: List["Frame"] = []


_LOCAL = _Stacks()


class Frame:
    """One open instrumentation frame (context manager).

    It feeds up to two recorders: a ``tracer`` (one span ``name`` with
    ``attrs``) and a ``profiler`` (one cell whose path ends in
    ``label``).  An armed accuracy capture labels the region notes
    taken inside with the innermost frame's ``phase``.
    """

    __slots__ = ("name", "attrs", "tracer", "span_id", "parent_id",
                 "profiler", "label", "path", "ops", "child_seconds",
                 "phase", "_start")

    def __init__(self, name: str, attrs: Dict[str, Any],
                 tracer: Optional["Tracer"] = None, profiler: Any = None,
                 label: str = "", phase: str = ""):
        self.name = name
        self.attrs = attrs
        self.tracer = tracer
        self.profiler = profiler
        self.label = label
        self.ops: Dict[str, float] = {}
        self.child_seconds = 0.0
        self.phase = phase

    def set(self, **attrs) -> None:
        """Attach or overwrite span attributes while the frame is open."""
        self.attrs.update(attrs)

    def count(self, op: str, amount: float = 1.0) -> None:
        """Add to the profiler cell's op count (flushed at exit) and to
        the span attribute of the same name."""
        if self.profiler is not None:
            self.ops[op] = self.ops.get(op, 0) + amount
        if self.tracer is not None:
            self.attrs[op] = self.attrs.get(op, 0) + amount

    def __enter__(self) -> "Frame":
        stack = _LOCAL.stack
        if self.tracer is not None:
            parent = _nearest(stack, "tracer", self.tracer)
            self.parent_id = parent.span_id if parent else None
            self.span_id = next(self.tracer._ids)
        if self.profiler is not None:
            parent = _nearest(stack, "profiler", self.profiler)
            self.path = (parent.path if parent else ()) + (self.label,)
        stack.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        elapsed = time.perf_counter() - self._start
        stack = _LOCAL.stack
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # tolerate out-of-order exits
            stack.remove(self)
        if self.tracer is not None:
            self.tracer._finish(self, elapsed)
        if self.profiler is not None:
            parent = _nearest(stack, "profiler", self.profiler)
            if parent is not None:
                parent.child_seconds += elapsed
            self.profiler._record(
                self.path, max(elapsed - self.child_seconds, 0.0), 1,
                self.ops)
        return False


def _nearest(stack: List[Frame], consumer: str,
             owner: Any) -> Optional[Frame]:
    """The innermost open frame feeding ``owner`` (a tracer or profiler)."""
    for frame in reversed(stack):
        if getattr(frame, consumer) is owner:
            return frame
    return None


class Tracer:
    """Thread-safe in-memory span recorder.

    Args:
        enabled: record spans at all (False = every ``span()`` call
            returns the shared no-op).
        limit: maximum retained records; beyond it spans are dropped
            (the drop count is reported by :meth:`stats`).
        sink: live sink receiving one event per finished span.
    """

    def __init__(self, enabled: bool = True, limit: int = 100_000,
                 sink: Optional[Sink] = None):
        self.enabled = enabled
        self.limit = limit
        self.sink = sink or NullSink()
        self._emit_live = not isinstance(self.sink, NullSink)
        self._lock = threading.Lock()
        self._records: List[SpanRecord] = []
        self._dropped = 0
        self._ids = itertools.count()
        #: perf_counter offset so exported timestamps start near zero.
        self._t0 = time.perf_counter()

    # ------------------------------------------------------------------
    def span(self, name: str, attrs: Optional[dict] = None) -> Frame:
        """Open a span (use as a context manager)."""
        if not self.enabled:
            return NOOP_SPAN  # type: ignore[return-value]
        return Frame(name, dict(attrs) if attrs else {}, tracer=self)

    def _finish(self, span: Frame, duration: float) -> None:
        record = SpanRecord(
            span_id=span.span_id, parent_id=span.parent_id,
            name=span.name, start=span._start - self._t0,
            duration=duration, attrs=span.attrs,
            thread=threading.get_ident())
        dropped = False
        with self._lock:
            if len(self._records) < self.limit:
                self._records.append(record)
            else:
                self._dropped += 1
                dropped = True
        if dropped:
            # Lazy import (repro.obs imports this module); a silently
            # truncated trace must at least show up in the metrics.
            from repro.obs import inc

            inc("obs.trace.dropped")
        if self._emit_live:
            self.sink.emit("span", record.to_json())

    # ------------------------------------------------------------------
    def records(self) -> List[SpanRecord]:
        """Snapshot of the finished spans (copy)."""
        with self._lock:
            return list(self._records)

    def stats(self) -> dict:
        with self._lock:
            return {"recorded": len(self._records),
                    "dropped": self._dropped}

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self._dropped = 0

    # ------------------------------------------------------------------
    # Exporters
    # ------------------------------------------------------------------
    def to_json(self) -> List[dict]:
        """All finished spans as plain dicts."""
        return [r.to_json() for r in self.records()]

    def to_chrome(self) -> dict:
        """Chrome ``trace_event`` document (complete 'X' events)."""
        pid = os.getpid()
        events = []
        for r in self.records():
            events.append({
                "ph": "X", "name": r.name, "cat": r.name.split(".")[0],
                "ts": r.start * 1e6, "dur": r.duration * 1e6,
                "pid": pid, "tid": r.thread,
                "args": {k: _jsonable(v) for k, v in r.attrs.items()},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def export_chrome(self, path: str) -> str:
        """Write the Chrome trace document to ``path``."""
        with open(path, "w") as handle:
            json.dump(self.to_chrome(), handle)
        return path


def _jsonable(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


# ----------------------------------------------------------------------
# Tree rendering (the CLI `repro stats` wall-time tree)
# ----------------------------------------------------------------------
def format_span_tree(records: List[SpanRecord], indent: int = 2,
                     dropped: int = 0) -> str:
    """Render finished spans as an aggregated wall-time tree.

    Sibling spans with the same name are merged into one line with a
    ``xN`` multiplicity and summed durations, which keeps per-region
    traces readable (``qwm.region x14``).  ``dropped`` is the tracer's
    drop count (:meth:`Tracer.stats`); when non-zero the tree ends with
    an explicit truncation line so a capped buffer is never mistaken
    for a complete trace.
    """
    children: Dict[Optional[int], List[SpanRecord]] = {}
    for record in records:
        children.setdefault(record.parent_id, []).append(record)

    lines: List[str] = []

    def walk(parent_ids: List[Optional[int]], depth: int) -> None:
        rows: List[SpanRecord] = []
        for pid in parent_ids:
            rows.extend(children.get(pid, []))
        grouped: Dict[str, List[SpanRecord]] = {}
        for record in sorted(rows, key=lambda r: r.start):
            grouped.setdefault(record.name, []).append(record)
        for name, group in grouped.items():
            total = sum(r.duration for r in group)
            label = name if len(group) == 1 else f"{name} x{len(group)}"
            pad = max(36 - indent * depth, len(label) + 1)
            lines.append(f"{' ' * (indent * depth)}{label:<{pad}}"
                         f"{total * 1e3:10.3f} ms")
            walk([r.span_id for r in group], depth + 1)

    walk([None], 0)
    if dropped:
        lines.append(f"[trace truncated: {dropped} span"
                     f"{'s' if dropped != 1 else ''} dropped past the "
                     f"buffer limit]")
    return "\n".join(lines)
