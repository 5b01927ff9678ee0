"""Observability: one config, one instrumentation boundary.

The solvers are instrumented against five process-wide recorders —
tracer, metrics registry, phase profiler, accuracy observatory and
flight recorder — held in one :class:`Telemetry` bundle and reached
through module-level helpers so call sites stay one-liners::

    from repro.obs import phase, inc, observe, recording

    with recording(trace=True, metrics=True) as bundle:
        with phase("qwm.phase3", tag="crossing",
                   span_name="qwm.region", k=2) as frame:
            frame.count("newton_iterations", 4)
            inc("device.table.evaluations", 17)
            observe("qwm.newton.iterations", 4)

One :class:`ObsConfig` sets every recorder up.  By default all are
*disabled* and every helper degrades to a single attribute check (plus
a shared no-op frame), so instrumented hot paths cost effectively
nothing when un-observed.  ``configure`` installs a fresh bundle,
``disable()`` the default one, and ``recording(**changes)`` turns
recorders on for a block and puts the exact previous bundle back.
Pool workers record through the same helpers and ship :func:`drain`
home once per task.

See DESIGN.md ("Observability") for the metric catalog and how the
names map onto the paper's cost model.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import replace
from typing import Any, Dict, Iterator, List, Optional

from repro.obs.accuracy import (AccuracyObservatory,
                                accuracy_regressions,
                                append_history_entry, attribute_regions,
                                capture_regions, history_entry,
                                load_history_entries, note_region,
                                observatory, worst_regression)
from repro.obs.config import ObsConfig, SINK_KINDS
from repro.obs.flight import (FlightRecorder, LedgerEvent, flight,
                              render_report, summarize_ledger)
from repro.obs.metrics import (CATALOG, Counter, Gauge, Histogram,
                               MetricsRegistry)
from repro.obs.profile import (PhaseProfiler, export_speedscope,
                               phase_self_seconds, profiler,
                               render_profile, summarize_profile,
                               to_collapsed, to_speedscope)
from repro.obs.sinks import (JsonlSink, NullSink, Sink, StderrSink,
                             make_sink)
from repro.obs.trace import _LOCAL as _FRAMES
from repro.obs.trace import (NOOP_SPAN, RECORDING, Frame, SpanRecord,
                             Tracer, format_span_tree)

__all__ = [
    "ObsConfig", "SINK_KINDS", "Telemetry", "telemetry", "configure",
    "disable", "recording", "phase", "span", "count", "inc", "observe",
    "set_gauge", "install_worker", "drain", "merge", "CATALOG",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "Sink",
    "NullSink", "StderrSink", "JsonlSink", "make_sink", "Tracer",
    "SpanRecord", "NOOP_SPAN", "format_span_tree",
    "FlightRecorder", "LedgerEvent", "flight", "summarize_ledger",
    "render_report",
    "PhaseProfiler", "profiler", "to_collapsed",
    "to_speedscope", "export_speedscope", "summarize_profile",
    "render_profile", "phase_self_seconds",
    "AccuracyObservatory", "observatory", "capture_regions",
    "note_region", "attribute_regions", "history_entry",
    "append_history_entry", "load_history_entries",
    "accuracy_regressions", "worst_regression",
]

#: The config fields each recorder is built from.
_FIELDS = {
    "tracer": ("trace", "sink", "sink_path", "trace_limit"),
    "metrics": ("metrics", "max_series"),
    "profiler": ("profile", "max_cells"),
    "observatory": ("accuracy", "max_records"),
    "flight": ("flight", "event_limit", "bundle_dir", "max_bundles"),
}


class Telemetry:
    """One configured set of the five recorders.

    With ``keep``, each recorder whose config fields equal ``keep``'s
    is that bundle's own object; every other one is built fresh.
    """

    def __init__(self, config: Optional[ObsConfig] = None,
                 keep: Optional["Telemetry"] = None):
        self.config = config = config or ObsConfig()

        def build(name: str, make):
            if keep is not None and all(
                    getattr(config, key) == getattr(keep.config, key)
                    for key in _FIELDS[name]):
                return getattr(keep, name)
            return make()

        self.tracer = build("tracer", lambda: Tracer(
            config.trace, config.trace_limit, make_sink(config)))
        self.metrics = build("metrics", lambda: MetricsRegistry(
            config.metrics, config.max_series))
        self.profiler = build("profiler", lambda: PhaseProfiler(
            config.profile, config.max_cells))
        self.observatory = build("observatory", lambda: AccuracyObservatory(
            config.accuracy, config.max_records))
        self.flight = build("flight", lambda: FlightRecorder(
            config.flight, config.event_limit, config.bundle_dir,
            config.max_bundles))

    # ------------------------------------------------------------------
    def export_trace(self, path: str) -> str:
        """Write the span buffer as a Chrome ``trace_event`` file."""
        return self.tracer.export_chrome(path)

    def export_metrics(self, path: str) -> str:
        """Write the metrics registry as a JSON dump."""
        return self.metrics.export_json(path)

    def close(self) -> None:
        self.tracer.sink.close()


def telemetry() -> Telemetry:
    """The installed bundle."""
    return RECORDING.bundle


#: Bundles that open :func:`recording` blocks of this process will put
#: back.  Their sinks must outlive any swap inside the blocks.
_SAVED: List[Telemetry] = []
_SAVED_LOCK = threading.Lock()


def _retire(bundle: Telemetry) -> None:
    """Close ``bundle``'s sink unless a bundle to be restored shares it."""
    if all(bundle.tracer is not saved.tracer for saved in _SAVED):
        bundle.close()


def configure(config: ObsConfig) -> Telemetry:
    """Install a fresh bundle for ``config`` and return it.

    The previous bundle's sink is closed, unless an enclosing
    :func:`recording` block will put back a bundle that writes to it.
    Instrumented code reads the bundle through the module-level helpers
    at each call, so the swap takes effect immediately everywhere.
    """
    _retire(RECORDING.bundle)
    bundle = Telemetry(config)
    RECORDING.update(bundle)
    return bundle


def disable() -> Telemetry:
    """Install the default bundle, every recorder off."""
    return configure(ObsConfig())


@contextmanager
def recording(**changes: Any) -> Iterator[Telemetry]:
    """Record with ``changes`` applied to the installed config.

    ``recording(profile=True, max_cells=64)`` turns the profiler on for
    the block.  A recorder whose config fields ``changes`` leaves as
    they are (one already on with the same bounds, or one not named)
    stays the same object, so an enclosing block keeps its data; any
    other is built fresh.  On exit, however the block ends and even
    after an inner :func:`configure`, the saved bundle is put back.
    """
    saved = RECORDING.bundle
    bundle = Telemetry(replace(saved.config, **changes), keep=saved)
    with _SAVED_LOCK:
        _SAVED.append(saved)
    RECORDING.update(bundle)
    try:
        yield bundle
    finally:
        with _SAVED_LOCK:
            _retire(RECORDING.bundle)
            _SAVED.remove(saved)
        RECORDING.update(saved)


RECORDING.update(Telemetry())


# ----------------------------------------------------------------------
# Hot-path helpers — one attribute check when disabled.
# ----------------------------------------------------------------------
def phase(name: str, tag: Optional[str] = None,
          span_name: Optional[str] = None, **attrs):
    """Open one frame feeding every enabled consumer (no-op when off).

    The tracer gets a span ``span_name`` (default ``name``; ``""`` for
    none) with ``attrs``, the profiler a cell ``name:tag`` under the
    enclosing frame, and an armed accuracy capture labels the region
    notes taken inside ``name``.  ``frame.count(op, n)`` feeds the
    cell's ops and the span attribute ``op``.
    """
    if not RECORDING.any:
        return NOOP_SPAN
    if span_name is None:
        span_name = name
    return Frame(span_name, attrs,
                 tracer=RECORDING.tracer if span_name else None,
                 profiler=RECORDING.profiler,
                 label=f"{name}:{tag}" if tag else name, phase=name)


def span(name: str, **attrs):
    """Open a trace-only frame on the current tracer (no-op when off)."""
    return RECORDING.bundle.tracer.span(name, attrs)


def count(op: str, amount: float = 1.0,
          root: str = "unattributed") -> None:
    """Add to operation ``op`` on the innermost open frame.

    Outside every profiler frame the profiler keeps it on the path
    ``(root,)``.
    """
    if not RECORDING.any:
        return
    if RECORDING.profiler is not None:
        RECORDING.profiler.add(op, amount, root=root)
    stack = _FRAMES.stack
    if stack and stack[-1].tracer is not None:
        attrs = stack[-1].attrs
        attrs[op] = attrs.get(op, 0) + amount


def inc(name: str, amount: float = 1.0, **labels) -> None:
    """Increment a counter (no-op when disabled)."""
    registry = RECORDING.bundle.metrics
    if registry.enabled:
        registry.counter(name).inc(amount, **labels)


def observe(name: str, value: float, **labels) -> None:
    """Record a histogram observation (no-op when disabled)."""
    registry = RECORDING.bundle.metrics
    if registry.enabled:
        registry.histogram(name).observe(value, **labels)


def set_gauge(name: str, value: float, **labels) -> None:
    """Set a gauge (no-op when disabled)."""
    registry = RECORDING.bundle.metrics
    if registry.enabled:
        registry.gauge(name).set(value, **labels)


# ----------------------------------------------------------------------
# Process-pool workers: one state in, one payload out per task.
# ----------------------------------------------------------------------
def install_worker(config: ObsConfig) -> None:
    """Install fresh recorders for the parent's ``config`` in a forked
    pool worker.

    Fresh, because the worker inherited the parent's counts, which must
    not be shipped back twice.  The inherited sink belongs to the
    parent: workers trace nothing and stream to no sink.  The flight
    recorder is installed for its bundles; its ledger is not drained.
    """
    RECORDING.update(Telemetry(replace(config, trace=False, sink="null",
                                       sink_path=None)))


def _drainable() -> Dict[str, Any]:
    bundle = RECORDING.bundle
    return {"metrics": bundle.metrics, "profile": bundle.profiler,
            "accuracy": bundle.observatory}


def drain() -> Dict[str, Any]:
    """Snapshot and reset the enabled metrics, profile and accuracy
    recorders (keyed by those names)."""
    return {key: recorder.drain()
            for key, recorder in _drainable().items() if recorder.enabled}


def merge(payload: Dict[str, Any]) -> None:
    """Fold a worker's :func:`drain` into this process (order-free)."""
    recorders = _drainable()
    for key, delta in payload.items():
        if recorders[key].enabled:
            recorders[key].merge(delta)
