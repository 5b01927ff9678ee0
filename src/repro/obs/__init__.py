"""Observability: one instrumentation boundary over the recorders.

The solvers are instrumented against process-wide recorders — the
:class:`Telemetry` bundle (tracer + metrics registry + sink), the phase
profiler, the accuracy observatory and the flight recorder — reached
through module-level helpers so call sites stay one-liners::

    from repro.obs import configure, phase, inc, observe

    configure(ObsConfig(enabled=True))
    with phase("qwm.phase3", tag="crossing", span_name="qwm.region",
               k=2) as frame:
        frame.count("newton_iterations", 4)
        inc("device.table.evaluations", 17)
        observe("qwm.newton.iterations", 4)

By default everything is *disabled* and every helper degrades to a
single attribute check (plus a shared no-op frame), so instrumented hot
paths cost effectively nothing when un-observed.  ``configure`` swaps
the telemetry bundle atomically; ``disable()`` restores the default.
Pool workers record through the same helpers and ship :func:`drain`
home once per task.

See DESIGN.md ("Observability") for the metric catalog and how the
names map onto the paper's cost model.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Optional

from repro.obs.accuracy import (AccuracyConfig, AccuracyObservatory,
                                accuracy_regressions,
                                append_history_entry, attribute_regions,
                                capture_regions, configure_accuracy,
                                disable_accuracy, history_entry,
                                load_history_entries, note_region,
                                observatory, worst_regression)
from repro.obs.config import ObsConfig, SINK_KINDS
from repro.obs.flight import (FlightConfig, FlightRecorder, LedgerEvent,
                              configure_flight, disable_flight, flight,
                              render_report, summarize_ledger)
from repro.obs.metrics import (CATALOG, Counter, Gauge, Histogram,
                               MetricsRegistry)
from repro.obs.profile import (PhaseProfiler, ProfileConfig,
                               configure_profile, disable_profile,
                               export_speedscope, phase_self_seconds,
                               profiler, render_profile,
                               summarize_profile, to_collapsed,
                               to_speedscope)
from repro.obs.sinks import (JsonlSink, NullSink, Sink, StderrSink,
                             make_sink)
from repro.obs.trace import _LOCAL as _FRAMES
from repro.obs.trace import (NOOP_SPAN, RECORDING, Frame, SpanRecord,
                             Tracer, format_span_tree)

__all__ = [
    "ObsConfig", "SINK_KINDS", "Telemetry", "telemetry", "configure",
    "disable", "phase", "span", "count", "inc", "observe", "set_gauge",
    "worker_state", "install_worker", "drain", "merge", "CATALOG",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "Sink",
    "NullSink", "StderrSink", "JsonlSink", "make_sink", "Tracer",
    "SpanRecord", "NOOP_SPAN", "format_span_tree",
    "FlightConfig", "FlightRecorder", "LedgerEvent", "flight",
    "configure_flight", "disable_flight", "summarize_ledger",
    "render_report",
    "ProfileConfig", "PhaseProfiler", "profiler", "configure_profile",
    "disable_profile", "to_collapsed",
    "to_speedscope", "export_speedscope", "summarize_profile",
    "render_profile", "phase_self_seconds",
    "AccuracyConfig", "AccuracyObservatory", "observatory",
    "configure_accuracy", "disable_accuracy", "capture_regions",
    "note_region", "attribute_regions", "history_entry",
    "append_history_entry", "load_history_entries",
    "accuracy_regressions", "worst_regression",
]


class Telemetry:
    """One configured observability stack (tracer + metrics + sink)."""

    def __init__(self, config: Optional[ObsConfig] = None):
        self.config = config or ObsConfig()
        self.sink = make_sink(self.config)
        self.tracer = Tracer(
            enabled=self.config.enabled and self.config.trace,
            limit=self.config.trace_limit, sink=self.sink)
        self.metrics = MetricsRegistry(
            enabled=self.config.enabled and self.config.metrics,
            max_series=self.config.max_series)

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    # ------------------------------------------------------------------
    def export_trace(self, path: str) -> str:
        """Write the span buffer as a Chrome ``trace_event`` file."""
        return self.tracer.export_chrome(path)

    def export_metrics(self, path: str) -> str:
        """Write the metrics registry as a JSON dump."""
        return self.metrics.export_json(path)

    def close(self) -> None:
        self.sink.close()


#: The process-wide bundle; disabled until ``configure`` is called.
_TELEMETRY = Telemetry(ObsConfig(enabled=False))


def telemetry() -> Telemetry:
    """The current process-wide telemetry bundle."""
    return _TELEMETRY


def configure(config: ObsConfig) -> Telemetry:
    """Install a new telemetry bundle and return it.

    The previous bundle's sink is closed.  Instrumented code reads the
    bundle through the module-level helpers at each call, so the swap
    takes effect immediately everywhere.
    """
    global _TELEMETRY
    _TELEMETRY.close()
    _TELEMETRY = Telemetry(config)
    RECORDING.update(tracer=_TELEMETRY.tracer)
    return _TELEMETRY


def disable() -> Telemetry:
    """Restore the default disabled bundle."""
    return configure(ObsConfig(enabled=False))


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
    return _TELEMETRY.tracer.span(name, attrs)


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
    registry = _TELEMETRY.metrics
    if registry.enabled:
        registry.counter(name).inc(amount, **labels)


def observe(name: str, value: float, **labels) -> None:
    """Record a histogram observation (no-op when disabled)."""
    registry = _TELEMETRY.metrics
    if registry.enabled:
        registry.histogram(name).observe(value, **labels)


def set_gauge(name: str, value: float, **labels) -> None:
    """Set a gauge (no-op when disabled)."""
    registry = _TELEMETRY.metrics
    if registry.enabled:
        registry.gauge(name).set(value, **labels)


# ----------------------------------------------------------------------
# Process-pool workers: one state in, one payload out per task.
# ----------------------------------------------------------------------
def worker_state() -> Dict[str, Any]:
    """The recorder configs a pool worker installs (picklable)."""
    return {"telemetry": _TELEMETRY.config, "profile": profiler().config,
            "accuracy": observatory().config, "flight": flight().config}


def install_worker(state: Dict[str, Any]) -> None:
    """Install fresh recorders in a forked pool worker.

    Fresh, because the worker inherited the parent's counts, which must
    not be shipped back twice.  The inherited sink belongs to the
    parent: workers trace nothing and stream to no sink.  The flight
    recorder is installed for its bundles; its ledger is not drained.
    """
    global _TELEMETRY
    _TELEMETRY = Telemetry(replace(state["telemetry"], trace=False,
                                   sink="null", sink_path=None))
    RECORDING.update(tracer=_TELEMETRY.tracer)
    configure_profile(state["profile"])
    configure_accuracy(state["accuracy"])
    configure_flight(state["flight"])


def _drainable() -> Dict[str, Any]:
    return {"metrics": _TELEMETRY.metrics, "profile": profiler(),
            "accuracy": observatory()}


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
