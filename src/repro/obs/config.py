"""Observability configuration.

One frozen :class:`ObsConfig` sets up every recorder: one switch each
for the tracer (``trace``), the metrics registry (``metrics``), the
phase profiler (``profile``), the accuracy observatory (``accuracy``)
and the flight recorder (``flight``), plus the safety bounds that keep
an instrumented long-running process from growing without limit.

The default configuration has every recorder off: every
instrumentation point in the solvers degrades to a single attribute
check, so the un-observed hot path stays effectively free (see
``tests/test_obs.py`` for the overhead budget assertion).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Valid values for :attr:`ObsConfig.sink`.
SINK_KINDS = ("null", "stderr", "jsonl")


@dataclass(frozen=True)
class ObsConfig:
    """Controls for the recorders.

    Attributes:
        trace: record hierarchical spans.
        metrics: record counters/gauges/histograms.
        profile: attribute self time and operation counts to phase
            paths.
        accuracy: note attempted arcs and keep audit records.
        flight: keep the per-region solver event ledger.
        sink: live span sink — ``"null"`` (keep in memory only),
            ``"stderr"`` (log one line per finished span) or
            ``"jsonl"`` (append JSON lines to ``sink_path``).
        sink_path: output file for the ``"jsonl"`` sink.
        trace_limit: maximum retained span records; once full, further
            spans are timed but dropped from the buffer (and counted).
        max_series: per-metric cap on distinct label sets; observations
            for label sets beyond the cap are dropped and counted in
            the registry's ``dropped_series`` total.
        max_cells: cap on distinct profiler cells; cells beyond it are
            dropped and counted.
        max_records: cap on retained audit records; records beyond it
            are dropped and counted.
        event_limit: maximum retained flight events; further events are
            dropped and counted.  ``None`` means unbounded — legal, but
            the SOL005 lint rule warns about it in parallel runs.
        bundle_dir: directory a debug bundle is written into on a solve
            failure or a forced capture (golden band violations);
            ``None`` writes no bundles.
        max_bundles: cap on bundles written per flight recorder (a
            failing sweep should not fill the disk).
    """

    trace: bool = False
    metrics: bool = False
    profile: bool = False
    accuracy: bool = False
    flight: bool = False
    sink: str = "null"
    sink_path: Optional[str] = None
    trace_limit: int = 100_000
    max_series: int = 256
    max_cells: int = 4096
    max_records: int = 4096
    event_limit: Optional[int] = 20_000
    bundle_dir: Optional[str] = None
    max_bundles: int = 16

    def __post_init__(self) -> None:
        if self.sink not in SINK_KINDS:
            raise ValueError(
                f"sink must be one of {SINK_KINDS}, got {self.sink!r}")
        if self.sink == "jsonl" and not self.sink_path:
            raise ValueError("sink='jsonl' needs a sink_path")
        for bound in ("trace_limit", "max_series", "max_cells",
                      "max_records"):
            if getattr(self, bound) < 1:
                raise ValueError(f"{bound} must be >= 1")
        if self.event_limit is not None and self.event_limit < 1:
            raise ValueError("event_limit must be >= 1 or None (unbounded)")
        if self.max_bundles < 0:
            raise ValueError("max_bundles must be non-negative")
