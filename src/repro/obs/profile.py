"""Phase-level cost-attribution profiler.

Where metrics (:mod:`repro.obs.metrics`) count *how much* work a run
did and the flight recorder (:mod:`repro.obs.flight`) records *what
happened* inside one solve, the profiler answers *where the wall time
went*: it attributes self time and operation counts (Newton iterations,
table evaluations, linalg solves, cache hits) to a stable phase
taxonomy

    solver phase  ->  region kind  ->  stage class / arc

via explicit instrumentation frames in ``core`` (QWM phases 1-3),
``linalg``/``matching`` (Sherman-Morrison vs dense LU), ``devices``
(characterization), ``spice`` (both transient engines), ``analysis``
(per-arc frames, serial and parallel backends) and ``resilience``
(escalation rungs).

Instrumented code opens frames through :func:`repro.obs.phase`, the
one boundary that also feeds the tracer and the accuracy capture::

    with phase("qwm.phase3", tag="crossing") as frame:
        ...
        frame.count("newton_iterations", region_iterations)

On exit the frame records one **cell** keyed by the full label path
(``("sta.arc:nand3", "resilience.rung:qwm", "engine.evaluate:nand3",
"qwm.phase3:crossing")``) holding exclusive (self) seconds, a call
count and the accumulated operation counts.  Counts are kept on the
frame and flushed once at its exit — never per inner-loop iteration —
which is the discipline lint rule ``SOL006-hot-loop-instrumentation``
enforces.

Like the flight recorder the profiler is process-wide (one of the
recorders :func:`repro.obs.configure` installs) and disabled by
default.  The cell ledger is deterministic and mergeable: process
workers ship their drained ledgers home (:func:`repro.obs.drain`) and
the parent adds them cell-wise (addition over sorted keys commutes),
so a process-pool run reports operation counts bit-for-bit equal to
the serial run.

Exports: :func:`to_collapsed` (Brendan Gregg collapsed stacks),
:func:`to_speedscope` (speedscope JSON file format),
:func:`summarize_profile` / :func:`render_profile` (self/cumulative
tables + hottest cells) and :func:`phase_self_seconds` (the ``phases``
section embedded into the benchmark artifacts for ``repro
bench-diff`` attribution).
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.trace import _LOCAL, RECORDING, Frame, _nearest

__all__ = [
    "PhaseProfiler", "profiler", "to_collapsed", "to_speedscope",
    "export_speedscope",
    "summarize_profile", "render_profile", "phase_self_seconds",
]

#: Ledger format tag (bumped on incompatible cell-shape changes).
LEDGER_FORMAT = "repro-phase-profile/1"


class _Cell:
    """Accumulated cost of one phase path."""

    __slots__ = ("self_seconds", "calls", "ops")

    def __init__(self) -> None:
        self.self_seconds = 0.0
        self.calls = 0
        self.ops: Dict[str, float] = {}


class PhaseProfiler:
    """Thread-safe phase-path ledger with deterministic merging.

    Frames nest per thread on the shared frame stack, so concurrent
    threads attribute correctly without sharing state on the hot path;
    the ledger itself takes one lock per frame *exit*, never per
    operation counted.

    ``enabled`` is the fast-path switch (mirroring ``Tracer.enabled``);
    ``max_cells`` is :attr:`repro.obs.ObsConfig.max_cells`.
    """

    def __init__(self, enabled: bool = True, max_cells: int = 4096):
        self.enabled = enabled
        self.max_cells = max_cells
        self._lock = threading.RLock()
        self._cells: Dict[Tuple[str, ...], _Cell] = {}
        self._dropped = 0

    # ------------------------------------------------------------------
    # Frames (on the shared stack of :mod:`repro.obs.trace`)
    # ------------------------------------------------------------------
    def phase(self, name: str, tag: Optional[str] = None) -> Frame:
        """Open a phase frame (``name:tag`` when a tag is given)."""
        label = f"{name}:{tag}" if tag else name
        return Frame(label, {}, profiler=self, label=label)

    def add(self, op: str, amount: float = 1.0,
            root: str = "unattributed") -> None:
        """Attribute an operation count to the current thread's frame.

        The count joins the innermost open frame of this profiler and
        is flushed with it.  Outside any frame the count lands on the
        single-element path ``(root,)`` so it is never silently lost.
        """
        frame = _nearest(_LOCAL.stack, "profiler", self)
        if frame is not None:
            frame.ops[op] = frame.ops.get(op, 0) + amount
        else:
            self._record((root,), 0.0, 0, {op: amount})

    def _record(self, path: Tuple[str, ...], self_seconds: float,
                calls: int, ops: Dict[str, float]) -> None:
        with self._lock:
            cell = self._cells.get(path)
            if cell is None:
                if len(self._cells) >= self.max_cells:
                    self._dropped += 1
                    return
                cell = self._cells[path] = _Cell()
            cell.self_seconds += self_seconds
            cell.calls += calls
            for op, amount in ops.items():
                cell.ops[op] = cell.ops.get(op, 0) + amount

    # ------------------------------------------------------------------
    # Serialization / merging
    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        """The ledger as a JSON-serializable dict (cells sorted by path)."""
        with self._lock:
            cells = [{"path": list(path),
                      "self_seconds": cell.self_seconds,
                      "calls": cell.calls,
                      "ops": {op: cell.ops[op]
                              for op in sorted(cell.ops)}}
                     for path, cell in sorted(self._cells.items())]
            return {"format": LEDGER_FORMAT, "cells": cells,
                    "dropped_cells": self._dropped}

    def drain(self) -> Dict[str, Any]:
        """Snapshot the ledger (:meth:`to_json`) and reset it atomically."""
        with self._lock:
            snapshot = self.to_json()
            self._cells = {}
            self._dropped = 0
            return snapshot

    def merge(self, payload: Dict[str, Any]) -> None:
        """Add a serialized ledger into this one (cell-wise addition).

        Addition over sorted keys is commutative and associative, so
        the merged totals are independent of worker scheduling order —
        the property the parallel-determinism tests pin down.
        """
        for cell in payload.get("cells", ()):
            self._record(tuple(cell["path"]),
                         float(cell.get("self_seconds", 0.0)),
                         int(cell.get("calls", 0)),
                         cell.get("ops", {}))
        with self._lock:
            self._dropped += int(payload.get("dropped_cells", 0))

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"cells": len(self._cells), "dropped": self._dropped}


def profiler() -> PhaseProfiler:
    """The installed phase profiler."""
    return RECORDING.bundle.profiler


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def _ledger_cells(ledger: Any) -> List[Dict[str, Any]]:
    if isinstance(ledger, PhaseProfiler):
        ledger = ledger.to_json()
    return list(ledger.get("cells", ()))


def summarize_profile(ledger: Any) -> Dict[str, Any]:
    """Aggregate a ledger into self/cumulative frame rows + hot cells.

    Per frame label: *self* is the sum of exclusive seconds over every
    cell whose path ends in that label; *cumulative* sums the exclusive
    seconds of every cell whose path contains it (each cell counted
    once).  Accepts a :class:`PhaseProfiler` or a ``to_json`` dict.
    """
    cells = _ledger_cells(ledger)
    self_by_frame: Dict[str, float] = {}
    cum_by_frame: Dict[str, float] = {}
    calls_by_frame: Dict[str, int] = {}
    ops_by_frame: Dict[str, Dict[str, float]] = {}
    total = 0.0
    for cell in cells:
        path = cell["path"]
        seconds = float(cell.get("self_seconds", 0.0))
        total += seconds
        leaf = path[-1]
        self_by_frame[leaf] = self_by_frame.get(leaf, 0.0) + seconds
        calls_by_frame[leaf] = (calls_by_frame.get(leaf, 0)
                                + int(cell.get("calls", 0)))
        ops = ops_by_frame.setdefault(leaf, {})
        for op, amount in cell.get("ops", {}).items():
            ops[op] = ops.get(op, 0) + amount
        for frame in dict.fromkeys(path):
            cum_by_frame[frame] = cum_by_frame.get(frame, 0.0) + seconds
    frames = [{"frame": frame,
               "self_seconds": self_by_frame.get(frame, 0.0),
               "cum_seconds": cum_by_frame[frame],
               "calls": calls_by_frame.get(frame, 0),
               "ops": {op: ops_by_frame.get(frame, {})[op]
                       for op in sorted(ops_by_frame.get(frame, {}))}}
              for frame in sorted(cum_by_frame)]
    frames.sort(key=lambda row: (-row["self_seconds"], row["frame"]))
    hot = sorted(cells, key=lambda c: (-float(c.get("self_seconds", 0.0)),
                                       tuple(c["path"])))
    return {"total_seconds": total, "frames": frames, "cells": hot,
            "dropped_cells": int(
                ledger.get("dropped_cells", 0)
                if isinstance(ledger, dict) else 0)}


def phase_self_seconds(ledger: Any) -> Dict[str, float]:
    """Frame label -> exclusive seconds (the bench ``phases`` section)."""
    summary = summarize_profile(ledger)
    return {row["frame"]: row["self_seconds"]
            for row in summary["frames"] if row["calls"] > 0
            or row["self_seconds"] > 0.0 or row["ops"]}


def render_profile(summary: Dict[str, Any], top: int = 10) -> str:
    """Render :func:`summarize_profile` output as a text report."""
    lines = ["phase profile", "============="]
    total = summary["total_seconds"]
    lines.append(f"total attributed: {total * 1e3:.3f} ms")
    lines.append("")
    lines.append(f"{'phase':<42} {'self':>10} {'cum':>10} {'calls':>8}")
    lines.append("-" * 72)
    for row in summary["frames"]:
        lines.append(
            f"{row['frame']:<42} {row['self_seconds'] * 1e3:>8.3f}ms "
            f"{row['cum_seconds'] * 1e3:>8.3f}ms {row['calls']:>8}")
        for op, amount in row["ops"].items():
            lines.append(f"{'':<42}   {op} = {amount:g}")
    lines.append("")
    lines.append(f"hottest cells (top {top})")
    lines.append("-" * 72)
    shown = summary["cells"][:top]
    if not shown:
        lines.append("  (no cells recorded)")
    for cell in shown:
        path = "/".join(cell["path"])
        lines.append(f"  {float(cell['self_seconds']) * 1e3:>8.3f}ms  "
                     f"{path}")
    if summary.get("dropped_cells"):
        lines.append(f"  ... {summary['dropped_cells']} cell(s) dropped "
                     "(max_cells cap)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Flame-graph exports
# ----------------------------------------------------------------------
def to_collapsed(ledger: Any) -> str:
    """Collapsed-stack format (``a;b;c <microseconds>`` per line).

    Feed to any Brendan Gregg-style flamegraph tool; weights are
    integer microseconds of exclusive time.
    """
    lines = []
    for cell in _ledger_cells(ledger):
        micros = int(round(float(cell.get("self_seconds", 0.0)) * 1e6))
        lines.append(";".join(cell["path"]) + f" {micros}")
    return "\n".join(lines) + ("\n" if lines else "")


def to_speedscope(ledger: Any, name: str = "repro phase profile"
                  ) -> Dict[str, Any]:
    """The ledger as a speedscope JSON document (sampled profile).

    Each cell becomes one sample whose stack is the phase path and
    whose weight is the cell's exclusive seconds; open the file at
    https://www.speedscope.app or with ``speedscope <file>``.
    """
    cells = _ledger_cells(ledger)
    frame_index: Dict[str, int] = {}
    frames: List[Dict[str, str]] = []
    samples: List[List[int]] = []
    weights: List[float] = []
    for cell in cells:
        stack = []
        for label in cell["path"]:
            if label not in frame_index:
                frame_index[label] = len(frames)
                frames.append({"name": label})
            stack.append(frame_index[label])
        samples.append(stack)
        weights.append(float(cell.get("self_seconds", 0.0)))
    total = sum(weights)
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "name": name,
        "exporter": "repro.obs.profile",
        "activeProfileIndex": 0,
        "shared": {"frames": frames},
        "profiles": [{
            "type": "sampled",
            "name": name,
            "unit": "seconds",
            "startValue": 0,
            "endValue": total,
            "samples": samples,
            "weights": weights,
        }],
    }


def export_speedscope(ledger: Any, path: str,
                      name: str = "repro phase profile") -> str:
    """Write :func:`to_speedscope` output to ``path``; returns the path."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_speedscope(ledger, name=name), handle, indent=1)
        handle.write("\n")
    return path
