"""Incremental static timing analysis.

A full STA re-evaluates every stage arc with QWM.  After a local design
edit (a transistor resize, a load change), only the touched stages —
the edited stage itself plus any upstream driver whose output load
changed — need fresh evaluations; every other arc is still valid.
:class:`IncrementalTimer` is a client of the stage-result cache: it
owns one :class:`repro.analysis.parallel.StageResultCache` and times
through an analyzer that uses it.  Cache keys are canonical stage
forms, which already change with any geometry or load edit, so an
edited stage simply misses while untouched (and isomorphic) stages
hit — no invalidation bookkeeping is needed.

This is where transistor-level STA pays off in practice: the per-stage
evaluation is the expensive step, and QWM already makes it cheap; the
incremental layer avoids repeating even that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.analysis.parallel import StageResultCache
from repro.analysis.sta import Event, StaResult, StaticTimingAnalyzer
from repro.circuit.stage import StageGraph
from repro.devices.capacitance import gate_capacitance
from repro.devices.table_model import TableModelLibrary
from repro.devices.technology import Technology


@dataclass
class IncrementalStats:
    """Cache traffic of one analysis pass (arc lookups)."""

    arcs_evaluated: int = 0
    arcs_cached: int = 0

    @property
    def total(self) -> int:
        return self.arcs_evaluated + self.arcs_cached


class IncrementalTimer:
    """STA over a stage-result cache, re-timed after in-place edits.

    Args:
        tech: process technology.
        graph: the partitioned design (stages are edited in place
            through the editing methods below).
        library: shared table-model library.
    """

    def __init__(self, tech: Technology, graph: StageGraph,
                 library: Optional[TableModelLibrary] = None):
        self.tech = tech
        self.graph = graph
        self.cache = StageResultCache()
        self.analyzer = StaticTimingAnalyzer(tech, library=library,
                                             cache=self.cache)
        self.last_stats = IncrementalStats()

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def analyze(self,
                input_arrivals: Optional[Dict[Event, float]] = None
                ) -> StaResult:
        """Run STA, reusing every cached arc whose stage is unchanged.

        :attr:`last_stats` holds the pass's cache misses (arcs solved)
        and hits (arcs reused).
        """
        hits, misses = self.cache.hits, self.cache.misses
        result = self.analyzer.analyze(self.graph, input_arrivals)
        self.last_stats = IncrementalStats(
            arcs_evaluated=self.cache.misses - misses,
            arcs_cached=self.cache.hits - hits)
        return result

    # ------------------------------------------------------------------
    # Edits
    # ------------------------------------------------------------------
    def resize_transistor(self, stage_name: str, device_name: str,
                          new_width: float) -> None:
        """Resize a device; dirties the stage and upstream drivers.

        The gate of the resized device loads whichever stage drives its
        input net, so that driver's output load is adjusted and its
        arcs invalidated too.
        """
        if new_width <= 0:
            raise ValueError("width must be positive")
        stage = self.graph.stage(stage_name)
        edge = stage.edge(device_name)
        old_width = edge.w
        params = (self.tech.nmos if edge.kind.polarity == "n"
                  else self.tech.pmos)
        edge.w = new_width

        gate_net = edge.gate_input
        driver = self.graph.driver_of.get(gate_net)
        if driver is not None:
            delta = (gate_capacitance(params, new_width, edge.l)
                     - gate_capacitance(params, old_width, edge.l))
            driver.node(gate_net).load_cap += delta
        # Canonical cache keys change with the edit; analyze() misses.

    def set_load(self, net: str, cap: float) -> None:
        """Change a net's external load (dirties its driver stage)."""
        stage = self.graph.stage_of_net.get(net)
        if stage is None:
            raise KeyError(f"net {net!r} is not driven by any stage")
        stage.node(net).load_cap = cap
